//! Bit maps for quotient candidates.
//!
//! "The algorithm requires efficient handling of bit maps, including a
//! scan over a possibly large bit map. ... initializing a bit map and
//! searching for a single zero in a bit map can be done by inspecting a
//! word at a time." (Section 3.3.)
//!
//! Single-bit operations count one `Bit` each through
//! [`reldiv_rel::counters`]; whole-map initialization and the final
//! zero-scan count one `Bit` per *word*, reflecting the word-at-a-time
//! implementation the paper assumes.

use reldiv_rel::counters;

/// A fixed-size bit map indexed by divisor numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    bits: usize,
}

impl Bitmap {
    /// Creates a map of `bits` zero bits (one per divisor tuple).
    pub fn new(bits: usize) -> Self {
        count_clear(bits);
        Bitmap {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the map has zero bits (an empty divisor).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Heap bytes a map of `bits` bits occupies, for memory accounting.
    pub fn heap_bytes(bits: usize) -> usize {
        bits.div_ceil(64) * 8
    }

    /// Sets bit `i`, returning its previous value.
    ///
    /// The early-output variant of hash-division "tests whether or not this
    /// bit position is set already" before setting — one operation here.
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        counters::count_bitops(1);
        set_bit(&mut self.words, i)
    }

    /// Tests bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        counters::count_bitops(1);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Tests the map for a zero bit, word at a time: `true` iff all bits
    /// are set. An empty map is vacuously complete.
    pub fn all_set(&self) -> bool {
        all_set(&self.words, self.bits)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

// The word-slice kernels behind [`Bitmap`], shared with the flat group
// table (`crate::groups`), whose maps live in one word array.

/// Counts the word-at-a-time clear of a `bits`-bit map (one `Bit` per
/// word, at least one).
pub(crate) fn count_clear(bits: usize) {
    counters::count_bitops(bits.div_ceil(64).max(1) as u64);
}

/// Sets bit `i` of `words`, returning its previous value: one `Bit`,
/// which the caller counts.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) -> bool {
    let (w, b) = (i / 64, i % 64);
    let prior = words[w] & (1 << b) != 0;
    words[w] |= 1 << b;
    prior
}

/// Whether the `bits`-bit map in `words` has no zero, word at a time:
/// one `Bit` per word (at least one). An empty map is complete.
pub(crate) fn all_set(words: &[u64], bits: usize) -> bool {
    counters::count_bitops(words.len().max(1) as u64);
    let full_words = bits / 64;
    if words[..full_words].iter().any(|&w| w != u64::MAX) {
        return false;
    }
    let mask = (1u64 << (bits % 64)) - 1;
    mask == 0 || words[full_words] & mask == mask
}

/// ORs `from` into `words`, word at a time: one `Bit` per word of
/// `words` (at least one), which the caller counts. Extra words of `from`
/// are ignored.
pub(crate) fn or_words(words: &mut [u64], from: impl IntoIterator<Item = u64>) {
    for (w, v) in words.iter_mut().zip(from) {
        *w |= v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_all_zero() {
        let b = Bitmap::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.all_set());
        assert!(!b.get(0));
        assert!(!b.get(99));
    }

    #[test]
    fn set_returns_prior_value() {
        let mut b = Bitmap::new(10);
        assert!(!b.set(3));
        assert!(b.set(3), "second set reports the bit was already set");
        assert!(b.get(3));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn all_set_requires_every_bit() {
        let mut b = Bitmap::new(5);
        for i in 0..4 {
            b.set(i);
        }
        assert!(!b.all_set());
        b.set(4);
        assert!(b.all_set());
    }

    #[test]
    fn word_boundaries_are_exact() {
        // 64 and 65 bits exercise the full-word and partial-word paths.
        for bits in [63, 64, 65, 128, 129] {
            let mut b = Bitmap::new(bits);
            for i in 0..bits {
                assert!(!b.all_set(), "bits={bits}, missing {i}");
                b.set(i);
            }
            assert!(b.all_set(), "bits={bits}");
            assert_eq!(b.count_ones(), bits);
        }
    }

    #[test]
    fn empty_map_is_vacuously_complete() {
        // An empty divisor means every quotient candidate qualifies.
        let b = Bitmap::new(0);
        assert!(b.all_set());
        assert!(b.is_empty());
    }

    #[test]
    fn stray_high_bits_cannot_fake_completeness() {
        let mut b = Bitmap::new(3);
        b.set(0);
        b.set(2);
        assert!(!b.all_set(), "bit 1 is still zero");
    }

    #[test]
    fn heap_bytes_rounds_to_words() {
        assert_eq!(Bitmap::heap_bytes(0), 0);
        assert_eq!(Bitmap::heap_bytes(1), 8);
        assert_eq!(Bitmap::heap_bytes(64), 8);
        assert_eq!(Bitmap::heap_bytes(65), 16);
        assert_eq!(Bitmap::heap_bytes(400), 56);
    }

    #[test]
    fn bit_operations_are_counted() {
        reldiv_rel::counters::reset();
        let mut b = Bitmap::new(128); // 2 words to clear
        b.set(5); // 1
        b.get(5); // 1
        b.all_set(); // 2 words
        let ops = reldiv_rel::counters::snapshot().bitops;
        assert_eq!(ops, 2 + 1 + 1 + 2);
    }
}
