//! The word-at-a-time bit maps of hash-division's quotient candidates,
//! kept as a group's words in [`crate::groups::GroupTable`].
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

/// Heap bytes a map of `bits` bits occupies, for memory accounting.
pub fn heap_bytes(bits: usize) -> usize {
    bits.div_ceil(64) * 8
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
#[inline]
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
#[inline]
pub(crate) fn or_words(words: &mut [u64], from: impl IntoIterator<Item = u64>) {
    for (w, v) in words.iter_mut().zip(from) {
        *w |= v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cleared map of `bits` bits.
    fn map(bits: usize) -> Vec<u64> {
        vec![0; bits.div_ceil(64)]
    }

    fn ones(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn new_map_is_all_zero() {
        let b = map(100);
        assert_eq!(ones(&b), 0);
        assert!(!all_set(&b, 100));
    }

    #[test]
    fn set_returns_prior_value() {
        let mut b = map(10);
        assert!(!set_bit(&mut b, 3));
        assert!(
            set_bit(&mut b, 3),
            "second set reports the bit was already set"
        );
        assert_eq!(ones(&b), 1);
    }

    #[test]
    fn all_set_requires_every_bit() {
        let mut b = map(5);
        for i in 0..4 {
            set_bit(&mut b, i);
        }
        assert!(!all_set(&b, 5));
        set_bit(&mut b, 4);
        assert!(all_set(&b, 5));
    }

    #[test]
    fn word_boundaries_are_exact() {
        // 64 and 65 bits exercise the full-word and partial-word paths.
        for bits in [63, 64, 65, 128, 129] {
            let mut b = map(bits);
            for i in 0..bits {
                assert!(!all_set(&b, bits), "bits={bits}, missing {i}");
                set_bit(&mut b, i);
            }
            assert!(all_set(&b, bits), "bits={bits}");
            assert_eq!(ones(&b), bits);
        }
    }

    #[test]
    fn empty_map_is_vacuously_complete() {
        // An empty divisor means every quotient candidate qualifies.
        assert!(all_set(&map(0), 0));
    }

    #[test]
    fn stray_high_bits_cannot_fake_completeness() {
        let mut b = map(3);
        set_bit(&mut b, 0);
        set_bit(&mut b, 2);
        assert!(!all_set(&b, 3), "bit 1 is still zero");
    }

    #[test]
    fn heap_bytes_rounds_to_words() {
        assert_eq!(heap_bytes(0), 0);
        assert_eq!(heap_bytes(1), 8);
        assert_eq!(heap_bytes(64), 8);
        assert_eq!(heap_bytes(65), 16);
        assert_eq!(heap_bytes(400), 56);
    }

    #[test]
    fn bit_operations_are_counted() {
        // The zero test counts a `Bit` per word; a set and an OR count
        // none here, as their callers count them.
        reldiv_rel::counters::reset();
        let mut b = map(128);
        set_bit(&mut b, 5);
        or_words(&mut b, [1, 2]);
        all_set(&b, 128);
        assert_eq!(reldiv_rel::counters::snapshot().bitops, 2);
    }
}
