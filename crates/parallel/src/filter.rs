//! Bit-vector filtering (Section 6, after Babb 1979).
//!
//! "The bit vector can be used to avoid shipping tuples for which no
//! divisor record exists ... the selection of tuples is only a heuristic
//! \[false positives pass\]. Nevertheless, bit vector filters may reduce
//! significantly the network cost for the dividend relation, which is the
//! larger of the division operands."

use reldiv_rel::Columns;

/// A bit-vector filter over divisor-attribute hash values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVectorFilter {
    words: Vec<u64>,
    bits: usize,
}

impl BitVectorFilter {
    /// Creates an empty filter of `bits` bits (rounded up to a word).
    pub fn new(bits: usize) -> Self {
        let bits = bits.max(64);
        BitVectorFilter {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Number of bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// A `bits`-bit filter over `rows`, each hashed on `keys` — how the
    /// sending site of a placement builds one over a divisor fragment.
    pub fn over(bits: usize, rows: &Columns, keys: &[usize]) -> Self {
        let mut filter = BitVectorFilter::new(bits);
        for batch in rows.batches() {
            batch
                .hash_rows(keys)
                .into_iter()
                .for_each(|h| filter.insert_hash(h));
        }
        filter
    }

    /// Inserts a key by its hash — `Batch::hash_rows`' value for a row,
    /// or the bit-identical `Tuple::hash_on` one. A divisor is inserted
    /// hashed on all its columns, the dividend columns the filter later
    /// tests.
    pub fn insert_hash(&mut self, hash: u64) {
        let h = hash as usize % self.bits;
        self.words[h / 64] |= 1 << (h % 64);
    }

    /// Tests a dividend row by the hash of its divisor-attribute columns.
    /// `false` means *definitely* no matching divisor tuple (safe to
    /// drop); `true` may be a false positive.
    pub fn may_match_hash(&self, hash: u64) -> bool {
        let h = hash as usize % self.bits;
        self.words[h / 64] & (1 << (h % 64)) != 0
    }

    /// Fraction of set bits (the false-positive rate for uniformly hashed
    /// non-members).
    pub fn fill_ratio(&self) -> f64 {
        let ones: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        ones as f64 / self.bits as f64
    }

    /// The backing words, for wire serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a filter from its wire parts. `None` if the word count
    /// does not match the bit count (hostile or corrupt input) or the bit
    /// count is below the one-word minimum.
    pub fn from_parts(bits: usize, words: Vec<u64>) -> Option<Self> {
        if bits < 64 || words.len() != bits.div_ceil(64) {
            return None;
        }
        Some(BitVectorFilter { words, bits })
    }

    /// ORs another filter of the same geometry into this one — how a
    /// coordinator merges the filters that each divisor-owning node built
    /// over its local fragment. `false` (no-op) on a size mismatch.
    #[must_use]
    pub fn union(&mut self, other: &BitVectorFilter) -> bool {
        if self.bits != other.bits {
            return false;
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::tuple::ints;

    /// Inserts a divisor tuple, hashed on all its columns.
    fn insert(f: &mut BitVectorFilter, divisor: &[i64]) {
        f.insert_hash(ints(divisor).hash_on(&(0..divisor.len()).collect::<Vec<_>>()));
    }

    /// Tests a dividend tuple on its divisor-attribute columns.
    fn may_match(f: &BitVectorFilter, dividend: &[i64], keys: &[usize]) -> bool {
        f.may_match_hash(ints(dividend).hash_on(keys))
    }

    #[test]
    fn members_always_pass() {
        let mut f = BitVectorFilter::new(256);
        for d in 0..50 {
            insert(&mut f, &[d]);
        }
        for d in 0..50 {
            // Dividend tuple (q, d): divisor key is column 1.
            assert!(may_match(&f, &[999, d], &[1]), "member {d} must pass");
        }
    }

    #[test]
    fn most_non_members_are_dropped_when_filter_is_sparse() {
        let mut f = BitVectorFilter::new(4096);
        for d in 0..20 {
            insert(&mut f, &[d]);
        }
        let dropped = (1000..2000)
            .filter(|&d| !may_match(&f, &[0, d], &[1]))
            .count();
        assert!(
            dropped > 950,
            "sparse filter should drop most non-members: {dropped}"
        );
        assert!(f.fill_ratio() < 0.01);
    }

    #[test]
    fn false_positives_exist_for_tiny_filters() {
        // The paper's caveat: "a Transcript tuple for an agriculture
        // course will erroneously pass the bit vector filter if it maps to
        // the same bit as one of the database courses."
        let mut f = BitVectorFilter::new(64);
        for d in 0..60 {
            insert(&mut f, &[d]);
        }
        let passing = (10_000..11_000)
            .filter(|&d| may_match(&f, &[0, d], &[1]))
            .count();
        assert!(
            passing > 0,
            "a nearly full filter must admit false positives"
        );
    }

    #[test]
    fn minimum_size_is_one_word() {
        let f = BitVectorFilter::new(1);
        assert_eq!(f.bits(), 64);
    }

    #[test]
    fn wire_parts_round_trip() {
        let mut f = BitVectorFilter::new(1024);
        for d in 0..30 {
            insert(&mut f, &[d]);
        }
        let rebuilt = BitVectorFilter::from_parts(f.bits(), f.words().to_vec()).unwrap();
        assert_eq!(rebuilt, f);
        // Mismatched word counts are rejected, not mis-sized.
        assert!(BitVectorFilter::from_parts(1024, vec![0; 15]).is_none());
        assert!(BitVectorFilter::from_parts(0, vec![]).is_none());
    }

    #[test]
    fn union_merges_fragment_filters() {
        let mut a = BitVectorFilter::new(512);
        let mut b = BitVectorFilter::new(512);
        insert(&mut a, &[1]);
        insert(&mut b, &[2]);
        assert!(a.union(&b));
        for d in [1, 2] {
            assert!(may_match(&a, &[0, d], &[1]), "member {d} after union");
        }
        let other_geometry = BitVectorFilter::new(1024);
        assert!(!a.union(&other_geometry), "size mismatch refused");
    }
}
