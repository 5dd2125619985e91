//! The one table that groups rows by key: a [`KeyTable`] of groups and
//! each group's aggregate words at `words[g * stride..]` of one array. Its
//! [`Aggregate`] is none (the distinct), a count (the group count) or
//! hash-division's bit map, with or without a count. A group is charged
//! what its operator always charged, and each clear, set, zero test and OR
//! of a bit map counts the `Bit`s the paper prices ([`crate::bitmap`]).
//!
//! A batch probes through a [`crate::hash_table::Probe`], its key columns
//! typed once, and counts its `Comp`s and `Bit`s in a [`Tally`] that
//! reaches the counters once per batch and before anything that can fail
//! or open a span. A table that outgrows its pool spills through
//! [`crate::hybrid`].

use std::ops::Deref;

use reldiv_rel::column::ColumnVec;
use reldiv_rel::schema::Field;
use reldiv_rel::{Batch, Schema};
use reldiv_storage::MemoryPool;

use crate::bitmap;
use crate::hash_table::{Key, KeyTable, Tally};
use crate::Result;

/// What a group keeps beside its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Nothing: the distinct. A group is charged its key's record width.
    Distinct,
    /// The number of its rows: the group count. A group is charged its
    /// chain element alone.
    Count,
    /// Hash-division's candidate: a map of `bits` bits, cleared and tested
    /// a word at a time (one `Bit` per word, at least one, so even
    /// `CounterOnly`'s map of none), then, if `count`, the number of bits
    /// set. A group is charged
    /// its key's record width and its map's bytes.
    BitMap {
        /// Bits of a group's map.
        bits: usize,
        /// Whether a count word follows the map.
        count: bool,
    },
}

impl Aggregate {
    /// Bits of a group's map, and whether a count word follows it.
    fn shape(self) -> (usize, bool) {
        match self {
            Aggregate::Distinct => (0, false),
            Aggregate::Count => (0, true),
            Aggregate::BitMap { bits, count } => (bits, count),
        }
    }

    /// The bytes a group keyed by a row of `keys` is charged besides its
    /// chain element.
    pub fn group_bytes(self, keys: &Schema) -> usize {
        match self {
            Aggregate::Distinct => keys.record_width(),
            Aggregate::Count => 0,
            Aggregate::BitMap { bits, .. } => keys.record_width() + bitmap::heap_bytes(bits),
        }
    }

    /// The `Int` columns a group's words are written as after its key:
    /// its map's words, then its count.
    pub fn word_fields(self) -> Vec<Field> {
        let (bits, count) = self.shape();
        let words = (0..bits.div_ceil(64)).map(|w| Field::int(format!("w{w}")));
        words.chain(count.then(|| Field::int("count"))).collect()
    }
}

/// Groups under a key table, whose lookups are the group table's, with
/// their aggregate words.
pub struct GroupTable {
    keyed: KeyTable,
    agg: Aggregate,
    /// Bits of a group's map; whether a count word follows it; its words.
    bits: usize,
    count: bool,
    map: usize,
    /// Group `g`'s map words, then its count: `words[g * stride..][..stride]`.
    words: Vec<u64>,
    stride: usize,
}

impl GroupTable {
    /// An empty table in `pool` of groups keyed by rows of `keys`, each
    /// keeping `agg`.
    pub fn new(pool: &MemoryPool, keys: &Schema, agg: Aggregate) -> Result<GroupTable> {
        let (bits, count) = agg.shape();
        let map = bits.div_ceil(64);
        Ok(GroupTable {
            keyed: KeyTable::new(pool, keys, agg.group_bytes(keys))?,
            agg,
            bits,
            count,
            map,
            words: Vec::new(),
            stride: map + usize::from(count),
        })
    }

    /// Adds group `key` under hash `h`: charges its bytes, counts its map's
    /// clear, absorbs `first`, charges its chain element, then copies the
    /// key in. A failure leaves the groups as they were, but not what was
    /// charged or counted.
    pub fn insert(&mut self, h: u64, key: impl Key, first: Option<u32>) -> Result<usize> {
        self.keyed.charge()?;
        let mut tally = Tally::default();
        if let Aggregate::BitMap { .. } = self.agg {
            tally.bits += self.map.max(1) as u64;
        }
        let g = self.len();
        self.words.resize((g + 1) * self.stride, 0);
        if let Some(d) = first {
            self.absorb(g, d, &mut tally);
        }
        if let Err(e) = self.keyed.link(h, key) {
            self.words.truncate(g * self.stride);
            return Err(e);
        }
        Ok(g)
    }

    /// The group `key` under hash `h`, compared with every chain element,
    /// added when there is none (`tally` flushed first).
    pub fn find_or_insert(&mut self, h: u64, key: impl Key, tally: &mut Tally) -> Result<usize> {
        match self.find((h, None), key, false, tally) {
            Some(g) => Ok(g),
            None => {
                tally.flush();
                self.insert(h, key, None)
            }
        }
    }

    /// Group `g`'s words: its map's, then its count.
    #[inline]
    pub fn words(&self, g: usize) -> &[u64] {
        &self.words[g * self.stride..][..self.stride]
    }

    /// Group `g`'s count.
    #[inline]
    pub fn count(&self, g: usize) -> u64 {
        self.words(g)[self.map]
    }

    /// Absorbs a row into group `g`: a count counts it; a bit map
    /// test-and-sets bit `d`, its divisor number (one `Bit`), and counts it
    /// if new. Returns whether it was.
    #[inline]
    pub fn absorb(&mut self, g: usize, d: u32, tally: &mut Tally) -> bool {
        let (map, count) = (self.map, self.count);
        let words = &mut self.words[g * self.stride..][..self.stride];
        tally.bits += u64::from(map != 0);
        let new = map == 0 || !bitmap::set_bit(&mut words[..map], d as usize);
        if count && new {
            words[map] += 1;
        }
        new
    }

    /// Whether group `g` holds all `divisor_count` divisor tuples: by its
    /// count where it keeps one, else by a word-at-a-time zero test.
    #[inline]
    pub fn complete(&self, g: usize, divisor_count: u32) -> bool {
        match self.count {
            true => self.count(g) == u64::from(divisor_count),
            false => bitmap::all_set(self.words(g), self.bits),
        }
    }

    /// Merges `from` — group `g`'s words as another table or a spill record
    /// holds them — into it: counts add, maps OR word at a time, a distinct
    /// group has nothing to merge.
    pub fn merge(&mut self, g: usize, from: impl IntoIterator<Item = u64>, tally: &mut Tally) {
        let words = &mut self.words[g * self.stride..][..self.stride];
        match self.agg {
            Aggregate::Distinct => {}
            _ if self.count => words[self.map] += from.into_iter().next().unwrap_or(0),
            _ => {
                tally.bits += words.len().max(1) as u64;
                bitmap::or_words(words, from);
            }
        }
    }

    /// Groups `groups` as rows of `layout`: the key columns, then one `Int`
    /// column per word.
    pub fn rows(&self, groups: &[usize], layout: Schema) -> Batch {
        let words = (0..self.stride).map(|w| {
            let column = groups
                .iter()
                .map(|&g| self.words[g * self.stride + w] as i64);
            ColumnVec::Int(column.collect())
        });
        self.keys().gather(groups).widen(layout, words)
    }

    /// Every group as rows of `layout`, in insertion order, the table's
    /// memory released.
    pub fn into_rows(self, layout: Schema) -> Batch {
        let (stride, words) = (self.stride, self.words);
        let columns = (0..stride).map(|w| {
            let column = words.iter().skip(w).step_by(stride).map(|&v| v as i64);
            ColumnVec::Int(column.collect())
        });
        self.keyed.into_keys().widen(layout, columns)
    }
}

impl Deref for GroupTable {
    type Target = KeyTable;

    #[inline]
    fn deref(&self) -> &KeyTable {
        &self.keyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_table::Probe;
    use reldiv_rel::counters::OpScope;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Tuple, Value};
    use reldiv_storage::memory::sizes;
    use std::ops::Range;

    /// Hash-division's candidates over 100 divisor tuples: a map, or
    /// (`CounterOnly`) a count.
    const STANDARD: Aggregate = Aggregate::BitMap {
        bits: 100,
        count: false,
    };
    const COUNTER_ONLY: Aggregate = Aggregate::BitMap {
        bits: 0,
        count: true,
    };

    fn key_batch(schema: Schema, rows: Vec<Tuple>) -> Batch {
        let mut batch = Batch::with_capacity(schema, rows.len());
        rows.iter().for_each(|t| batch.push_tuple(t));
        batch
    }

    /// Keys `range` of each layout: Int, `Str(8)`, two columns.
    fn layouts(range: Range<i64>) -> Vec<Batch> {
        let text = |q: i64| Tuple::new(vec![Value::Str(format!("s{q:06}"))]);
        vec![
            key_batch(
                Schema::new(vec![Field::int("q")]),
                range.clone().map(|q| ints(&[q])).collect(),
            ),
            key_batch(
                Schema::new(vec![Field::str("q", 8)]),
                range.clone().map(text).collect(),
            ),
            key_batch(
                Schema::new(vec![Field::int("q1"), Field::int("q2")]),
                range.map(|q| ints(&[q / 7, q % 7])).collect(),
            ),
        ]
    }

    /// A table in `pool` holding every row of `keys`.
    fn filled(pool: &MemoryPool, keys: &Batch, agg: Aggregate) -> GroupTable {
        let schema = keys.schema();
        let mut table = GroupTable::new(pool, schema, agg).unwrap();
        let cols: Vec<usize> = (0..schema.arity()).collect();
        let probe = Probe::new(keys, &cols);
        for (row, h) in keys.hash_rows(&cols).into_iter().enumerate() {
            table.insert(h, (&probe, row), None).unwrap();
        }
        table
    }

    #[test]
    fn footprint_is_the_per_entry_formula() {
        let n = 300;
        for keys in layouts(0..n) {
            let width = keys.schema().record_width();
            for (agg, payload) in [
                (STANDARD, width + bitmap::heap_bytes(100)),
                (COUNTER_ONLY, width),
                (Aggregate::Distinct, width),
                (Aggregate::Count, 0),
            ] {
                let pool = MemoryPool::unbounded();
                let table = filled(&pool, &keys, agg);
                // 16 buckets, doubled at 32, 64, 128 and 256 groups.
                let buckets = 256 * sizes::BUCKET;
                let per_group = sizes::CHAIN_ELEMENT + payload;
                let want = buckets + n as usize * per_group;
                assert_eq!(table.footprint(), want, "{:?} {agg:?}", keys.schema());
                assert_eq!(pool.used(), want);
            }
        }
    }

    #[test]
    fn batch_and_tuple_probes_find_and_count_alike() {
        // Half the probed keys are groups, half are not; every layout, both
        // the compare-all and the hash-equal probe.
        let tables = layouts(0..400).into_iter().map(|keys| {
            let table = filled(&MemoryPool::unbounded(), &keys, STANDARD);
            (table, keys.schema().arity())
        });
        for ((table, arity), probed) in tables.zip(layouts(200..600)) {
            let cols: Vec<usize> = (0..arity).collect();
            let hashes = probed.hash_rows(&cols);
            for hashed in [false, true] {
                let scope = OpScope::begin();
                let (probe, mut tally) = (Probe::new(&probed, &cols), Tally::default());
                let by_batch: Vec<Option<usize>> = (hashes.iter().enumerate())
                    .map(|(row, &h)| table.find((h, None), (&probe, row), hashed, &mut tally))
                    .collect();
                drop(tally);
                let batch_ops = scope.finish();
                let scope = OpScope::begin();
                let by_tuple: Vec<Option<usize>> = (hashes.iter().enumerate())
                    .map(|(row, &h)| {
                        let key = (&probed.tuple(row), &cols[..]);
                        table.find((h, None), key, hashed, &mut Tally::default())
                    })
                    .collect();
                assert_eq!(batch_ops, scope.finish(), "{arity} columns, {hashed}");
                assert_eq!(by_batch, by_tuple);
                let found: Vec<usize> = by_batch.iter().flatten().copied().collect();
                assert_eq!(found, (200..400).collect::<Vec<_>>());
                assert!(batch_ops.comparisons >= 400 - 200 * u64::from(hashed));
            }
        }
    }

    #[test]
    fn a_tally_adds_its_counts_once_when_flushed_or_dropped() {
        let scope = OpScope::begin();
        let mut tally = Tally::default();
        (tally.comps, tally.bits) = (3, 2);
        assert_eq!(scope.delta().comparisons, 0);
        tally.flush();
        tally.comps = 4;
        drop(tally);
        let ops = scope.finish();
        assert_eq!((ops.comparisons, ops.bitops), (7, 2));
    }

    #[test]
    fn a_failed_insert_changes_no_group_but_counts_the_clear() {
        let keys = &layouts(0..64)[0];
        let (cols, probe) = ([0], Probe::new(keys, &[0]));
        // Room for the buckets and two groups' bytes but one chain element:
        // the second group is charged, cleared and set, then refused.
        let group = 8 + bitmap::heap_bytes(130);
        let pool = MemoryPool::new(16 * sizes::BUCKET + 2 * group + sizes::CHAIN_ELEMENT);
        let standard = Aggregate::BitMap {
            bits: 130,
            count: false,
        };
        let mut table = GroupTable::new(&pool, keys.schema(), standard).unwrap();
        let h = keys.hash_rows(&cols);
        table.insert(h[0], (&probe, 0), Some(3)).unwrap();
        let scope = OpScope::begin();
        let err = table.insert(h[1], (&probe, 1), Some(5)).unwrap_err();
        assert!(err.is_memory_exhausted(), "{err}");
        // Three words cleared, one bit set.
        assert_eq!(scope.finish().bitops, 3 + 1);
        assert_eq!((table.len(), table.words.len()), (1, table.stride));
        let mut tally = Tally::default();
        let mut find = |row: usize| table.find((h[row], None), (&probe, row), false, &mut tally);
        assert_eq!((find(0), find(1)), (Some(0), None));
        // A refused charge counts nothing.
        let scope = OpScope::begin();
        assert!(table.insert(h[2], (&probe, 2), Some(5)).is_err());
        assert_eq!(scope.finish().bitops, 0);
    }

    #[test]
    fn groups_come_out_in_insertion_order() {
        for keys in layouts(0..500) {
            let table = filled(&MemoryPool::unbounded(), &keys, STANDARD);
            let words = (0..table.stride).map(|w| Field::int(format!("w{w}")));
            let fields = keys.schema().fields().iter().cloned();
            let layout = Schema::new(fields.chain(words).collect());
            let rows = table.rows(&(0..table.len()).collect::<Vec<_>>(), layout);
            let cols: Vec<usize> = (0..keys.schema().arity()).collect();
            let got = rows.project(&cols).unwrap().into_tuples();
            assert_eq!(got, keys.clone().into_tuples());
        }
    }

    #[test]
    fn early_out_test_and_set_drops_a_duplicate() {
        let early = Aggregate::BitMap {
            bits: 2,
            count: true,
        };
        let schema = Schema::new(vec![Field::int("q")]);
        let mut table = GroupTable::new(&MemoryPool::unbounded(), &schema, early).unwrap();
        let t = ints(&[7, 1]);
        let key = (&t, &[0][..]);
        let g = table.insert(t.hash_on(&[0]), key, Some(1)).unwrap();
        assert_eq!(table.count(g), 1);
        let mut tally = Tally::default();
        assert!(
            !table.absorb(g, 1, &mut tally),
            "the same divisor tuple again"
        );
        assert_eq!(table.count(g), 1);
        assert!(table.absorb(g, 0, &mut tally));
        assert_eq!(table.count(g), 2);
        assert!(table.complete(g, 2));
        assert_eq!(table.keys().tuple(g), ints(&[7]));
    }

    #[test]
    fn a_count_counts_rows_and_a_distinct_keeps_keys_alone() {
        let keys = &layouts(0..40)[2];
        let cols = [0, 1];
        let probe = Probe::new(keys, &cols);
        let hashes = keys.hash_rows(&cols);
        for (agg, tail) in [(Aggregate::Count, 1), (Aggregate::Distinct, 0)] {
            let mut table = GroupTable::new(&MemoryPool::unbounded(), keys.schema(), agg).unwrap();
            let scope = OpScope::begin();
            let mut tally = Tally::default();
            // Every key three times: found twice after its insert.
            for _ in 0..3 {
                for (row, &h) in hashes.iter().enumerate() {
                    match table.find((h, None), (&probe, row), true, &mut tally) {
                        Some(g) => _ = table.absorb(g, 0, &mut tally),
                        None => _ = table.insert(h, (&probe, row), Some(0)).unwrap(),
                    }
                }
            }
            drop(tally);
            assert_eq!(scope.finish().bitops, 0, "{agg:?}");
            let fields = keys.schema().fields().iter().cloned();
            let count = (tail == 1).then(|| Field::int("count"));
            let layout = Schema::new(fields.chain(count).collect());
            let rows = table.into_rows(layout).into_tuples();
            assert_eq!(rows.len(), 40);
            for (t, key) in rows.iter().zip(keys.clone().into_tuples()) {
                assert_eq!(t.values()[..2], key.values()[..]);
                if tail == 1 {
                    assert_eq!(t.value(2).as_int(), Some(3));
                }
            }
        }
    }
}
