//! Hash-division's quotient tables, flat: an `exec` [`KeyTable`] of groups
//! and each group's bit-map words or count at `words[g * stride..]` of one
//! array. A group is charged its key's record width plus its map's bytes,
//! and each clear, set, zero test and OR counts the `Bit`s a [`Bitmap`]'s.
//!
//! A batch probes through a [`Probe`], its key columns typed once, and
//! counts its `Comp`s and `Bit`s in a [`Tally`] that reaches the counters
//! once per batch and before anything that can fail or open a span.

use std::ops::{Deref, Range};

use reldiv_exec::hash_table::KeyTable;
pub(crate) use reldiv_exec::hash_table::{Key, Probe, Tally};
use reldiv_rel::column::ColumnVec;
use reldiv_rel::{Batch, Schema};
use reldiv_storage::MemoryPool;

use crate::bitmap::{self, Bitmap};
use crate::hash_division::HashDivisionMode;
use crate::Result;

/// Groups under a key table, whose lookups are the group table's, with
/// their words.
pub(crate) struct GroupTable {
    keyed: KeyTable,
    /// Bits of a group's map (none, `CounterOnly`'s, cleared and tested as
    /// `Bitmap::new(0)` is); whether a count word follows it; its words.
    bits: usize,
    count: bool,
    map: usize,
    /// Group `g`'s map words, then its count: `words[g * stride..][..stride]`.
    words: Vec<u64>,
    stride: usize,
}

impl GroupTable {
    /// An empty table in `pool` of `mode`'s candidates over `divisor_count`
    /// divisor tuples, keyed by rows of `keys`.
    pub(crate) fn new(
        pool: &MemoryPool,
        keys: &Schema,
        mode: HashDivisionMode,
        divisor_count: u32,
    ) -> Result<GroupTable> {
        let bits = match mode {
            HashDivisionMode::CounterOnly => 0,
            _ => divisor_count as usize,
        };
        let count = mode != HashDivisionMode::Standard;
        let map = bits.div_ceil(64);
        let group_bytes = keys.record_width() + Bitmap::heap_bytes(bits);
        Ok(GroupTable {
            keyed: KeyTable::new(pool, keys, group_bytes)?,
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
    pub(crate) fn insert(&mut self, h: u64, key: impl Key, first: Option<u32>) -> Result<usize> {
        self.keyed.charge()?;
        let mut tally = Tally::default();
        tally.bits += self.bits.div_ceil(64).max(1) as u64;
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
    pub(crate) fn find_or_insert(
        &mut self,
        h: u64,
        key: impl Key,
        tally: &mut Tally,
    ) -> Result<usize> {
        match self.find((h, None), key, false, tally) {
            Some(g) => Ok(g),
            None => {
                tally.flush();
                self.insert(h, key, None)
            }
        }
    }

    /// Group `g`'s words: its map's, then its count.
    pub(crate) fn words(&self, g: usize) -> &[u64] {
        &self.words[g * self.stride..][..self.stride]
    }

    /// Group `g`'s count.
    pub(crate) fn count(&self, g: usize) -> u64 {
        self.words(g)[self.map]
    }

    /// Absorbs a tuple of divisor number `d` into group `g`: test-and-sets
    /// its bit (one `Bit`) and counts it if new. Returns whether it was.
    #[inline]
    pub(crate) fn absorb(&mut self, g: usize, d: u32, tally: &mut Tally) -> bool {
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
    pub(crate) fn complete(&self, g: usize, divisor_count: u32) -> bool {
        match self.count {
            true => self.count(g) == u64::from(divisor_count),
            false => bitmap::all_set(self.words(g), self.bits),
        }
    }

    /// Merges `from` — group `g`'s words as another table or a spill record
    /// holds them — into it: counts add, maps OR word at a time.
    pub(crate) fn merge(
        &mut self,
        g: usize,
        from: impl IntoIterator<Item = u64>,
        tally: &mut Tally,
    ) {
        let words = &mut self.words[g * self.stride..][..self.stride];
        match self.count {
            true => words[self.map] += from.into_iter().next().unwrap_or(0),
            false => {
                tally.bits += words.len().max(1) as u64;
                bitmap::or_words(words, from);
            }
        }
    }

    /// Groups `range` as rows of `layout`: the key columns, then one `Int`
    /// column per word.
    pub(crate) fn rows(&self, range: Range<usize>, layout: Schema) -> Batch {
        let rows: Vec<usize> = range.clone().collect();
        let words = (0..self.stride).map(|w| {
            let column = range
                .clone()
                .map(|g| self.words[g * self.stride + w] as i64);
            ColumnVec::Int(column.collect())
        });
        self.keys().gather(&rows).widen(layout, words)
    }
}

impl Deref for GroupTable {
    type Target = KeyTable;

    fn deref(&self) -> &KeyTable {
        &self.keyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::counters::OpScope;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Tuple, Value};
    use reldiv_storage::memory::sizes;

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
    fn filled(pool: &MemoryPool, keys: &Batch, mode: HashDivisionMode) -> GroupTable {
        let schema = keys.schema();
        let mut table = GroupTable::new(pool, schema, mode, 100).unwrap();
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
        let (standard, counter) = (HashDivisionMode::Standard, HashDivisionMode::CounterOnly);
        for keys in layouts(0..n) {
            for (mode, map) in [(standard, Bitmap::heap_bytes(100)), (counter, 0)] {
                let pool = MemoryPool::unbounded();
                let table = filled(&pool, &keys, mode);
                // 16 buckets, doubled at 32, 64, 128 and 256 groups.
                let buckets = 256 * sizes::BUCKET;
                let per_group = sizes::CHAIN_ELEMENT + keys.schema().record_width() + map;
                let want = buckets + n as usize * per_group;
                assert_eq!(table.footprint(), want, "{:?} {mode:?}", keys.schema());
                assert_eq!(pool.used(), want);
            }
        }
    }

    #[test]
    fn batch_and_tuple_probes_find_and_count_alike() {
        // Half the probed keys are groups, half are not; every layout, both
        // the compare-all and the hash-equal probe.
        let tables = layouts(0..400).into_iter().map(|keys| {
            let table = filled(&MemoryPool::unbounded(), &keys, HashDivisionMode::Standard);
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
        let group = 8 + Bitmap::heap_bytes(130);
        let pool = MemoryPool::new(16 * sizes::BUCKET + 2 * group + sizes::CHAIN_ELEMENT);
        let standard = HashDivisionMode::Standard;
        let mut table = GroupTable::new(&pool, keys.schema(), standard, 130).unwrap();
        let h = keys.hash_rows(&cols);
        table.insert(h[0], (&probe, 0), Some(3)).unwrap();
        let scope = OpScope::begin();
        let err = table.insert(h[1], (&probe, 1), Some(5)).unwrap_err();
        assert!(err.is_memory_exhausted(), "{err}");
        // Three words cleared, one bit set: as `Bitmap::new` and `set`.
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
            let table = filled(&MemoryPool::unbounded(), &keys, HashDivisionMode::Standard);
            let words = (0..table.stride).map(|w| Field::int(format!("w{w}")));
            let fields = keys.schema().fields().iter().cloned();
            let layout = Schema::new(fields.chain(words).collect());
            let rows = table.rows(0..table.len(), layout);
            let cols: Vec<usize> = (0..keys.schema().arity()).collect();
            let got = rows.project(&cols).unwrap().into_tuples();
            assert_eq!(got, keys.clone().into_tuples());
        }
    }

    #[test]
    fn early_out_test_and_set_drops_a_duplicate() {
        let early = HashDivisionMode::EarlyOut;
        let schema = Schema::new(vec![Field::int("q")]);
        let mut table = GroupTable::new(&MemoryPool::unbounded(), &schema, early, 2).unwrap();
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
}
