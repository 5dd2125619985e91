//! Hash-division's tables, flat: a [`ChainedTable`] of group numbers, group
//! `g`'s key at row `g` of one [`Batch`] (as `BatchDistinct` keeps rows),
//! and its bit-map words or count at `words[g * stride..]` of one array.
//! The divisor table keeps no words: a divisor number *is* its group
//! number. A group is charged its key's record width plus its map's bytes,
//! and each clear, set, zero test and OR counts the `Bit`s a [`Bitmap`]'s.

use std::ops::Range;

use reldiv_exec::hash_table::ChainedTable;
use reldiv_rel::column::ColumnVec;
use reldiv_rel::schema::Field;
use reldiv_rel::{counters, Batch, Schema, Tuple, Value};
use reldiv_storage::memory::Reservation;
use reldiv_storage::MemoryPool;

use crate::bitmap::{self, Bitmap};
use crate::hash_division::HashDivisionMode;
use crate::Result;

/// A group's key as a probe holds it: a batch row or a tuple, on the
/// columns listed.
#[derive(Clone, Copy)]
pub(crate) enum Key<'a> {
    Row(&'a Batch, &'a [usize], usize),
    Tuple(&'a Tuple, &'a [usize]),
}

/// Groups under a bucket-chained hash table, as columns, accounted in a
/// pool.
pub(crate) struct GroupTable {
    table: ChainedTable<u32>,
    /// Bits of a group's map: `None` for none (the divisor table), `Some(0)`
    /// for an empty one, cleared and tested as `Bitmap::new(0)` is; whether
    /// a count word follows it; its words.
    bits: Option<usize>,
    count: bool,
    map: usize,
    /// Row `g` is group `g`'s key: typed at creation, or by the first key.
    keys: Batch,
    cols: Vec<usize>,
    /// Group `g`'s map words, then its count: `words[g * stride..][..stride]`.
    words: Vec<u64>,
    stride: usize,
    /// Per group: its key's record width and its map's bytes.
    group_bytes: usize,
    payload: Reservation,
}

impl GroupTable {
    /// An empty table in `pool` of `mode`'s candidates over `divisor_count`
    /// divisor tuples (no mode: of divisor tuples), with `key_width`-byte
    /// keys, rows of `keys` or typed after the first key.
    pub(crate) fn new(
        pool: &MemoryPool,
        key_width: usize,
        keys: Option<&Schema>,
        mode: Option<HashDivisionMode>,
        divisor_count: u32,
    ) -> Result<GroupTable> {
        let bits = match mode {
            Some(HashDivisionMode::CounterOnly) => Some(0),
            _ => mode.map(|_| divisor_count as usize),
        };
        let count = mode.is_some_and(|mode| mode != HashDivisionMode::Standard);
        let map = bits.unwrap_or(0).div_ceil(64);
        let keys = keys.cloned().unwrap_or_else(|| Schema::new(Vec::new()));
        Ok(GroupTable {
            table: ChainedTable::new(pool, 16)?,
            bits,
            count,
            map,
            cols: (0..keys.arity()).collect(),
            keys: Batch::with_capacity(keys, 0),
            words: Vec::new(),
            stride: map + usize::from(count),
            group_bytes: key_width + Bitmap::heap_bytes(bits.unwrap_or(0)),
            payload: pool.reserve(0)?,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Accounted bytes: buckets, chain elements, keys, maps.
    pub(crate) fn footprint(&self) -> usize {
        self.table.accounted_bytes() + self.payload.bytes()
    }

    /// The key columns, a row per group.
    pub(crate) fn keys(&self) -> &Batch {
        &self.keys
    }

    /// Whether group `g` is `key`. One `Comp`.
    #[inline]
    pub(crate) fn is(&self, g: usize, key: Key) -> bool {
        match key {
            Key::Row(batch, on, row) => batch.rows_eq(on, row, &self.keys, &self.cols, g),
            Key::Tuple(t, on) => self.keys.row_eq_tuple(&self.cols, g, t, on),
        }
    }

    /// The group of hash `h` that is `key`, compared with every element of
    /// the chain up to it (one `Comp` each, as the cost model counts) or —
    /// `hashed` — with those of equal hash. An element of another hash
    /// cannot be `key`: the stored hash decides that compare.
    pub(crate) fn find(&self, h: u64, key: Key, hashed: bool) -> Option<usize> {
        let found = self.table.find_by(h, |stored, &g| match stored == h {
            true => self.is(g as usize, key),
            false => {
                if !hashed {
                    counters::count_comparisons(1);
                }
                false
            }
        });
        found.map(|g| g as usize)
    }

    /// Adds group `key` under hash `h`: charges its bytes, counts its map's
    /// clear, absorbs `first`, then charges its chain element. A failure
    /// leaves the groups as they were, but not what was charged or counted.
    pub(crate) fn insert(&mut self, h: u64, key: Key, first: Option<u32>) -> Result<usize> {
        self.payload.grow(self.group_bytes)?;
        if let Some(bits) = self.bits {
            bitmap::count_clear(bits);
        }
        let g = self.len();
        self.words.resize((g + 1) * self.stride, 0);
        if let Some(d) = first {
            self.absorb(g, d);
        }
        if let Err(e) = self.table.insert(h, g as u32) {
            self.words.truncate(g * self.stride);
            return Err(e);
        }
        if self.cols.is_empty() && self.keys.is_empty() {
            self.type_keys(key);
        }
        match key {
            Key::Row(batch, on, row) => self.keys.push_projected(batch, on, row),
            Key::Tuple(t, on) => self.keys.push_tuple(&t.project(on)),
        }
        Ok(g)
    }

    /// Types the key columns after the first key's.
    fn type_keys(&mut self, key: Key) {
        let schema = match key {
            Key::Row(batch, on, _) => batch.schema().project(on).expect("key columns"),
            Key::Tuple(t, on) => Schema::new(
                on.iter()
                    .map(|&k| match t.value(k) {
                        Value::Int(_) => Field::int("key"),
                        Value::Str(_) => Field::str("key", 0),
                    })
                    .collect(),
            ),
        };
        self.cols = (0..schema.arity()).collect();
        self.keys = Batch::with_capacity(schema, 0);
    }

    /// Absorbs a tuple of divisor number `dno` (none: an empty divisor) into
    /// group `found`, or into a new group `key` of hash `h`. Returns the
    /// group, and whether the tuple was new to it.
    pub(crate) fn absorb_key(
        &mut self,
        (h, key): (u64, Key),
        found: Option<usize>,
        dno: Option<u32>,
    ) -> Result<(usize, bool)> {
        Ok(match (found, dno) {
            (None, _) => (self.insert(h, key, dno)?, true),
            (Some(g), Some(d)) => (g, self.absorb(g, d)),
            (Some(g), None) => (g, false),
        })
    }

    /// The group `key` under hash `h`, added when there is none.
    pub(crate) fn find_or_insert(&mut self, h: u64, key: Key) -> Result<usize> {
        match self.find(h, key, false) {
            Some(g) => Ok(g),
            None => self.insert(h, key, None),
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
    pub(crate) fn absorb(&mut self, g: usize, d: u32) -> bool {
        let (map, count) = (self.map, self.count);
        let words = &mut self.words[g * self.stride..][..self.stride];
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
            false => bitmap::all_set(self.words(g), self.bits.unwrap_or(0)),
        }
    }

    /// Merges `from` — group `g`'s words as another table or a spill record
    /// holds them — into it: counts add, maps OR word at a time.
    pub(crate) fn merge(&mut self, g: usize, from: impl IntoIterator<Item = u64>) {
        let words = &mut self.words[g * self.stride..][..self.stride];
        match self.count {
            true => words[self.map] += from.into_iter().next().unwrap_or(0),
            false => bitmap::or_words(words, from),
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
        self.keys.gather(&rows).widen(layout, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::counters::OpScope;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::memory::sizes;

    fn key_batch(schema: Schema, rows: Vec<Tuple>) -> Batch {
        let mut batch = Batch::with_capacity(schema, rows.len());
        rows.iter().for_each(|t| batch.push_tuple(t));
        batch
    }

    /// `n` distinct keys of each layout: Int, `Str(8)`, two columns.
    fn layouts(n: i64) -> Vec<Batch> {
        let text = |q: i64| Tuple::new(vec![Value::Str(format!("s{q:06}"))]);
        vec![
            key_batch(
                Schema::new(vec![Field::int("q")]),
                (0..n).map(|q| ints(&[q])).collect(),
            ),
            key_batch(
                Schema::new(vec![Field::str("q", 8)]),
                (0..n).map(text).collect(),
            ),
            key_batch(
                Schema::new(vec![Field::int("q1"), Field::int("q2")]),
                (0..n).map(|q| ints(&[q / 7, q % 7])).collect(),
            ),
        ]
    }

    /// A table in `pool` holding every row of `keys`, typed or not.
    fn filled(pool: &MemoryPool, keys: &Batch, mode: HashDivisionMode, typed: bool) -> GroupTable {
        let schema = keys.schema();
        let typed = typed.then_some(schema);
        let width = schema.record_width();
        let mut table = GroupTable::new(pool, width, typed, Some(mode), 100).unwrap();
        let cols: Vec<usize> = (0..schema.arity()).collect();
        for (row, h) in keys.hash_rows(&cols).into_iter().enumerate() {
            table.insert(h, Key::Row(keys, &cols, row), None).unwrap();
        }
        table
    }

    #[test]
    fn footprint_is_the_per_entry_formula() {
        let n = 300;
        let (standard, counter) = (HashDivisionMode::Standard, HashDivisionMode::CounterOnly);
        for keys in layouts(n) {
            for (mode, map) in [(standard, Bitmap::heap_bytes(100)), (counter, 0)] {
                let pool = MemoryPool::unbounded();
                let table = filled(&pool, &keys, mode, true);
                let buckets = table.table.bucket_count() * sizes::BUCKET;
                let per_group = sizes::CHAIN_ELEMENT + keys.schema().record_width() + map;
                let want = buckets + n as usize * per_group;
                assert_eq!(table.footprint(), want, "{:?} {mode:?}", keys.schema());
                assert_eq!(pool.used(), want);
            }
        }
    }

    #[test]
    fn a_failed_insert_changes_no_group_but_counts_the_clear() {
        let keys = &layouts(64)[0];
        let cols = [0];
        // Room for the buckets and two groups' bytes but one chain element:
        // the second group is charged, cleared and set, then refused.
        let group = 8 + Bitmap::heap_bytes(130);
        let pool = MemoryPool::new(16 * sizes::BUCKET + 2 * group + sizes::CHAIN_ELEMENT);
        let standard = Some(HashDivisionMode::Standard);
        let mut table = GroupTable::new(&pool, 8, None, standard, 130).unwrap();
        let h = keys.hash_rows(&cols);
        table
            .insert(h[0], Key::Row(keys, &cols, 0), Some(3))
            .unwrap();
        let scope = OpScope::begin();
        let err = table
            .insert(h[1], Key::Row(keys, &cols, 1), Some(5))
            .unwrap_err();
        assert!(err.is_memory_exhausted(), "{err}");
        // Three words cleared, one bit set: as `Bitmap::new` and `set`.
        assert_eq!(scope.finish().bitops, 3 + 1);
        assert_eq!((table.len(), table.words.len()), (1, table.stride));
        assert_eq!(table.find(h[0], Key::Row(keys, &cols, 0), false), Some(0));
        assert_eq!(table.find(h[1], Key::Row(keys, &cols, 1), false), None);
        // A refused charge counts nothing.
        let scope = OpScope::begin();
        assert!(table
            .insert(h[2], Key::Row(keys, &cols, 2), Some(5))
            .is_err());
        assert_eq!(scope.finish().bitops, 0);
    }

    #[test]
    fn groups_come_out_in_insertion_order() {
        for keys in layouts(500) {
            let table = filled(
                &MemoryPool::unbounded(),
                &keys,
                HashDivisionMode::Standard,
                false,
            );
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
        let early = Some(HashDivisionMode::EarlyOut);
        let mut table = GroupTable::new(&MemoryPool::unbounded(), 8, None, early, 2).unwrap();
        let t = ints(&[7, 1]);
        let key = Key::Tuple(&t, &[0]);
        let g = table.insert(t.hash_on(&[0]), key, Some(1)).unwrap();
        assert_eq!(table.count(g), 1);
        assert!(!table.absorb(g, 1), "the same divisor tuple again");
        assert_eq!(table.count(g), 1);
        assert!(table.absorb(g, 0));
        assert_eq!(table.count(g), 2);
        assert!(table.complete(g, 2));
        assert_eq!(table.keys().tuple(g), ints(&[7]));
    }
}
