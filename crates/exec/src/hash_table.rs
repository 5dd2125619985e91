//! The bucket-chained hash table, and the typed key table on it that every
//! hash-based operator stands on: "we use bucket chaining as conflict
//! resolution in hash tables. The hash algorithms use the file system's
//! memory manager to allocate space for hash tables, bit maps, and chain
//! elements." (Section 5.1.) A failed reservation is `MemoryExhausted`,
//! the signal for overflow handling.
//!
//! A [`KeyTable`] compares a key with every element of its chain, one
//! `Comp` each as the paper prices it, or — a batch probe — only with the
//! elements of equal stored hash: no other can be the key. A batch probes
//! through a [`Probe`], its key columns typed once, counting in a [`Tally`].
//! A [`crate::groups::GroupTable`] keeps an aggregate beside each key.

use reldiv_rel::column::ColumnVec;
use reldiv_rel::{counters, Batch, Schema, Tuple};
use reldiv_storage::memory::{sizes, Reservation};
use reldiv_storage::MemoryPool;

use crate::Result;

/// Target average bucket-chain length before the directory doubles.
///
/// The paper's analytical model assumes an average hash-bucket size
/// (`hbs`) of 2.
pub const TARGET_CHAIN_LEN: usize = 2;

const NIL: u32 = u32::MAX;

struct Entry<T> {
    hash: u64,
    next: u32,
    item: T,
}

/// A bucket-chained hash table with memory accounting.
pub struct ChainedTable<T> {
    buckets: Vec<u32>,
    entries: Vec<Entry<T>>,
    reservation: Reservation,
}

impl<T> ChainedTable<T> {
    /// Creates a table with `initial_buckets` buckets (rounded up to a
    /// power of two), reserving their memory from `pool`.
    pub fn new(pool: &MemoryPool, initial_buckets: usize) -> Result<Self> {
        let n = initial_buckets.max(4).next_power_of_two();
        let reservation = pool.reserve(n * sizes::BUCKET)?;
        Ok(ChainedTable {
            buckets: vec![NIL; n],
            entries: Vec::new(),
            reservation,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bytes of accounted memory (buckets + chain elements).
    pub fn accounted_bytes(&self) -> usize {
        self.reservation.bytes()
    }

    fn bucket_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.buckets.len() - 1)
    }

    /// Inserts an element, returning its stable entry index; fails with
    /// `MemoryExhausted`, the table unchanged, when the pool cannot cover
    /// its chain element.
    pub fn insert(&mut self, hash: u64, item: T) -> Result<u32> {
        self.maybe_grow()?;
        self.reservation.grow(sizes::CHAIN_ELEMENT)?;
        let bucket = self.bucket_of(hash);
        let idx = self.entries.len() as u32;
        self.entries.push(Entry {
            hash,
            next: self.buckets[bucket],
            item,
        });
        self.buckets[bucket] = idx;
        Ok(idx)
    }

    /// Doubles the bucket directory when chains exceed the target length.
    fn maybe_grow(&mut self) -> Result<()> {
        if self.entries.len() < self.buckets.len() * TARGET_CHAIN_LEN {
            return Ok(());
        }
        let new_len = self.buckets.len() * 2;
        self.reservation
            .grow((new_len - self.buckets.len()) * sizes::BUCKET)?;
        self.buckets = vec![NIL; new_len];
        for (i, e) in self.entries.iter_mut().enumerate() {
            let bucket = (e.hash as usize) & (new_len - 1);
            e.next = self.buckets[bucket];
            self.buckets[bucket] = i as u32;
        }
        Ok(())
    }

    /// The first element of the chain of `hash`'s bucket, to walk with
    /// [`ChainedTable::find_from`] while the table does not change.
    #[inline]
    pub fn head(&self, hash: u64) -> u32 {
        self.buckets[self.bucket_of(hash)]
    }

    /// The element after `idx` on its chain.
    pub fn next(&self, idx: u32) -> u32 {
        self.entries[idx as usize].next
    }

    /// The stored hash of the element at `idx`.
    pub fn hash_of(&self, idx: u32) -> u64 {
        self.entries[idx as usize].hash
    }

    /// The first element from `head` on along its chain satisfying `pred`,
    /// applied to each element's stored hash and item in turn.
    #[inline]
    pub fn find_from(&self, mut cur: u32, mut pred: impl FnMut(u64, &T) -> bool) -> Option<u32> {
        while cur != NIL {
            let e = &self.entries[cur as usize];
            if pred(e.hash, &e.item) {
                return Some(cur);
            }
            cur = e.next;
        }
        None
    }
}

/// `Comp`s and `Bit`s counted in locals: [`Tally::flush`] adds them to the
/// counters, as does dropping the tally, so an error exit loses none.
#[derive(Default)]
pub struct Tally {
    /// Comparisons not yet counted.
    pub comps: u64,
    /// Bit-map operations not yet counted.
    pub bits: u64,
}

impl Tally {
    /// Adds the counts to the counters and zeroes them.
    pub fn flush(&mut self) {
        counters::count_comparisons(std::mem::take(&mut self.comps));
        counters::count_bitops(std::mem::take(&mut self.bits));
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One key column of a probe, typed.
#[derive(Clone, Copy)]
enum Col<'a> {
    Int(&'a [i64]),
    Str(&'a [String]),
}

/// A batch's key columns, typed once for every probe of its rows.
pub struct Probe<'a> {
    batch: &'a Batch,
    on: &'a [usize],
    cols: Vec<Col<'a>>,
}

impl<'a> Probe<'a> {
    /// The columns `on` of `batch`, in that order.
    pub fn new(batch: &'a Batch, on: &'a [usize]) -> Probe<'a> {
        let cols = on.iter().map(|&k| match batch.column(k) {
            ColumnVec::Int(v) => Col::Int(v),
            ColumnVec::Str(v) => Col::Str(v),
        });
        let cols = cols.collect();
        Probe { batch, on, cols }
    }
}

/// A key to find or add: row `.1` of a batch's [`Probe`], or a tuple on the
/// columns listed. Each kind compares at its own speed; no key is
/// dispatched per compare.
pub trait Key: Copy {
    /// Whether entry `g` of `table` is this key. One `Comp`.
    fn is(self, table: &KeyTable, g: usize, tally: &mut Tally) -> bool;
    /// Appends this key to a table's key columns.
    fn push(self, keys: &mut Batch);
}

impl Key for (&Probe<'_>, usize) {
    #[inline]
    fn is(self, table: &KeyTable, g: usize, tally: &mut Tally) -> bool {
        let (probe, row) = self;
        tally.comps += 1;
        let mut pairs = probe.cols.iter().zip(table.keys.columns());
        pairs.all(|pair| match pair {
            (Col::Int(p), ColumnVec::Int(k)) => p[row] == k[g],
            (Col::Str(p), ColumnVec::Str(k)) => p[row] == k[g],
            _ => false,
        })
    }

    #[inline]
    fn push(self, keys: &mut Batch) {
        keys.push_projected(self.0.batch, self.0.on, self.1);
    }
}

impl Key for (&Tuple, &[usize]) {
    fn is(self, table: &KeyTable, g: usize, _: &mut Tally) -> bool {
        table.keys.row_eq_tuple(&table.all, g, self.0, self.1)
    }

    fn push(self, keys: &mut Batch) {
        keys.push_tuple(&self.0.project(self.1));
    }
}

/// A key's hash and, if taken up front ([`KeyTable::chains`]), the head
/// of its chain.
pub type Chain = (u64, Option<u32>);

/// Keys under a [`ChainedTable`] of entry numbers, entry `g`'s key at row
/// `g` of one batch, each entry charged `entry_bytes` of payload besides
/// its chain element (a kept row's record width, or nothing).
pub struct KeyTable {
    table: ChainedTable<u32>,
    /// Row `g` is entry `g`'s key; `all` lists its columns.
    keys: Batch,
    all: Vec<usize>,
    entry_bytes: usize,
    payload: Reservation,
}

impl KeyTable {
    /// An empty table in `pool`, keyed by rows of `keys`.
    pub fn new(pool: &MemoryPool, keys: &Schema, entry_bytes: usize) -> Result<KeyTable> {
        Ok(KeyTable {
            table: ChainedTable::new(pool, 16)?,
            keys: Batch::with_capacity(keys.clone(), 0),
            all: (0..keys.arity()).collect(),
            entry_bytes,
            payload: pool.reserve(0)?,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table has no entry.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Accounted bytes: buckets, chain elements, payload.
    pub fn footprint(&self) -> usize {
        self.table.accounted_bytes() + self.payload.bytes()
    }

    /// The key columns, a row per entry.
    pub fn keys(&self) -> &Batch {
        &self.keys
    }

    /// The key columns, the table's memory released.
    pub fn into_keys(self) -> Batch {
        self.keys
    }

    /// The chains of `hashes`, their heads read in one pass of independent
    /// loads: valid until the next insert.
    pub fn chains(&self, hashes: &[u64]) -> Vec<Chain> {
        hashes
            .iter()
            .map(|&h| (h, Some(self.table.head(h))))
            .collect()
    }

    /// The first entry on `chain` that is `key`: compared with every
    /// element up to it (one `Comp` each) or — `hashed` — with those of
    /// equal hash.
    #[inline]
    pub fn find(
        &self,
        (h, head): Chain,
        key: impl Key,
        hashed: bool,
        t: &mut Tally,
    ) -> Option<usize> {
        let head = head.unwrap_or_else(|| self.table.head(h));
        let found = self.table.find_from(head, |stored, &g| match stored == h {
            true => key.is(self, g as usize, t),
            false => {
                t.comps += u64::from(!hashed);
                false
            }
        });
        found.map(|g| g as usize)
    }

    /// The hash entry `g` was linked under.
    pub fn hash(&self, g: usize) -> u64 {
        self.table.hash_of(g as u32)
    }

    /// The element after entry `g` on its chain: a [`KeyTable::find`]
    /// resumed from it finds the next entry that is the key.
    pub fn after(&self, g: usize) -> u32 {
        self.table.next(g as u32)
    }

    /// Charges one more entry's payload, ahead of [`KeyTable::link`].
    pub fn charge(&mut self) -> Result<()> {
        Ok(self.payload.grow(self.entry_bytes)?)
    }

    /// Links `key` under hash `h` as the next entry, charging its chain
    /// element, and copies the key in. A failure changes no entry.
    pub fn link(&mut self, h: u64, key: impl Key) -> Result<usize> {
        let g = self.len();
        self.table.insert(h, g as u32)?;
        key.push(&mut self.keys);
        Ok(g)
    }

    /// [`KeyTable::charge`], then [`KeyTable::link`]: a failure changes no
    /// entry, but keeps what was charged.
    pub fn insert(&mut self, h: u64, key: impl Key) -> Result<usize> {
        self.charge()?;
        self.link(h, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_storage::StorageError;

    impl<T> ChainedTable<T> {
        /// The index of the first element on `hash`'s chain satisfying `pred`,
        /// applied to every element up to it (the paper's "scan hash bucket
        /// for a matching tuple").
        pub fn find(&self, hash: u64, mut pred: impl FnMut(&T) -> bool) -> Option<u32> {
            self.find_from(self.head(hash), |_, item| pred(item))
        }

        /// The element at a previously returned entry index.
        pub fn get(&self, idx: u32) -> &T {
            &self.entries[idx as usize].item
        }

        /// Mutable access to the element at an entry index.
        pub fn get_mut(&mut self, idx: u32) -> &mut T {
            &mut self.entries[idx as usize].item
        }

        /// Consumes the table, yielding elements in insertion order and
        /// releasing the memory reservation.
        pub fn into_items(self) -> impl Iterator<Item = T> {
            self.entries.into_iter().map(|e| e.item)
        }

        /// Average chain length (the paper's `hbs`).
        pub fn average_chain_len(&self) -> f64 {
            if self.buckets.is_empty() {
                return 0.0;
            }
            self.entries.len() as f64
                / self.buckets.iter().filter(|&&b| b != NIL).count().max(1) as f64
        }
    }

    fn pool() -> MemoryPool {
        MemoryPool::new(1 << 20)
    }

    #[test]
    fn insert_and_find() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        let a = t.insert(10, "alpha").unwrap();
        let _b = t.insert(11, "beta").unwrap();
        assert_eq!(t.find(10, |s| *s == "alpha"), Some(a));
        assert_eq!(t.find(10, |s| *s == "beta"), None, "different bucket");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn collisions_chain_within_a_bucket() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        // Same bucket (hash & 3 identical), different items.
        t.insert(4, 1).unwrap();
        t.insert(8, 2).unwrap();
        t.insert(12, 3).unwrap();
        let mut seen = Vec::new();
        t.find(4, |&v| {
            seen.push(v);
            false
        });
        // The chain is walked newest-first and completely.
        assert_eq!(seen.len(), 3);
        assert!(t.find(4, |&v| v == 1).is_some());
    }

    #[test]
    fn growth_keeps_all_elements_findable() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        let hashes: Vec<u64> = (0..1000).map(|i| i * 2654435761 % 100003).collect();
        for (i, &h) in hashes.iter().enumerate() {
            t.insert(h, i).unwrap();
        }
        assert!(t.bucket_count() >= 1000 / TARGET_CHAIN_LEN);
        for (i, &h) in hashes.iter().enumerate() {
            assert!(
                t.find(h, |&v| v == i).is_some(),
                "element {i} lost in resize"
            );
        }
    }

    #[test]
    fn average_chain_len_stays_near_target() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        for i in 0..10_000u64 {
            // A multiplicative hash spreads keys well.
            t.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i).unwrap();
        }
        assert!(
            t.average_chain_len() <= 2.5,
            "hbs ~ 2, got {}",
            t.average_chain_len()
        );
    }

    #[test]
    fn memory_exhaustion_fails_cleanly() {
        let small = MemoryPool::new(sizes::BUCKET * 8 + sizes::CHAIN_ELEMENT * 3);
        let mut t = ChainedTable::new(&small, 8).unwrap();
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        t.insert(3, 3).unwrap();
        let err = t.insert(4, 4).unwrap_err();
        assert!(matches!(
            err,
            crate::ExecError::Storage(StorageError::MemoryExhausted { .. })
        ));
        // Table still consistent after the failed insert.
        assert_eq!(t.len(), 3);
        assert!(t.find(2, |&v| v == 2).is_some());
    }

    #[test]
    fn dropping_the_table_releases_memory() {
        let p = pool();
        {
            let mut t = ChainedTable::new(&p, 4).unwrap();
            for i in 0..100 {
                t.insert(i, i).unwrap();
            }
            assert!(p.used() > 0);
        }
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        let idx = t.insert(5, vec![0u8; 4]).unwrap();
        t.get_mut(idx)[2] = 9;
        assert_eq!(t.get(idx)[2], 9);
    }

    #[test]
    fn into_items_preserves_insertion_order() {
        let mut t = ChainedTable::new(&pool(), 4).unwrap();
        for i in 0..10 {
            t.insert(i * 7, i).unwrap();
        }
        let items: Vec<u64> = t.into_items().collect();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }
}
