//! The bucket-chained hash table shared by all hash-based operators.
//!
//! "In our implementation of hash-based algorithms, we use bucket chaining
//! as conflict resolution in hash tables. The hash algorithms use the file
//! system's memory manager to allocate space for hash tables, bit maps, and
//! chain elements." (Section 5.1.)
//!
//! The table accounts every bucket header and chain element against a
//! [`MemoryPool`]; a failed reservation surfaces as
//! [`StorageError::MemoryExhausted`](reldiv_storage::StorageError), the
//! signal for hash-table overflow handling. Lookups walk the whole bucket
//! chain and apply the caller's predicate to each element, so tuple
//! comparisons are counted exactly as the paper's model prices them ("the
//! tuple is compared with all tuples in this bucket, on the average two
//! tuples").

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

    /// Inserts an element, returning its stable entry index.
    ///
    /// Fails with `MemoryExhausted` (leaving the table unchanged) when the
    /// memory pool cannot cover the new chain element — the caller's cue to
    /// start overflow handling.
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

    /// Walks the bucket for `hash`, returning the index of the first
    /// element satisfying `pred`.
    ///
    /// The predicate is applied to *every* element of the chain until a
    /// match, mirroring the paper's "scan hash bucket for a matching
    /// tuple" — callers compare tuples inside `pred`, which counts the
    /// comparisons.
    pub fn find(&self, hash: u64, mut pred: impl FnMut(&T) -> bool) -> Option<u32> {
        self.find_from(self.head(hash), |_, item| pred(item))
    }

    /// [`ChainedTable::find`] with a packed-key prefilter: the predicate
    /// runs only on chain elements whose stored 64-bit hash equals
    /// `hash`. Because equal keys hash equally, this returns exactly the
    /// element `find` would for key-equality predicates while skipping
    /// the comparison on every hash-distinct collision in the chain —
    /// the probe the vectorized kernels use.
    pub fn find_hashed(&self, hash: u64, mut pred: impl FnMut(&T) -> bool) -> Option<u32> {
        let prefiltered = |stored, item: &T| stored == hash && pred(item);
        self.find_from(self.head(hash), prefiltered)
    }

    /// The first element of the chain of `hash`'s bucket. A batch can take
    /// the heads of all its rows in one pass of independent loads, and walk
    /// each chain with [`ChainedTable::find_from`] while the table does not
    /// change.
    #[inline]
    pub fn head(&self, hash: u64) -> u32 {
        self.buckets[self.bucket_of(hash)]
    }

    /// [`ChainedTable::find`] along the chain from `head`, whose predicate
    /// also gets each element's stored hash: `pred(stored, item)`.
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
        self.entries.len() as f64 / self.buckets.iter().filter(|&&b| b != NIL).count().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_storage::StorageError;

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
