//! Vectorized hash-based duplicate elimination.
//!
//! "Efficient duplicate elimination schemes based on hashing exist
//! \[Gerber1986a\], they require that the entire input must be kept in
//! main memory hash tables or in overflow files. Thus, duplicate
//! elimination based on hashing may be impractical for a very large
//! dividend relation." This operator is that scheme: the hash grouping
//! with no aggregate. Every kept row is charged to the pool (one record
//! width on top of its chain element), and past the pool the rows go to
//! overflow files — the cost the paper points at when motivating
//! hash-division's built-in duplicate insensitivity. Rows kept in memory
//! come out in the order of their first occurrence, and no tuple is ever
//! built.

pub use super::agg::BatchDistinct;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Relation, Schema};
    use reldiv_storage::manager::{StorageConfig, StorageManager};
    use reldiv_storage::MemoryPool;

    fn dup_rel() -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(
            schema,
            (0..5000).map(|i| ints(&[i % 40, (i % 40) * 2])).collect(),
        )
        .unwrap()
    }

    #[test]
    fn distinct_matches_tuple_path_byte_for_byte() {
        // The tuple-at-a-time reference: each row at its first occurrence.
        let mut seen = std::collections::HashSet::new();
        let tuple_out: Vec<_> = (dup_rel().into_tuples().into_iter())
            .filter(|t| seen.insert(t.clone()))
            .collect();
        let batch_out = collect_batches(
            Box::new(BatchDistinct::distinct(
                Box::new(BatchMemScan::new(dup_rel()).with_batch_size(64)),
                MemoryPool::unbounded(),
                StorageManager::shared(StorageConfig::large()),
            )),
            CancelToken::none(),
        )
        .unwrap();
        assert_eq!(tuple_out, batch_out.tuples());
        assert_eq!(batch_out.cardinality(), 40);
    }

    #[test]
    fn past_the_pool_the_rows_go_to_overflow_files() {
        let schema = Schema::new(vec![Field::int("a")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i % 5000])).collect())
            .unwrap();
        let storage = StorageManager::shared(StorageConfig::large());
        let d = BatchDistinct::distinct(
            Box::new(BatchMemScan::new(rel)),
            MemoryPool::new(2048),
            storage.clone(),
        );
        let out = collect_batches(Box::new(d), CancelToken::none()).unwrap();
        let mut got: Vec<i64> = (out.tuples().iter())
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..5000).collect::<Vec<_>>());
        let sm = storage.borrow();
        assert!(sm.buffer_stats().peak_bytes > 0, "it spilled");
        assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
    }
}
