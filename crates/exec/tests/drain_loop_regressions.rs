//! Regression tests for the drain-loop bug sweep.
//!
//! Two bug classes, both invisible to happy-path tests:
//!
//! 1. Inner drain loops that never polled their [`CancelToken`]: a filter
//!    whose predicate rejects every tuple of a large input returns to its
//!    caller only at exhaustion, so a deadline set before the query never
//!    fires. Every operator with such a loop now polls per batch (or, in
//!    the tuple operators that remain, per checkpoint stride).
//!
//! 2. `collect` returned early without `close()` when a push or `next`
//!    failed mid-drain, leaking whatever the operator holds — pinned
//!    buffer pages, run files, pool reservations.

use std::time::{Duration, Instant};

use reldiv_exec::agg::HashCountAggregate;
use reldiv_exec::batch::agg::count_rows;
use reldiv_exec::batch::distinct::BatchDistinct;
use reldiv_exec::batch::filter::BatchFilter;
use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::{BatchToTuple, BoxedBatchOp};
use reldiv_exec::filter::BatchPredicate;
use reldiv_exec::hash_join::BatchHashJoin;
use reldiv_exec::merge_join::JoinMode;

use reldiv_exec::sort::{Sort, SortConfig, SortMode};
use reldiv_exec::{collect, collect_batches, BoxedOp, CancelToken, ExecError, Operator};
use reldiv_rel::schema::Field;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Schema, Tuple};
use reldiv_storage::manager::{StorageConfig, StorageManager};
use reldiv_storage::MemoryPool;

/// Well past the checkpoint stride (1024), so a strided checkpoint is
/// guaranteed to reach the clock several times.
const ROWS: i64 = 5000;

fn big_rel() -> Relation {
    let schema = Schema::new(vec![Field::int("x")]);
    Relation::from_tuples(schema, (0..ROWS).map(|i| ints(&[i])).collect()).unwrap()
}

fn expired() -> CancelToken {
    CancelToken::at(Instant::now() - Duration::from_millis(1))
}

#[test]
fn always_false_filter_cancels_on_the_batch_path() {
    // The original bug: a filter's rejection loop drained the whole scan
    // without ever consulting the token. The fix is structural: an
    // all-rejected batch flows through as an empty batch, and
    // collect_batches polls the token once per batch.
    let filter: BoxedBatchOp = Box::new(BatchFilter::new(
        Box::new(BatchMemScan::new(big_rel())),
        BatchPredicate::int_equals(0, -1),
    ));
    let err = collect_batches(filter, expired()).unwrap_err();
    assert!(err.is_cancelled(), "expected Cancelled, got {err:?}");
}

#[test]
fn aggregate_build_phases_cancel() {
    // The distinct's own token fires inside `open`: the drain polls none.
    let distinct: BoxedBatchOp = Box::new(
        BatchDistinct::new(
            Box::new(BatchMemScan::new(big_rel())),
            MemoryPool::unbounded(),
        )
        .with_cancel(expired()),
    );
    let err = collect_batches(distinct, CancelToken::none()).unwrap_err();
    assert!(err.is_cancelled());

    let agg: BoxedOp = Box::new(
        HashCountAggregate::new(
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(big_rel())))),
            vec![0],
            MemoryPool::unbounded(),
        )
        .unwrap()
        .with_cancel(expired()),
    );
    assert!(collect(agg).unwrap_err().is_cancelled());

    let scan = Box::new(BatchMemScan::new(big_rel()));
    assert!(count_rows(scan, false, expired())
        .unwrap_err()
        .is_cancelled());
}

#[test]
fn join_build_loop_cancels() {
    let join: BoxedBatchOp = Box::new(
        BatchHashJoin::new(
            Box::new(BatchMemScan::new(big_rel())),
            Box::new(BatchMemScan::new(big_rel())),
            vec![0],
            vec![0],
            JoinMode::LeftSemi,
            MemoryPool::unbounded(),
        )
        .unwrap()
        .with_cancel(expired()),
    );
    let err = collect_batches(join, CancelToken::none()).unwrap_err();
    assert!(err.is_cancelled());
}

#[test]
fn sort_run_generation_cancels() {
    let storage = StorageManager::shared(StorageConfig::paper());
    let sort: BoxedOp = Box::new(
        Sort::new(
            storage,
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(big_rel())))),
            vec![0],
            SortMode::Plain,
            SortConfig::default(),
        )
        .unwrap()
        .with_cancel(expired()),
    );
    assert!(collect(sort).unwrap_err().is_cancelled());
}

/// An operator that fixes a buffer page in `open`, fails mid-drain, and
/// releases the page only in `close` — the shape of every scan in the
/// engine. If `collect` skips `close` on the error path, the pin leaks.
struct PinningFaulty {
    schema: Schema,
    storage: reldiv_storage::StorageRef,
    frame: Option<reldiv_storage::buffer::FrameId>,
    emitted: usize,
}

impl Operator for PinningFaulty {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> reldiv_exec::Result<()> {
        let mut sm = self.storage.borrow_mut();
        let (_pid, frame) = sm.new_page(StorageManager::DATA_DISK)?;
        self.frame = Some(frame);
        Ok(())
    }

    fn next(&mut self) -> reldiv_exec::Result<Option<Tuple>> {
        if self.emitted >= 3 {
            return Err(ExecError::Protocol("injected mid-drain fault"));
        }
        self.emitted += 1;
        Ok(Some(ints(&[self.emitted as i64])))
    }

    fn close(&mut self) -> reldiv_exec::Result<()> {
        if let Some(frame) = self.frame.take() {
            self.storage
                .borrow_mut()
                .unfix(frame, reldiv_storage::buffer::Reuse::Immediate)?;
        }
        Ok(())
    }
}

#[test]
fn collect_closes_on_mid_drain_error_and_unpins_pages() {
    let storage = StorageManager::shared(StorageConfig::paper());
    let op: BoxedOp = Box::new(PinningFaulty {
        schema: Schema::new(vec![Field::int("x")]),
        storage: storage.clone(),
        frame: None,
        emitted: 0,
    });
    let err = collect(op).unwrap_err();
    assert!(matches!(err, ExecError::Protocol(_)));
    assert_eq!(
        storage.borrow().pinned_frames(),
        0,
        "close must run on the error exit and unfix everything"
    );
}
