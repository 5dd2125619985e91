//! The vectorized (batch-at-a-time) execution path.
//!
//! Every operator here processes [`Batch`]es of up to
//! [`DEFAULT_BATCH_SIZE`] rows instead of single tuples, paying one
//! virtual call, one cancellation poll, and one profile-span update per
//! batch instead of per tuple. The packed-key hash and compare kernels
//! ([`Batch::hash_rows`], [`Batch::row_eq_tuple`]) are bit-identical to
//! the tuple-at-a-time entry points, so hash-table layouts — and
//! therefore output orders — are those a tuple-at-a-time operator over the
//! same table would produce.
//!
//! Every division plan is built from these operators, and they are the
//! only implementations there are. Three tuple-at-a-time operators remain,
//! for the benchmark, which still names them: [`BatchToTuple`], which
//! bridges any batch operator into tuples (a source's tuple scan is one
//! over its batch scan); [`crate::sort::Sort`], a [`BatchToTuple`] over a
//! [`sort::BatchSort`] fed its tuple input a batch at a time; and
//! [`crate::agg::HashCountAggregate`], a [`BatchToTuple`] over
//! [`agg::BatchHashCountAggregate`] fed its tuple input a batch at a time. The sort's and the file scan's numbers
//! are pinned as the tuple operators they replaced recorded them.
//!
//! **Cancellation cadence.** A streaming batch operator carries no cancel
//! token; instead [`drain_batches`] polls the [`CancelToken`] once per
//! batch it receives. An operator that is working without producing rows
//! (a filter rejecting everything, say) returns `Some` of an *empty*
//! batch rather than looping internally, so the poll cadence is bounded
//! by the batch size even when the selectivity is zero. A **blocking**
//! operator — one whose `open` consumes a whole input: sort, group count,
//! scalar count, distinct, a join's build side — takes the query's token
//! (`with_cancel`) and polls it once per input batch.

pub mod agg;
pub mod distinct;
pub mod filter;
pub mod join;
pub mod profile;
pub mod project;
pub mod scan;
pub mod sort;

use reldiv_rel::{Batch, Relation, Schema, Tuple};

use crate::cancel::CancelToken;
use crate::op::Operator;
use crate::{ExecError, Result};

/// Rows per batch: the batch size of a stored [`reldiv_rel::Columns`]
/// relation, so a scan of one hands its batches out as they are.
pub const DEFAULT_BATCH_SIZE: usize = reldiv_rel::column::BATCH_ROWS;

/// Selects nothing: every plan runs on the batch engine. Kept for the
/// benchmark adapter, which still names both values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Formerly the tuple-at-a-time engine.
    Tuple,
    /// The batch engine.
    Batch,
}

/// A relational operator producing columnar batches.
///
/// The protocol is the batch form of [`Operator`]: `open` prepares
/// the operator, `next_batch` produces the next chunk of rows (possibly
/// empty — see [`collect_batches`]), and `close` releases resources.
pub trait BatchOperator {
    /// The schema of rows this operator produces.
    fn schema(&self) -> &Schema;

    /// Prepares the operator (and, recursively, its inputs).
    fn open(&mut self) -> Result<()>;

    /// Produces the next batch, or `None` when exhausted.
    ///
    /// An operator may return `Some` of an **empty** batch to report "no
    /// rows yet, still working" — this is how inner drain loops (filters
    /// with zero selectivity, probe stretches without matches) bound the
    /// work between two cancellation polls without emitting rows.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// Releases resources (and closes inputs). Idempotent.
    fn close(&mut self) -> Result<()>;
}

/// A boxed batch operator — the edge type of batch plan trees.
pub type BoxedBatchOp = Box<dyn BatchOperator>;

/// Runs a batch operator to completion, handing every batch to `sink`:
/// open, drain, close; polls `cancel` once per batch (the batch path's
/// cancellation checkpoint).
///
/// `close` runs on **every** exit, including mid-drain errors, so
/// operator resources (run files, spill clusters, pinned pages) are never
/// leaked; the drain's error takes precedence over any close error.
pub fn drain_batches(
    mut op: BoxedBatchOp,
    cancel: CancelToken,
    mut sink: impl FnMut(Batch) -> Result<()>,
) -> Result<()> {
    let mut drain = || -> Result<()> {
        op.open()?;
        while let Some(batch) = op.next_batch()? {
            cancel.check()?;
            sink(batch)?;
        }
        Ok(())
    };
    let result = drain();
    let closed = op.close();
    result?;
    closed
}

/// Opens `op`, gathers all its rows into one batch and closes it: a
/// (small) side of a merging scan, held whole.
pub fn hold_all(op: &mut BoxedBatchOp) -> Result<Batch> {
    op.open()?;
    let mut all = Batch::with_capacity(op.schema().clone(), 0);
    while let Some(batch) = op.next_batch()? {
        (0..batch.len()).for_each(|row| all.push_row_from(&batch, row));
    }
    op.close()?;
    Ok(all)
}

/// The rows of `batch` at `selection`: the batch itself if that is all.
pub(crate) fn select(batch: Batch, selection: &[usize]) -> Batch {
    if selection.len() == batch.len() {
        batch
    } else {
        batch.gather(selection)
    }
}

/// [`drain_batches`] into a relation of tuples.
pub fn collect_batches(op: BoxedBatchOp, cancel: CancelToken) -> Result<Relation> {
    let mut out = Relation::empty(op.schema().clone());
    drain_batches(op, cancel, |batch| {
        for t in batch.into_tuples() {
            out.push(t).map_err(ExecError::from)?;
        }
        Ok(())
    })?;
    Ok(out)
}

/// The record width of `schema`, for operators that hold rows back to
/// back: zero-width records cannot be told apart in a byte run.
pub(crate) fn record_width(schema: &Schema) -> Result<usize> {
    match schema.record_width() {
        0 => Err(ExecError::Plan(
            "the batch engine does not take zero-width records".into(),
        )),
        width => Ok(width),
    }
}

/// Bridges a batch operator into a tuple plan by buffering one batch and
/// yielding its rows one at a time: the tuple operators' inputs, and the
/// [`crate::sort::Sort`] bridge over a [`sort::BatchSort`].
pub struct BatchToTuple<B: ?Sized = dyn BatchOperator> {
    buffer: std::vec::IntoIter<Tuple>,
    done: bool,
    pub(crate) input: Box<B>,
}

impl<B: BatchOperator + ?Sized> BatchToTuple<B> {
    /// Wraps `input`.
    pub fn new(input: Box<B>) -> BatchToTuple<B> {
        BatchToTuple {
            buffer: Vec::new().into_iter(),
            done: false,
            input,
        }
    }
}

impl<B: BatchOperator + ?Sized> Operator for BatchToTuple<B> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.buffer = Vec::new().into_iter();
        self.done = false;
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.buffer.next() {
                return Ok(Some(t));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(batch) => self.buffer = batch.into_tuples().into_iter(),
                None => {
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.buffer = Vec::new().into_iter();
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::scan::BatchMemScan;
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![Field::int("x")]);
        Relation::from_tuples(schema, (0..n).map(|i| ints(&[i])).collect()).unwrap()
    }

    #[test]
    fn batch_to_tuple_round_trips() {
        let batched: BoxedBatchOp = Box::new(BatchMemScan::new(rel(2500)));
        let bridged: crate::op::BoxedOp = Box::new(BatchToTuple::new(batched));
        let out = crate::op::collect(bridged).unwrap();
        assert_eq!(out, rel(2500));
    }

    #[test]
    fn collect_batches_polls_cancel_per_batch() {
        let scan = BatchMemScan::new(rel(5000));
        let cancel = CancelToken::at(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let err = collect_batches(Box::new(scan), cancel).unwrap_err();
        assert!(err.is_cancelled());
    }

    #[test]
    fn collect_batches_closes_on_mid_drain_error() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Faulty {
            schema: Schema,
            closed: Rc<Cell<bool>>,
        }
        impl BatchOperator for Faulty {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn open(&mut self) -> Result<()> {
                Ok(())
            }
            fn next_batch(&mut self) -> Result<Option<Batch>> {
                Err(ExecError::Protocol("injected fault"))
            }
            fn close(&mut self) -> Result<()> {
                self.closed.set(true);
                Ok(())
            }
        }
        let closed = Rc::new(Cell::new(false));
        let op = Faulty {
            schema: Schema::new(vec![Field::int("x")]),
            closed: closed.clone(),
        };
        let err = collect_batches(Box::new(op), CancelToken::none()).unwrap_err();
        assert!(matches!(err, ExecError::Protocol(_)));
        assert!(closed.get(), "close must run on the error path");
    }
}
