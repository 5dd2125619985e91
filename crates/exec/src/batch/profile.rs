//! Profiling for the batch path.
//!
//! [`ProfiledBatchOp`] wraps an operator in a span of a
//! [`ProfileSink`]: one span per operator, inclusive metrics, the span
//! created lazily at the first `open`. The span's parent is whichever span
//! is active when the operator is first opened, and the operator activates
//! its own span around calls into its input — so a plan of wrapped
//! operators reconstructs its tree shape at runtime, including children
//! that are only opened lazily. Tuple counts are accumulated **per batch**
//! (`tuples_out += batch.len()` after each `next_batch`), touching the sink
//! ~1000× less often than per row.

use std::time::Instant;

use reldiv_rel::{counters, Batch, Schema};
use reldiv_storage::StorageRef;

use super::{BatchOperator, BoxedBatchOp};
use crate::profile::{buffer_stats, io_delta, ProfileSink, SpanId, SpanKind, SpanMetrics};
use crate::Result;

/// Wraps a batch operator so every `open`/`next_batch`/`close` call is
/// measured into a span of `sink`.
pub struct ProfiledBatchOp {
    inner: BoxedBatchOp,
    sink: ProfileSink,
    storage: Option<StorageRef>,
    label: String,
    kind: SpanKind,
    id: Option<SpanId>,
}

impl ProfiledBatchOp {
    /// Wraps `inner`.
    pub fn new(
        inner: BoxedBatchOp,
        sink: ProfileSink,
        label: impl Into<String>,
        kind: SpanKind,
        storage: Option<StorageRef>,
    ) -> ProfiledBatchOp {
        ProfiledBatchOp {
            inner,
            sink,
            storage,
            label: label.into(),
            kind,
            id: None,
        }
    }

    fn measured<T>(&mut self, f: impl FnOnce(&mut BoxedBatchOp) -> Result<T>) -> Result<T> {
        let id = self.id.expect("span created in open");
        let start = Instant::now();
        let ops0 = counters::snapshot();
        let io0 = buffer_stats(&self.storage);
        self.sink.push(id);
        let result = f(&mut self.inner);
        self.sink.pop(id);
        let (pages_read, pages_written) = io_delta(&io0, &buffer_stats(&self.storage));
        self.sink.add(
            id,
            &SpanMetrics {
                wall_micros: start.elapsed().as_micros() as u64,
                tuples_out: 0,
                ops: counters::snapshot().since(&ops0),
                pages_read,
                pages_written,
                spill_bytes: 0,
                network_bytes: 0,
                phases: Vec::new(),
            },
        );
        result
    }
}

impl BatchOperator for ProfiledBatchOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> Result<()> {
        if self.id.is_none() {
            self.id = Some(self.sink.create_span(self.label.clone(), self.kind));
        }
        self.measured(|op| op.open())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let id = self.id.expect("span created in open");
        let batch = self.measured(|op| op.next_batch())?;
        if let Some(batch) = &batch {
            if !batch.is_empty() {
                self.sink.add(
                    id,
                    &SpanMetrics {
                        tuples_out: batch.len() as u64,
                        ..SpanMetrics::default()
                    },
                );
            }
        }
        Ok(batch)
    }

    fn close(&mut self) -> Result<()> {
        if self.id.is_none() {
            // Never opened (a sibling failed first): nothing to measure.
            return self.inner.close();
        }
        self.measured(|op| op.close())
    }
}

/// Wraps `op` in a [`ProfiledBatchOp`] when profiling is on; returns it
/// untouched (and allocation-free) when `sink` is `None`. Plan builders
/// call this at every operator boundary — the disabled path is the
/// identity function, which is what makes profiling zero-cost when off.
pub fn maybe_profile_batch(
    op: BoxedBatchOp,
    sink: Option<&ProfileSink>,
    label: impl Into<String>,
    kind: SpanKind,
    storage: Option<&StorageRef>,
) -> BoxedBatchOp {
    match sink {
        None => op,
        Some(sink) => Box::new(ProfiledBatchOp::new(
            op,
            sink.clone(),
            label,
            kind,
            storage.cloned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::profile::SpanScope;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![Field::int("x")]);
        Relation::from_tuples(schema, (0..n).map(|i| ints(&[i])).collect()).unwrap()
    }

    #[test]
    fn profiled_batch_scan_counts_tuples_per_batch() {
        let sink = ProfileSink::new();
        let root = SpanScope::enter(&sink, "query", SpanKind::Query, None);
        let scan: BoxedBatchOp = Box::new(BatchMemScan::new(rel(2500)).with_batch_size(256));
        let wrapped = maybe_profile_batch(scan, Some(&sink), "batch scan", SpanKind::Scan, None);
        let out = collect_batches(wrapped, CancelToken::none()).unwrap();
        root.finish();
        assert_eq!(out.cardinality(), 2500);
        let profile = sink.finish();
        let scan = &profile.root.children[0];
        assert_eq!(scan.label, "batch scan");
        assert_eq!(scan.tuples_out, 2500, "tuple totals match the tuple path");
        assert_eq!(profile.root.tuples_in, 2500);
    }

    #[test]
    fn disabled_profiling_is_the_identity() {
        let scan: BoxedBatchOp = Box::new(BatchMemScan::new(rel(3)));
        let wrapped = maybe_profile_batch(scan, None, "batch scan", SpanKind::Scan, None);
        assert_eq!(
            collect_batches(wrapped, CancelToken::none())
                .unwrap()
                .cardinality(),
            3
        );
    }
}
