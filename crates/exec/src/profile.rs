//! Per-operator query profiling — the engine half of `EXPLAIN ANALYZE`.
//!
//! A [`ProfileSink`] collects a tree of spans while a plan executes. Every
//! profiled operator (wrapped in a
//! [`ProfiledBatchOp`](crate::batch::profile::ProfiledBatchOp)) and every
//! profiled region
//! (a [`SpanScope`]) contributes one span recording wall time, tuples
//! produced, the abstract-operation deltas of [`reldiv_rel::counters`]
//! (comparisons, hashes, moves, bit operations), physical page reads and
//! writes attributed from the buffer manager's statistics, spill bytes,
//! network bytes (for the parallel engine), and free-form phase notes
//! (the Section 3.4 partitioning ladder). When the query finishes,
//! [`ProfileSink::finish`] freezes the spans into a plain-data
//! [`QueryProfile`] tree that is `Send`, serializable, and renderable.
//!
//! **Zero cost when disabled.** Profiling is driven entirely by an
//! `Option<ProfileSink>` in the division configuration: when it is `None`
//! no wrapper operators are constructed and the plan is byte-for-byte the
//! unprofiled plan — there are no dormant branches in the per-tuple loops.
//! The `profiling_overhead` bench gates this at < 5 % on the Table 4
//! workloads.
//!
//! **Metric semantics.** Span metrics are *inclusive*: a sort's span
//! includes the work of the scan feeding it. The renderer and
//! [`ProfileNode::self_wall_micros`] derive exclusive ("self") figures by
//! subtracting the children's inclusive totals. Page writebacks are
//! attributed to the span during which the buffer manager performed them,
//! which for deferred writebacks can be a later span than the one that
//! dirtied the page — the totals over the whole profile are exact.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use reldiv_rel::counters::{self, OpSnapshot};
use reldiv_storage::buffer::BufferStats;
use reldiv_storage::StorageRef;

/// What kind of work a span measures; mirrors the operator taxonomy of the
/// paper's plans plus the service-side bookkeeping spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole division query (the root span).
    Query,
    /// A file or memory scan.
    Scan,
    /// An external merge sort (possibly with duplicate elimination).
    Sort,
    /// A merge join / merge semi-join.
    MergeJoin,
    /// A hash join / hash semi-join.
    HashJoin,
    /// An aggregation (sort- or hash-based, scalar or grouped).
    Aggregation,
    /// The hash-division operator (Section 3).
    HashDivision,
    /// The naive merge-scan division step (Section 2.1).
    NaiveDivision,
    /// An overflow-partitioning phase (Section 3.4).
    Partition,
    /// Materialization of an intermediate result to a record file.
    Materialize,
    /// Network shipment in the parallel engine.
    Network,
    /// One node of the parallel cluster.
    Node,
    /// Anything else (queue wait, service bookkeeping, ...).
    Other,
    /// A selection in a composed plan.
    Filter,
    /// A projection in a composed plan.
    Project,
    /// Duplicate elimination in a composed plan.
    Distinct,
    /// A `HAVING COUNT` post-filter in a composed plan.
    Having,
    /// An adaptive-hybrid spill: a victim partition's table written to a
    /// cluster file mid-build, or a spilled partition's post-pass merge.
    Spill,
    /// An adaptive-hybrid revive: a spilled partition re-admitted to
    /// memory after the pool freed up.
    Revive,
}

impl SpanKind {
    /// Stable wire/JSON code.
    pub fn code(self) -> u8 {
        match self {
            SpanKind::Query => 0,
            SpanKind::Scan => 1,
            SpanKind::Sort => 2,
            SpanKind::MergeJoin => 3,
            SpanKind::HashJoin => 4,
            SpanKind::Aggregation => 5,
            SpanKind::HashDivision => 6,
            SpanKind::NaiveDivision => 7,
            SpanKind::Partition => 8,
            SpanKind::Materialize => 9,
            SpanKind::Network => 10,
            SpanKind::Node => 11,
            SpanKind::Other => 12,
            SpanKind::Filter => 13,
            SpanKind::Project => 14,
            SpanKind::Distinct => 15,
            SpanKind::Having => 16,
            SpanKind::Spill => 17,
            SpanKind::Revive => 18,
        }
    }

    /// Decodes a wire/JSON code; unknown codes map to [`SpanKind::Other`]
    /// so old readers tolerate new span kinds.
    pub fn from_code(code: u8) -> SpanKind {
        match code {
            0 => SpanKind::Query,
            1 => SpanKind::Scan,
            2 => SpanKind::Sort,
            3 => SpanKind::MergeJoin,
            4 => SpanKind::HashJoin,
            5 => SpanKind::Aggregation,
            6 => SpanKind::HashDivision,
            7 => SpanKind::NaiveDivision,
            8 => SpanKind::Partition,
            9 => SpanKind::Materialize,
            10 => SpanKind::Network,
            11 => SpanKind::Node,
            13 => SpanKind::Filter,
            14 => SpanKind::Project,
            15 => SpanKind::Distinct,
            16 => SpanKind::Having,
            17 => SpanKind::Spill,
            18 => SpanKind::Revive,
            _ => SpanKind::Other,
        }
    }

    /// Short lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Scan => "scan",
            SpanKind::Sort => "sort",
            SpanKind::MergeJoin => "merge-join",
            SpanKind::HashJoin => "hash-join",
            SpanKind::Aggregation => "aggregation",
            SpanKind::HashDivision => "hash-division",
            SpanKind::NaiveDivision => "naive-division",
            SpanKind::Partition => "partition",
            SpanKind::Materialize => "materialize",
            SpanKind::Network => "network",
            SpanKind::Node => "node",
            SpanKind::Other => "other",
            SpanKind::Filter => "filter",
            SpanKind::Project => "project",
            SpanKind::Distinct => "distinct",
            SpanKind::Having => "having",
            SpanKind::Spill => "spill",
            SpanKind::Revive => "revive",
        }
    }
}

/// The measured quantities of one span. All figures are inclusive of the
/// span's children.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanMetrics {
    /// Wall time spent inside the span, microseconds.
    pub wall_micros: u64,
    /// Tuples the span produced (for operators: `next()` yields).
    pub tuples_out: u64,
    /// Abstract operations (comparisons, hashes, moves, bitops).
    pub ops: OpSnapshot,
    /// Physical page reads (buffer misses) during the span.
    pub pages_read: u64,
    /// Physical page writes (writebacks) during the span.
    pub pages_written: u64,
    /// Bytes spilled to cluster/run files.
    pub spill_bytes: u64,
    /// Bytes shipped over the (simulated) network.
    pub network_bytes: u64,
    /// Free-form phase notes (the overflow degradation ladder).
    pub phases: Vec<String>,
}

impl SpanMetrics {
    fn absorb(&mut self, other: &SpanMetrics) {
        self.wall_micros += other.wall_micros;
        self.tuples_out += other.tuples_out;
        self.ops = self.ops.merge(&other.ops);
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
        self.spill_bytes += other.spill_bytes;
        self.network_bytes += other.network_bytes;
        self.phases.extend(other.phases.iter().cloned());
    }
}

/// Identifies a span within its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct SpanData {
    label: String,
    kind: SpanKind,
    parent: Option<usize>,
    metrics: SpanMetrics,
}

#[derive(Default)]
struct Builder {
    spans: Vec<SpanData>,
    /// Stack of currently-active spans: a newly created span's parent is
    /// the top of this stack, which is how the tree structure is
    /// discovered at runtime without threading parent handles through
    /// every plan builder.
    active: Vec<usize>,
}

/// A handle collecting spans for one query execution. Cheap to clone
/// (reference-counted); single-threaded like the execution engine itself —
/// workers build the profile locally and ship the finished (plain-data)
/// [`QueryProfile`] across threads.
#[derive(Clone, Default)]
pub struct ProfileSink {
    inner: Rc<RefCell<Builder>>,
}

impl std::fmt::Debug for ProfileSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSink")
            .field("spans", &self.inner.borrow().spans.len())
            .finish()
    }
}

impl ProfileSink {
    /// An empty sink.
    pub fn new() -> ProfileSink {
        ProfileSink::default()
    }

    /// Registers a new span whose parent is the currently active span (if
    /// any). Does not activate it — pair with [`ProfileSink::push`].
    pub fn create_span(&self, label: impl Into<String>, kind: SpanKind) -> SpanId {
        let mut b = self.inner.borrow_mut();
        let parent = b.active.last().copied();
        b.spans.push(SpanData {
            label: label.into(),
            kind,
            parent,
            metrics: SpanMetrics::default(),
        });
        SpanId(b.spans.len() - 1)
    }

    /// Makes `id` the active span: spans created until the matching
    /// [`ProfileSink::pop`] become its children.
    pub fn push(&self, id: SpanId) {
        self.inner.borrow_mut().active.push(id.0);
    }

    /// Deactivates `id` (and anything pushed above it that was leaked by
    /// an error path).
    pub fn pop(&self, id: SpanId) {
        let mut b = self.inner.borrow_mut();
        while let Some(top) = b.active.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Accumulates measured quantities into a span.
    pub fn add(&self, id: SpanId, delta: &SpanMetrics) {
        self.inner.borrow_mut().spans[id.0].metrics.absorb(delta);
    }

    /// Appends a phase note to a span.
    pub fn note_phase(&self, id: SpanId, phase: impl Into<String>) {
        self.inner.borrow_mut().spans[id.0]
            .metrics
            .phases
            .push(phase.into());
    }

    /// Adds spill bytes to a span.
    pub fn add_spill(&self, id: SpanId, bytes: u64) {
        self.inner.borrow_mut().spans[id.0].metrics.spill_bytes += bytes;
    }

    /// Number of spans registered so far.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Freezes the collected spans into a profile tree. Spans without a
    /// parent become children of a synthesized root when there is more
    /// than one of them; a single parentless span *is* the root. An empty
    /// sink yields an empty root.
    pub fn finish(&self) -> QueryProfile {
        let b = self.inner.borrow();
        // children[i] = indices of spans whose parent is i, in creation
        // order (creation order is open order, which reads naturally).
        let n = b.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in b.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn build(i: usize, spans: &[SpanData], children: &[Vec<usize>]) -> ProfileNode {
            let kids: Vec<ProfileNode> = children[i]
                .iter()
                .map(|&c| build(c, spans, children))
                .collect();
            let tuples_in = kids.iter().map(|k| k.tuples_out).sum();
            let s = &spans[i];
            ProfileNode {
                label: s.label.clone(),
                kind: s.kind,
                wall_micros: s.metrics.wall_micros,
                tuples_in,
                tuples_out: s.metrics.tuples_out,
                ops: s.metrics.ops,
                pages_read: s.metrics.pages_read,
                pages_written: s.metrics.pages_written,
                spill_bytes: s.metrics.spill_bytes,
                network_bytes: s.metrics.network_bytes,
                phases: s.metrics.phases.clone(),
                children: kids,
            }
        }
        let root = match roots.len() {
            0 => ProfileNode::new("empty profile", SpanKind::Query),
            1 => build(roots[0], &b.spans, &children),
            _ => {
                let kids: Vec<ProfileNode> = roots
                    .iter()
                    .map(|&r| build(r, &b.spans, &children))
                    .collect();
                let mut root = ProfileNode::new("query", SpanKind::Query);
                root.wall_micros = kids.iter().map(|k| k.wall_micros).sum();
                root.tuples_in = kids.iter().map(|k| k.tuples_out).sum();
                root.children = kids;
                root
            }
        };
        QueryProfile { root }
    }
}

/// One node of a finished profile tree. Plain data: `Send`, cloneable,
/// serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Human-readable operator/region label.
    pub label: String,
    /// Span taxonomy.
    pub kind: SpanKind,
    /// Inclusive wall time, microseconds.
    pub wall_micros: u64,
    /// Tuples consumed (sum of the children's `tuples_out`; 0 for leaves).
    pub tuples_in: u64,
    /// Tuples produced.
    pub tuples_out: u64,
    /// Inclusive abstract operations.
    pub ops: OpSnapshot,
    /// Inclusive physical page reads.
    pub pages_read: u64,
    /// Inclusive physical page writes.
    pub pages_written: u64,
    /// Inclusive bytes spilled to cluster/run files.
    pub spill_bytes: u64,
    /// Inclusive bytes shipped over the network.
    pub network_bytes: u64,
    /// Phase notes (the overflow ladder, queue wait, ...).
    pub phases: Vec<String>,
    /// Child spans, in open order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A span with nothing measured yet.
    pub fn new(label: impl Into<String>, kind: SpanKind) -> ProfileNode {
        ProfileNode {
            label: label.into(),
            kind,
            wall_micros: 0,
            tuples_in: 0,
            tuples_out: 0,
            ops: OpSnapshot::default(),
            pages_read: 0,
            pages_written: 0,
            spill_bytes: 0,
            network_bytes: 0,
            phases: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Exclusive wall time: this span minus its children (clamped at 0 —
    /// children measured around their own calls can slightly exceed the
    /// parent's clock due to timer granularity).
    pub fn self_wall_micros(&self) -> u64 {
        self.wall_micros
            .saturating_sub(self.children.iter().map(|c| c.wall_micros).sum())
    }

    /// Number of nodes in this subtree (including self).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ProfileNode::node_count)
            .sum::<usize>()
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, is_root: bool) {
        let (branch, child_prefix) = if is_root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let _ = write!(out, "{branch}{} [{}]", self.label, self.kind.label());
        let _ = write!(
            out,
            "  wall={} self={} rows={}",
            fmt_micros(self.wall_micros),
            fmt_micros(self.self_wall_micros()),
            self.tuples_out
        );
        if self.ops != OpSnapshot::default() {
            let _ = write!(
                out,
                "  cmp={} hash={} move={} bit={}",
                self.ops.comparisons, self.ops.hashes, self.ops.moves, self.ops.bitops
            );
        }
        if self.pages_read > 0 || self.pages_written > 0 {
            let _ = write!(out, "  pages={}r/{}w", self.pages_read, self.pages_written);
        }
        if self.spill_bytes > 0 {
            let _ = write!(out, "  spill={}B", self.spill_bytes);
        }
        if self.network_bytes > 0 {
            let _ = write!(out, "  net={}B", self.network_bytes);
        }
        out.push('\n');
        for phase in &self.phases {
            let _ = writeln!(
                out,
                "{}{} phase: {phase}",
                child_prefix,
                if self.children.is_empty() { " " } else { "│" }
            );
        }
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"label\":{},\"kind\":\"{}\",\"wall_micros\":{},\"tuples_in\":{},\
             \"tuples_out\":{},\"comparisons\":{},\"hashes\":{},\"moves\":{},\"bitops\":{},\
             \"pages_read\":{},\"pages_written\":{},\"spill_bytes\":{},\"network_bytes\":{}",
            json_str(&self.label),
            self.kind.label(),
            self.wall_micros,
            self.tuples_in,
            self.tuples_out,
            self.ops.comparisons,
            self.ops.hashes,
            self.ops.moves,
            self.ops.bitops,
            self.pages_read,
            self.pages_written,
            self.spill_bytes,
            self.network_bytes,
        );
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(p));
        }
        out.push_str("],\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// A finished per-query profile: the `EXPLAIN ANALYZE` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// The root span (the whole query).
    pub root: ProfileNode,
}

impl QueryProfile {
    /// Total (root) wall time in microseconds.
    pub fn total_wall_micros(&self) -> u64 {
        self.root.wall_micros
    }

    /// Renders the profile as an ASCII tree, one span per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, "", true, true);
        out
    }

    /// Hand-rolled JSON serialization (the workspace deliberately carries
    /// no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.root.json_into(&mut out);
        out
    }
}

pub(crate) fn buffer_stats(storage: &Option<StorageRef>) -> BufferStats {
    match storage {
        Some(s) => s.borrow().buffer_stats(),
        None => BufferStats::default(),
    }
}

pub(crate) fn io_delta(before: &BufferStats, after: &BufferStats) -> (u64, u64) {
    let d = after.since(before);
    (d.misses, d.writebacks)
}

/// A scoped (non-operator) span: covers a region of straight-line code —
/// the query root, an overflow-partitioning phase, a materialization.
/// Measures wall time, abstract ops, and buffer I/O between construction
/// and [`SpanScope::finish`] (or drop, on error paths).
pub struct SpanScope {
    sink: ProfileSink,
    id: SpanId,
    start: Instant,
    ops0: OpSnapshot,
    io0: BufferStats,
    storage: Option<StorageRef>,
    finished: bool,
}

impl SpanScope {
    /// Opens a span under the sink's currently active span and activates
    /// it. `storage` enables physical-I/O attribution.
    pub fn enter(
        sink: &ProfileSink,
        label: impl Into<String>,
        kind: SpanKind,
        storage: Option<StorageRef>,
    ) -> SpanScope {
        let id = sink.create_span(label, kind);
        sink.push(id);
        SpanScope {
            sink: sink.clone(),
            id,
            start: Instant::now(),
            ops0: counters::snapshot(),
            io0: buffer_stats(&storage),
            storage,
            finished: false,
        }
    }

    /// The span this scope measures (for phase notes and spill bytes).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Appends a phase note to this span.
    pub fn note_phase(&self, phase: impl Into<String>) {
        self.sink.note_phase(self.id, phase);
    }

    fn flush(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let (pages_read, pages_written) = io_delta(&self.io0, &buffer_stats(&self.storage));
        self.sink.add(
            self.id,
            &SpanMetrics {
                wall_micros: self.start.elapsed().as_micros() as u64,
                tuples_out: 0,
                ops: counters::snapshot().since(&self.ops0),
                pages_read,
                pages_written,
                spill_bytes: 0,
                network_bytes: 0,
                phases: Vec::new(),
            },
        );
        self.sink.pop(self.id);
    }

    /// Closes the span, recording its measurements.
    pub fn finish(mut self) {
        self.flush();
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::profile::maybe_profile_batch;
    use crate::batch::scan::BatchMemScan;
    use crate::batch::{collect_batches, BatchOperator, BoxedBatchOp};
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_rel::Schema;

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![Field::int("x")]);
        Relation::from_tuples(schema, (0..n).map(|i| ints(&[i])).collect()).unwrap()
    }

    #[test]
    fn profiled_scan_counts_tuples_and_nests() {
        let sink = ProfileSink::new();
        let root = SpanScope::enter(&sink, "query", SpanKind::Query, None);
        let scan: BoxedBatchOp = Box::new(BatchMemScan::new(rel(5)).with_batch_size(2));
        let wrapped = maybe_profile_batch(scan, Some(&sink), "memscan", SpanKind::Scan, None);
        let out = collect_batches(wrapped, CancelToken::none()).unwrap();
        root.finish();
        assert_eq!(out.cardinality(), 5);
        let profile = sink.finish();
        assert_eq!(profile.root.label, "query");
        assert_eq!(profile.root.children.len(), 1);
        let scan = &profile.root.children[0];
        assert_eq!(scan.label, "memscan");
        assert_eq!(scan.kind, SpanKind::Scan);
        assert_eq!(scan.tuples_out, 5);
        assert_eq!(profile.root.tuples_in, 5);
    }

    #[test]
    fn disabled_profiling_is_the_identity() {
        // No sink: the very operator comes back, unwrapped.
        let scan: BoxedBatchOp = Box::new(BatchMemScan::new(rel(3)));
        let at = |op: &BoxedBatchOp| &**op as *const dyn BatchOperator as *const u8;
        let before = at(&scan);
        let wrapped = maybe_profile_batch(scan, None, "memscan", SpanKind::Scan, None);
        assert_eq!(at(&wrapped), before);
    }

    #[test]
    fn multiple_roots_are_gathered_under_a_synthetic_root() {
        let sink = ProfileSink::new();
        SpanScope::enter(&sink, "first", SpanKind::Other, None).finish();
        SpanScope::enter(&sink, "second", SpanKind::Other, None).finish();
        let profile = sink.finish();
        assert_eq!(profile.root.label, "query");
        assert_eq!(profile.root.children.len(), 2);
    }

    #[test]
    fn empty_sink_yields_empty_profile() {
        let profile = ProfileSink::new().finish();
        assert_eq!(profile.root.node_count(), 1);
        assert_eq!(profile.total_wall_micros(), 0);
    }

    #[test]
    fn span_scope_records_ops_and_phases() {
        let sink = ProfileSink::new();
        let scope = SpanScope::enter(&sink, "work", SpanKind::Partition, None);
        scope.note_phase("in-memory");
        counters::count_comparisons(7);
        counters::count_bitops(2);
        scope.finish();
        let profile = sink.finish();
        assert!(profile.root.ops.comparisons >= 7);
        assert!(profile.root.ops.bitops >= 2);
        assert_eq!(profile.root.phases, vec!["in-memory".to_owned()]);
    }

    #[test]
    fn error_paths_still_close_spans_via_drop() {
        let sink = ProfileSink::new();
        {
            let _scope = SpanScope::enter(&sink, "doomed", SpanKind::Other, None);
            // Dropped without finish(), as an error return would.
        }
        let profile = sink.finish();
        assert_eq!(profile.root.label, "doomed");
    }

    #[test]
    fn render_and_json_contain_the_labels() {
        let sink = ProfileSink::new();
        let root = SpanScope::enter(&sink, "division \"q\"", SpanKind::Query, None);
        SpanScope::enter(&sink, "child", SpanKind::Sort, None).finish();
        root.finish();
        let profile = sink.finish();
        let rendered = profile.render();
        assert!(rendered.contains("division \"q\""), "{rendered}");
        assert!(rendered.contains("└─ child [sort]"), "{rendered}");
        let json = profile.to_json();
        assert!(json.contains("\"division \\\"q\\\"\""), "{json}");
        assert!(json.contains("\"kind\":\"sort\""), "{json}");
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            SpanKind::Query,
            SpanKind::Scan,
            SpanKind::Sort,
            SpanKind::MergeJoin,
            SpanKind::HashJoin,
            SpanKind::Aggregation,
            SpanKind::HashDivision,
            SpanKind::NaiveDivision,
            SpanKind::Partition,
            SpanKind::Materialize,
            SpanKind::Network,
            SpanKind::Node,
            SpanKind::Other,
            SpanKind::Filter,
            SpanKind::Project,
            SpanKind::Distinct,
            SpanKind::Having,
            SpanKind::Spill,
            SpanKind::Revive,
        ] {
            assert_eq!(SpanKind::from_code(kind.code()), kind);
        }
        assert_eq!(SpanKind::from_code(200), SpanKind::Other);
    }

    #[test]
    fn self_wall_subtracts_children() {
        let mut parent = ProfileNode::new("p", SpanKind::Query);
        parent.wall_micros = 100;
        let mut child = ProfileNode::new("c", SpanKind::Query);
        child.wall_micros = 30;
        parent.children.push(child);
        assert_eq!(parent.self_wall_micros(), 70);
    }
}
