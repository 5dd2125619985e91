//! What every workload offers the driver in `main.rs`.

use std::time::Instant;

use crate::harness::Recorder;
use crate::sut::{MetricsSnapshot, Relation, Res, StorageKind, Workload as Inputs};

/// Seeded inputs are made when a workload is constructed; the program
/// under test only ever receives the generated relations and requests.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Multiplies every quotient cardinality (1 = the sizes the README
    /// states); the unit tests run at 0.02.
    pub scale: f64,
}

impl Params {
    /// `quotient_size` at this scale, never below two groups.
    pub fn scaled(&self, quotient_size: u64) -> u64 {
        ((quotient_size as f64 * self.scale).round() as u64).max(2)
    }
}

/// The class group a query class belongs to: the named timing metric
/// that aggregates it (`metrics::END_TO_END`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Naive,
    SortAgg,
    HashAgg,
    HashDiv,
    Plan,
    /// A request the system computed, as its client sees it.
    Query,
    /// A request served from a cache.
    Hit,
    /// A `register` as its client sees it.
    Write,
}

impl Group {
    /// The end-to-end metric of this group.
    pub const fn metric(self) -> &'static str {
        match self {
            Group::Naive => "naive_ms",
            Group::SortAgg => "sort_agg_ms",
            Group::HashAgg => "hash_agg_ms",
            Group::HashDiv => "hash_div_ms",
            Group::Plan => "plan_ms",
            Group::Query => "query_ms",
            Group::Hit => "hit_us",
            Group::Write => "write_ms",
        }
    }
}

/// The division a workload sends down the layer ladder, and the
/// engine settings its own queries run under.
pub struct LadderCell {
    pub dividend: Relation,
    pub divisor: Relation,
    pub expected: Vec<i64>,
    pub storage: StorageKind,
    /// Inputs are record files, evicted before every query.
    pub on_disk: bool,
    pub assume_unique: bool,
    pub mem_budget: Option<usize>,
}

impl LadderCell {
    /// `inputs` as the service and the cluster run them: in memory,
    /// ample storage, no assertions, no budget.
    pub fn in_memory(inputs: &Inputs) -> LadderCell {
        LadderCell {
            dividend: inputs.dividend.clone(),
            divisor: inputs.divisor.clone(),
            expected: inputs.expected_quotient.clone(),
            storage: StorageKind::Large,
            on_disk: false,
            assume_unique: false,
            mem_budget: None,
        }
    }
}

pub trait Workload {
    /// The fixed list of query classes; a seed changes the inputs, never
    /// this list.
    fn class_names(&self) -> &[String];

    /// The group of each class, in the order of `class_names`.
    fn class_groups(&self) -> &[Group];

    /// Concurrent closed-loop callers.
    fn callers(&self) -> usize {
        1
    }

    /// Brings the system under test up and loads it: storage managers
    /// and record files, or servers, connections and registrations.
    /// Timed, together with the workload's construction from its seed,
    /// as `setup_s`. Replaces any earlier state.
    fn setup(&mut self) -> Res<()>;

    /// Stops what `setup` started and waits for it.
    fn teardown(&mut self);

    /// The main section: whole passes over the class list until
    /// `budget_ns` of waiting time is spent (one pass when 0). With
    /// `alternate`, every second pass is traced. `corrupt_first` is the
    /// test hook of [`Recorder::new`].
    fn run(
        &mut self,
        budget_ns: u64,
        alternate: bool,
        corrupt_first: bool,
        epoch: Instant,
    ) -> Recorder;

    fn ladder_cell(&self) -> LadderCell;

    /// Per-layer metrics the workload observed on its own traffic. They
    /// replace the ladder-cell probes of the same names.
    fn own_layer_metrics(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// The service counters a service workload reports about itself.
pub fn service_counters(stats: &MetricsSnapshot) -> Vec<(String, f64)> {
    vec![
        ("service.cache_hit_ratio".to_owned(), stats.hit_rate()),
        ("service.rejections".to_owned(), stats.rejections as f64),
        (
            "service.degraded_queries".to_owned(),
            stats.degraded_queries as f64,
        ),
    ]
}
