//! The `cluster` workload: four `LocalCluster` nodes (one worker each),
//! replication k = 2, one coordinator issuing sharded replicated writes
//! and both Section 6 strategies, cold then warm.

use std::time::Instant;

use crate::harness::{drive, Caller, Recorder};
use crate::sut::{self, Cluster, ClusterResponse, Res, Strategy, Workload as Inputs};
use crate::workload::{Group, LadderCell, Params, Workload};

pub const NODES: usize = 4;
pub const REPLICATION: usize = 2;
/// Bit-vector filter size on the divisor-partitioning path.
pub const FILTER_BITS: usize = 4096;

const DIVISOR: u64 = 100;
const QUOTIENT: u64 = 400;
/// A third of the dividend is filterable noise.
const NOISE: u64 = 50;
/// Warm repeats per cold query: warm queries are three orders of
/// magnitude cheaper, so they repeat to gather samples.
const WARM_REPS: usize = 8;

const CLASSES: [(&str, Group); 6] = [
    ("register.r", Group::Write),
    ("register.s", Group::Write),
    ("quotient.cold", Group::Query),
    ("quotient.warm", Group::Hit),
    ("divisor_filtered.cold", Group::Query),
    ("divisor_filtered.warm", Group::Hit),
];

pub struct ClusterLoad {
    /// Two dividend versions with different quotients over one divisor,
    /// so a reply computed from a stale fragment cannot verify.
    versions: [Inputs; 2],
    names: Vec<String>,
    groups: Vec<Group>,
    state: Option<Cluster>,
}

impl ClusterLoad {
    pub fn new(params: Params) -> ClusterLoad {
        let q = params.scaled(QUOTIENT);
        ClusterLoad {
            versions: [0u64, 1].map(|v| sut::generate(DIVISOR, q - v, NOISE, v, params.seed ^ v)),
            names: CLASSES.iter().map(|(c, _)| (*c).to_owned()).collect(),
            groups: CLASSES.iter().map(|(_, g)| *g).collect(),
            state: None,
        }
    }
}

struct ClusterCaller<'a> {
    cluster: &'a mut Cluster,
    versions: &'a [Inputs; 2],
    round: usize,
}

impl Caller for ClusterCaller<'_> {
    fn pass(&mut self, rec: &mut Recorder, traced: bool) {
        self.round += 1;
        let inputs = &self.versions[self.round % 2];
        let expected = &inputs.expected_quotient;
        let cluster = &mut *self.cluster;
        for (class, name, relation) in [(0, "r", &inputs.dividend), (1, "s", &inputs.divisor)] {
            rec.time(
                class,
                traced,
                |t| t.span("cluster.register", |_| cluster.register(name, relation, 0)),
                |()| true,
            );
        }
        let strategies = [
            (2, Strategy::QuotientPartitioning, None),
            (4, Strategy::DivisorPartitioning, Some(FILTER_BITS)),
        ];
        for (cold, strategy, bits) in strategies {
            // A warm query re-ships nothing, so it exchanges fewer frames
            // than the cold query before it; one that does not was
            // computed from scratch and counts as wrong.
            let mut cold_messages = u64::MAX;
            for i in 0..=WARM_REPS {
                let class = if i == 0 { cold } else { cold + 1 };
                let reply = rec.quotient_where(
                    class,
                    traced,
                    expected,
                    |reply: &ClusterResponse| i == 0 || reply.report.messages < cold_messages,
                    |t| {
                        t.span("cluster.divide", |_| {
                            cluster.divide("r", "s", strategy, bits)
                        })
                    },
                );
                if let Some(reply) = reply {
                    if i == 0 {
                        cold_messages = reply.report.messages;
                    }
                    rec.tracer
                        .counter("cluster.bytes", reply.report.bytes as f64);
                    rec.tracer
                        .counter("cluster.messages", reply.report.messages as f64);
                }
            }
        }
    }
}

impl Workload for ClusterLoad {
    fn class_names(&self) -> &[String] {
        &self.names
    }

    fn class_groups(&self) -> &[Group] {
        &self.groups
    }

    fn setup(&mut self) -> Res<()> {
        self.state = None;
        let mut cluster = Cluster::start(NODES, REPLICATION, true)?;
        cluster.register("r", &self.versions[0].dividend, 0)?;
        cluster.register("s", &self.versions[0].divisor, 0)?;
        self.state = Some(cluster);
        Ok(())
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn run(
        &mut self,
        budget_ns: u64,
        alternate: bool,
        corrupt_first: bool,
        epoch: Instant,
    ) -> Recorder {
        let mut rec = Recorder::new(self.names.len(), epoch, 0, corrupt_first);
        let mut caller = ClusterCaller {
            cluster: self.state.as_mut().expect("setup ran"),
            versions: &self.versions,
            round: 0,
        };
        drive(&mut caller, &mut rec, budget_ns, alternate);
        rec
    }

    fn ladder_cell(&self) -> LadderCell {
        LadderCell::in_memory(&self.versions[0])
    }
}
