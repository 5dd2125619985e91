//! The two service workloads: `svc_hot` (every request a cache hit)
//! and `svc_churn` (writes beside reads). Both run a `Service` with two
//! workers behind a `ServerHandle` on loopback and drive it from two
//! closed-loop `TcpClient`s, one thread each.

use std::time::Instant;

use crate::harness::{drive, Caller, Recorder};
use crate::sut::{
    self, Deployment, DivideReply, DivideRequest, ExecPlanRequest, Family, PlanReply, Res,
    TcpClient, Workload as Inputs, DIVIDE_PLAN, FILTER_DIVIDE_PLAN,
};
use crate::workload::{service_counters, Group, LadderCell, Params, Workload};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// Runs one caller per client on its own thread and folds the
/// recorders together.
fn drive_clients<C: Caller + Send>(
    mut callers: Vec<C>,
    classes: usize,
    budget_ns: u64,
    alternate: bool,
    corrupt_first: bool,
    epoch: Instant,
) -> Recorder {
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(i, caller)| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(classes, epoch, i as u64, corrupt_first && i == 0);
                    drive(caller, &mut rec, budget_ns, alternate);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = recorders.into_iter();
    let mut total = all.next().expect("at least one client");
    for rec in all {
        total.absorb(rec);
    }
    total
}

// --------------------------------------------------------------- svc_hot

const HOT_DIVISOR: u64 = 100;
/// Reply sizes of the hot catalog.
const HOT_QUOTIENTS: [u64; 3] = [25, 100, 400];
/// `Divide` requests per `ExecPlan` request: the 80 % / 20 % mix.
const DIVIDES_PER_PLAN: usize = 4;
/// Rounds of the mix per pass, so a pass is long against its loop
/// overhead.
const HOT_ROUNDS: usize = 8;

pub struct SvcHot {
    inputs: Vec<Inputs>,
    names: Vec<String>,
    groups: Vec<Group>,
    state: Option<(Deployment, Vec<TcpClient>)>,
}

impl SvcHot {
    pub fn new(params: Params) -> SvcHot {
        let inputs = HOT_QUOTIENTS
            .iter()
            .map(|&q| sut::generate(HOT_DIVISOR, params.scaled(q), 0, 0, params.seed ^ q))
            .collect();
        let names: Vec<String> = ["divide", "plan"]
            .iter()
            .flat_map(|kind| HOT_QUOTIENTS.iter().map(move |q| format!("{kind}.q{q}")))
            .collect();
        SvcHot {
            inputs,
            groups: vec![Group::Hit; names.len()],
            names,
            state: None,
        }
    }

    fn requests(&self) -> Vec<(DivideRequest, ExecPlanRequest)> {
        HOT_QUOTIENTS
            .iter()
            .map(|q| {
                let (r, s) = (format!("r{q}"), format!("s{q}"));
                (
                    sut::divide_request(&r, &s, None),
                    sut::plan_request(DIVIDE_PLAN, &r, &s),
                )
            })
            .collect()
    }
}

struct HotCaller<'a> {
    client: &'a mut TcpClient,
    requests: Vec<(DivideRequest, ExecPlanRequest)>,
    inputs: &'a [Inputs],
}

impl Caller for HotCaller<'_> {
    fn pass(&mut self, rec: &mut Recorder, traced: bool) {
        let n = self.requests.len();
        for _ in 0..HOT_ROUNDS {
            for (i, (divide, plan)) in self.requests.iter().enumerate() {
                let expected = &self.inputs[i].expected_quotient;
                // `svc_hot` is defined by zero executions: a reply that was
                // computed rather than served from a cache is wrong.
                for _ in 0..DIVIDES_PER_PLAN {
                    rec.quotient_where(
                        i,
                        traced,
                        expected,
                        |r: &DivideReply| r.cached,
                        |t| t.span("service.tcp.divide", |_| sut::divide(self.client, divide)),
                    );
                }
                rec.quotient_where(
                    n + i,
                    traced,
                    expected,
                    |r: &PlanReply| r.cached,
                    |t| {
                        t.span("service.tcp.exec_plan", |_| {
                            sut::exec_plan(self.client, plan)
                        })
                    },
                );
            }
        }
    }
}

impl Workload for SvcHot {
    fn class_names(&self) -> &[String] {
        &self.names
    }

    fn class_groups(&self) -> &[Group] {
        &self.groups
    }

    fn callers(&self) -> usize {
        CLIENTS
    }

    fn setup(&mut self) -> Res<()> {
        self.teardown();
        let deployment = Deployment::start(WORKERS, true)?;
        let mut clients = (0..CLIENTS)
            .map(|_| deployment.tcp())
            .collect::<Res<Vec<_>>>()?;
        for (q, inputs) in HOT_QUOTIENTS.iter().zip(&self.inputs) {
            sut::register(&mut clients[0], &format!("r{q}"), &inputs.dividend)?;
            sut::register(&mut clients[0], &format!("s{q}"), &inputs.divisor)?;
        }
        // Warm the result and plan caches: afterwards nothing executes.
        for (divide, plan) in self.requests() {
            sut::divide(&mut clients[0], &divide)?;
            sut::exec_plan(&mut clients[0], &plan)?;
        }
        self.state = Some((deployment, clients));
        Ok(())
    }

    fn teardown(&mut self) {
        // Clients close before the server stops, so no connection thread
        // is left blocked on a read.
        if let Some((deployment, clients)) = self.state.take() {
            drop(clients);
            drop(deployment);
        }
    }

    fn run(
        &mut self,
        budget_ns: u64,
        alternate: bool,
        corrupt_first: bool,
        epoch: Instant,
    ) -> Recorder {
        let requests = self.requests();
        let (_, clients) = self.state.as_mut().expect("setup ran");
        let callers = clients
            .iter_mut()
            .map(|client| HotCaller {
                client,
                requests: requests.clone(),
                inputs: &self.inputs,
            })
            .collect();
        drive_clients(
            callers,
            self.names.len(),
            budget_ns,
            alternate,
            corrupt_first,
            epoch,
        )
    }

    fn ladder_cell(&self) -> LadderCell {
        LadderCell::in_memory(self.inputs.last().expect("three relations"))
    }

    fn own_layer_metrics(&self) -> Vec<(String, f64)> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |(d, _)| service_counters(&d.stats()))
    }
}

// ------------------------------------------------------------- svc_churn

/// `(|S|, |Q|)` of the dividends; the first two belong to client 0.
const CHURN_CELLS: [(u64, u64); 4] = [(100, 100), (100, 400), (400, 100), (25, 400)];
const CHURN_NOISE: u64 = 5;
const CHURN_INCOMPLETE: u64 = 10;
const CHURN_KINDS: [(&str, Group); 7] = [
    ("register", Group::Write),
    ("miss_first", Group::Query),
    ("miss_hash_agg", Group::Query),
    ("miss_naive", Group::Query),
    ("plan_divide", Group::Query),
    ("plan_filter", Group::Query),
    ("hit", Group::Hit),
];

/// Hits per version: a hit is two orders of magnitude cheaper than the
/// operations before it, so it repeats to gather samples.
const CHURN_HITS: usize = 8;

/// One dividend a client owns: two versions with different quotients
/// (so a stale reply cannot verify) over one stable divisor.
struct Owned {
    dividend: String,
    divisor: String,
    versions: [Inputs; 2],
}

pub struct SvcChurn {
    owned: Vec<Owned>,
    names: Vec<String>,
    groups: Vec<Group>,
    state: Option<(Deployment, Vec<TcpClient>)>,
}

impl SvcChurn {
    pub fn new(params: Params) -> SvcChurn {
        let mut owned = Vec::new();
        let mut names = Vec::new();
        let mut groups = Vec::new();
        for (s, q) in CHURN_CELLS {
            let cell = format!("s{s}q{q}");
            let scaled = params.scaled(q);
            // Version 1 turns one complete group into an incomplete one.
            let versions = [0u64, 1].map(|v| {
                sut::generate(
                    s,
                    scaled - v,
                    CHURN_NOISE,
                    CHURN_INCOMPLETE + v,
                    params.seed ^ (s << 32) ^ (q << 8) ^ v,
                )
            });
            names.extend(CHURN_KINDS.iter().map(|(kind, _)| format!("{kind}.{cell}")));
            groups.extend(CHURN_KINDS.iter().map(|(_, group)| *group));
            owned.push(Owned {
                dividend: format!("r_{cell}"),
                divisor: format!("s_{cell}"),
                versions,
            });
        }
        SvcChurn {
            owned,
            names,
            groups,
            state: None,
        }
    }
}

struct ChurnCaller<'a> {
    client: &'a mut TcpClient,
    /// `(first class index, dividend)` of the dividends this client owns.
    owned: Vec<(usize, &'a Owned)>,
    round: usize,
}

impl Caller for ChurnCaller<'_> {
    fn pass(&mut self, rec: &mut Recorder, traced: bool) {
        self.round += 1;
        for &(base, owned) in &self.owned {
            let inputs = &owned.versions[self.round % 2];
            let expected = &inputs.expected_quotient;
            let (r, s) = (owned.dividend.as_str(), owned.divisor.as_str());
            rec.time(
                base,
                traced,
                |t| {
                    t.span("service.tcp.register", |_| {
                        sut::register(self.client, r, &inputs.dividend)
                    })
                },
                |version| *version > 0,
            );
            let divides = [
                (1, None),
                (2, Some(Family::HashAgg)),
                (3, Some(Family::Naive)),
            ];
            for (k, family) in divides {
                let request = sut::divide_request(r, s, family);
                rec.quotient(base + k, traced, expected, |t| {
                    t.span("service.tcp.divide", |_| sut::divide(self.client, &request))
                });
            }
            for (k, template) in [(4, DIVIDE_PLAN), (5, FILTER_DIVIDE_PLAN)] {
                let request = sut::plan_request(template, r, s);
                rec.quotient(base + k, traced, expected, |t| {
                    t.span("service.tcp.exec_plan", |_| {
                        sut::exec_plan(self.client, &request)
                    })
                });
            }
            // The repeat of `miss_first` on the same version: a reply that
            // was computed again is not a hit, and counts as wrong.
            let request = sut::divide_request(r, s, None);
            for _ in 0..CHURN_HITS {
                rec.quotient_where(
                    base + 6,
                    traced,
                    expected,
                    |reply: &DivideReply| reply.cached,
                    |t| t.span("service.tcp.divide", |_| sut::divide(self.client, &request)),
                );
            }
        }
    }
}

impl Workload for SvcChurn {
    fn class_names(&self) -> &[String] {
        &self.names
    }

    fn class_groups(&self) -> &[Group] {
        &self.groups
    }

    fn callers(&self) -> usize {
        CLIENTS
    }

    fn setup(&mut self) -> Res<()> {
        self.teardown();
        let deployment = Deployment::start(WORKERS, true)?;
        let mut clients = (0..CLIENTS)
            .map(|_| deployment.tcp())
            .collect::<Res<Vec<_>>>()?;
        for owned in &self.owned {
            sut::register(
                &mut clients[0],
                &owned.dividend,
                &owned.versions[0].dividend,
            )?;
            sut::register(&mut clients[0], &owned.divisor, &owned.versions[0].divisor)?;
        }
        self.state = Some((deployment, clients));
        Ok(())
    }

    fn teardown(&mut self) {
        if let Some((deployment, clients)) = self.state.take() {
            drop(clients);
            drop(deployment);
        }
    }

    fn run(
        &mut self,
        budget_ns: u64,
        alternate: bool,
        corrupt_first: bool,
        epoch: Instant,
    ) -> Recorder {
        let (_, clients) = self.state.as_mut().expect("setup ran");
        let per_client = self.owned.len() / CLIENTS;
        let callers = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| ChurnCaller {
                client,
                owned: (c * per_client..(c + 1) * per_client)
                    .map(|i| (i * CHURN_KINDS.len(), &self.owned[i]))
                    .collect(),
                round: 0,
            })
            .collect();
        drive_clients(
            callers,
            self.names.len(),
            budget_ns,
            alternate,
            corrupt_first,
            epoch,
        )
    }

    fn ladder_cell(&self) -> LadderCell {
        LadderCell::in_memory(&self.owned[1].versions[0])
    }

    fn own_layer_metrics(&self) -> Vec<(String, f64)> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |(d, _)| service_counters(&d.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Quotient;

    fn sorted_ids(r: &impl Quotient) -> Vec<i64> {
        let mut ids = r.ids();
        ids.sort_unstable();
        ids
    }

    /// Only version 0's divisor is ever registered, so both versions
    /// must divide by the same set.
    #[test]
    fn churn_versions_share_a_divisor_and_differ_in_quotient() {
        let churn = SvcChurn::new(Params {
            seed: 7,
            scale: 0.05,
        });
        for owned in &churn.owned {
            let [a, b] = &owned.versions;
            assert_eq!(sorted_ids(&a.divisor), sorted_ids(&b.divisor));
            assert_ne!(a.expected_quotient, b.expected_quotient);
        }
        assert_eq!(churn.names.len(), CHURN_CELLS.len() * CHURN_KINDS.len());
    }
}
