//! The three single-caller engine workloads: `mem_grid`, `disk_grid`
//! and `spill`. They call the division operators and the plan front
//! end directly, on one storage manager.

use std::time::Instant;

use crate::harness::{drive, Caller, Recorder};
use crate::layers::degradation_metrics;
use crate::sut::{
    self, DegradationReport, DivideOpts, Engine, Family, Res, Source, SourceCatalog, StorageKind,
    Workload as Inputs, DIVIDE_PLAN,
};
use crate::trace::Tracer;
use crate::workload::{Group, LadderCell, Params, Workload};

/// Table 4's nine `(|S|, |Q|)` cells.
const SIZES: [u64; 3] = [25, 100, 400];

/// The query kinds issued on every grid cell, in class order: the four
/// families of `Family::ALL`, then the plan front end.
const KINDS: [(&str, Group); 5] = [
    ("naive", Group::Naive),
    ("sort_agg", Group::SortAgg),
    ("hash_agg", Group::HashAgg),
    ("hash_div", Group::HashDiv),
    ("plan", Group::Plan),
];

struct Cell {
    inputs: Inputs,
    /// Queries of each kind per pass: small cells repeat so that every
    /// class gathers samples at a comparable rate.
    reps: usize,
}

struct GridState {
    engine: Engine,
    sources: Vec<(Source, Source)>,
    catalogs: Vec<SourceCatalog>,
}

/// `mem_grid` (in-memory sources, ample storage) and `disk_grid` (the
/// paper's experiment: record files, 256 KB pool, cold start per query).
pub struct Grid {
    on_disk: bool,
    cells: Vec<Cell>,
    names: Vec<String>,
    groups: Vec<Group>,
    state: Option<GridState>,
}

impl Grid {
    pub fn new(on_disk: bool, params: Params) -> Grid {
        let mut cells = Vec::new();
        let mut names = Vec::new();
        let mut groups = Vec::new();
        for s in SIZES {
            for q in SIZES {
                let inputs = sut::generate(s, params.scaled(q), 0, 0, params.seed ^ (s << 32) ^ q);
                let reps = (40_000 / inputs.dividend.cardinality()).clamp(1, 16);
                cells.push(Cell { inputs, reps });
                names.extend(KINDS.iter().map(|(kind, _)| format!("s{s}q{q}.{kind}")));
                groups.extend(KINDS.iter().map(|(_, group)| *group));
            }
        }
        Grid {
            on_disk,
            cells,
            names,
            groups,
            state: None,
        }
    }

    fn storage_kind(&self) -> StorageKind {
        if self.on_disk {
            StorageKind::Paper
        } else {
            StorageKind::Large
        }
    }

    /// `disk_grid` declares its inputs duplicate-free as `table4` does;
    /// `mem_grid` passes what the service worker passes.
    fn opts(&self) -> DivideOpts {
        DivideOpts {
            assume_unique: self.on_disk,
            ..DivideOpts::default()
        }
    }
}

struct GridCaller<'a> {
    grid: &'a Grid,
    state: &'a mut GridState,
}

impl Caller for GridCaller<'_> {
    fn pass(&mut self, rec: &mut Recorder, traced: bool) {
        let GridState {
            engine,
            sources,
            catalogs,
        } = &mut *self.state;
        let cold = |rec: &mut Recorder| {
            if self.grid.on_disk {
                rec.prepared(engine.evict_and_reset());
            }
        };
        let opts = self.grid.opts();
        for (i, cell) in self.grid.cells.iter().enumerate() {
            let (r, s) = &sources[i];
            let expected = &cell.inputs.expected_quotient;
            for _ in 0..cell.reps {
                for (k, family) in Family::ALL.into_iter().enumerate() {
                    cold(rec);
                    rec.quotient(i * KINDS.len() + k, traced, expected, |t| {
                        t.span("core.divide_with_report", |_| {
                            engine.divide(r, s, family, opts)
                        })
                    });
                    io_counters(&mut rec.tracer, engine);
                }
                cold(rec);
                let catalog = &mut catalogs[i];
                rec.quotient(i * KINDS.len() + 4, traced, expected, |t| {
                    let plan = t.span("plan.parse", |_| sut::plan_parse(DIVIDE_PLAN))?;
                    let bound = t.span("plan.bind", |_| sut::plan_bind(&plan, catalog))?;
                    t.span("plan.execute", |_| {
                        sut::plan_execute(&bound, catalog, engine, None)
                    })
                });
                io_counters(&mut rec.tracer, engine);
            }
        }
    }
}

/// Counter readings at the query boundary (recorded only when traced).
fn io_counters(tracer: &mut Tracer, engine: &Engine) {
    let io = engine.io_stats();
    tracer.counter("storage.pages_read", io.reads as f64);
    tracer.counter("storage.pages_written", io.writes as f64);
}

impl Workload for Grid {
    fn class_names(&self) -> &[String] {
        &self.names
    }

    fn class_groups(&self) -> &[Group] {
        &self.groups
    }

    fn setup(&mut self) -> Res<()> {
        self.state = None;
        let engine = Engine::new(self.storage_kind());
        let mut sources = Vec::new();
        let mut catalogs = Vec::new();
        for cell in &self.cells {
            let (r, s) = (&cell.inputs.dividend, &cell.inputs.divisor);
            let pair = if self.on_disk {
                (engine.load(r)?, engine.load(s)?)
            } else {
                (engine.mem_source(r), engine.mem_source(s))
            };
            let mut catalog = SourceCatalog::default();
            catalog.insert("r", pair.0.clone(), r.cardinality() as u64);
            catalog.insert("s", pair.1.clone(), s.cardinality() as u64);
            sources.push(pair);
            catalogs.push(catalog);
        }
        self.state = Some(GridState {
            engine,
            sources,
            catalogs,
        });
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
        let mut state = self.state.take().expect("setup ran");
        drive(
            &mut GridCaller {
                grid: self,
                state: &mut state,
            },
            &mut rec,
            budget_ns,
            alternate,
        );
        self.state = Some(state);
        rec
    }

    fn ladder_cell(&self) -> LadderCell {
        LadderCell {
            storage: self.storage_kind(),
            on_disk: self.on_disk,
            assume_unique: self.on_disk,
            ..LadderCell::in_memory(&self.cells.last().expect("nine cells").inputs)
        }
    }
}

/// Per-query memory budgets of the `spill` workload; the last one fits
/// the whole quotient table and is the control.
pub const BUDGETS: [(usize, &str); 4] = [
    (64 << 10, "64k"),
    (256 << 10, "256k"),
    (1 << 20, "1m"),
    (4 << 20, "4m"),
];

const SPILL_DIVISOR: u64 = 25;
const SPILL_QUOTIENT: u64 = 20_000;

/// Hash-division under `OverflowPolicy::Auto` at four memory budgets,
/// on a uniform and a Zipf-skewed dividend.
pub struct Spill {
    inputs: [Inputs; 2],
    /// The uniform shape at a tenth of the groups: what goes down the
    /// layer ladder, where a 500 k-tuple relation and its 20 000-tuple
    /// replies would take a minute to register, ship and re-ship.
    ladder: Inputs,
    names: Vec<String>,
    groups: Vec<Group>,
    state: Option<(Engine, [(Source, Source); 2])>,
    /// The latest degradation report of each uniform class, by budget.
    reports: [Option<DegradationReport>; 4],
}

impl Spill {
    pub fn new(params: Params) -> Spill {
        let q = params.scaled(SPILL_QUOTIENT);
        // The skewed dividend keeps a quarter of its groups complete and
        // gives the rest Zipf-distributed sizes.
        let inputs = [
            sut::generate(SPILL_DIVISOR, q, 0, 0, params.seed),
            sut::generate_zipf(SPILL_DIVISOR, q / 4, q - q / 4, 1.1, params.seed),
        ];
        let names: Vec<String> = ["uniform", "zipf"]
            .iter()
            .flat_map(|shape| BUDGETS.iter().map(move |(_, b)| format!("{shape}.{b}")))
            .collect();
        Spill {
            inputs,
            ladder: sut::generate(SPILL_DIVISOR, (q / 10).max(2), 0, 0, params.seed ^ 1),
            groups: vec![Group::HashDiv; names.len()],
            names,
            state: None,
            reports: [None, None, None, None],
        }
    }
}

struct SpillCaller<'a> {
    inputs: &'a [Inputs; 2],
    engine: &'a Engine,
    sources: &'a [(Source, Source); 2],
    reports: &'a mut [Option<DegradationReport>; 4],
}

impl Caller for SpillCaller<'_> {
    fn pass(&mut self, rec: &mut Recorder, traced: bool) {
        for (i, (r, s)) in self.sources.iter().enumerate() {
            for (b, (budget, _)) in BUDGETS.iter().enumerate() {
                rec.prepared(self.engine.evict_and_reset());
                let opts = DivideOpts {
                    mem_budget: Some(*budget),
                    ..DivideOpts::default()
                };
                let reply = rec.quotient(
                    i * BUDGETS.len() + b,
                    traced,
                    &self.inputs[i].expected_quotient,
                    |t| {
                        t.span("core.divide_with_report", |_| {
                            self.engine.divide(r, s, Family::HashDiv, opts)
                        })
                    },
                );
                io_counters(&mut rec.tracer, self.engine);
                if let Some((_, report)) = reply {
                    rec.tracer
                        .counter("core.spill_bytes", report.spill_bytes as f64);
                    if i == 0 {
                        self.reports[b] = Some(report);
                    }
                }
            }
        }
    }
}

impl Workload for Spill {
    fn class_names(&self) -> &[String] {
        &self.names
    }

    fn class_groups(&self) -> &[Group] {
        &self.groups
    }

    fn setup(&mut self) -> Res<()> {
        self.state = None;
        let engine = Engine::new(StorageKind::SmallPool);
        let sources = [0, 1].map(|i| {
            (
                engine.mem_source(&self.inputs[i].dividend),
                engine.mem_source(&self.inputs[i].divisor),
            )
        });
        self.state = Some((engine, sources));
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
        let (engine, sources) = self.state.as_ref().expect("setup ran");
        drive(
            &mut SpillCaller {
                inputs: &self.inputs,
                engine,
                sources,
                reports: &mut self.reports,
            },
            &mut rec,
            budget_ns,
            alternate,
        );
        rec
    }

    fn own_layer_metrics(&self) -> Vec<(String, f64)> {
        let dividend = &self.inputs[0].dividend;
        let raw_bytes = (dividend.cardinality() * dividend.schema().record_width()) as f64;
        BUDGETS
            .iter()
            .zip(&self.reports)
            .filter_map(|((_, label), report)| Some((label, report.as_ref()?)))
            .flat_map(|(label, report)| degradation_metrics(report, label, raw_bytes))
            .collect()
    }

    fn ladder_cell(&self) -> LadderCell {
        LadderCell {
            storage: StorageKind::SmallPool,
            mem_budget: Some(BUDGETS[0].0),
            ..LadderCell::in_memory(&self.ladder)
        }
    }
}
