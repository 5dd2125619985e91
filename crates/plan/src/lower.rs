//! Lowering and execution: [`Bound`] → `reldiv-exec` operator tree →
//! quotient relation.
//!
//! The interesting node is division. The engine's four algorithms
//! (Sections 2–3 of the paper) consume [`Source`]s they can re-scan, so
//! non-leaf division inputs are materialized first; the algorithm for
//! each division is chosen per the Section 4 cost model from the bound
//! tree's cardinality estimates, unless the plan pins one with an
//! `(algorithm ...)` hint. Every choice made is reported back in
//! [`PlanOutput::choices`] so clients (and tests) can audit the planner.

use reldiv_core::api::Source;
use reldiv_core::{divide_with_report, Algorithm, DivisionConfig, DivisionSpec};
use reldiv_exec::batch::agg::{BatchHashCountAggregate, BatchHavingCount};
use reldiv_exec::batch::distinct::BatchDistinct;
use reldiv_exec::batch::filter::BatchFilter;
use reldiv_exec::batch::profile::maybe_profile_batch;
use reldiv_exec::batch::project::BatchProject;
use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::{collect_batches, drain_batches};
use reldiv_exec::filter::{BatchCmp, BatchPredicate};
use reldiv_exec::hash_join::BatchHashJoin;
use reldiv_exec::merge_join::JoinMode;
use reldiv_exec::profile::{ProfileSink, SpanScope};
use reldiv_exec::{BoxedBatchOp, CancelToken, SpanKind};
use reldiv_rel::{Columns, Relation};
use reldiv_storage::StorageRef;

use crate::ast::{AlgorithmHint, Cmp, Lit, Tri};
use crate::error::{PlanError, Result};
use crate::validate::{Bound, BoundDivide, BoundNode, BoundPred};

/// Where the executor finds base relations. The service implements this
/// over its versioned record files; [`MemCatalog`](crate::MemCatalog)
/// serves in-memory relations.
pub trait SourceProvider {
    /// A re-scannable source for relation `name`.
    fn source(&mut self, name: &str) -> Result<Source>;
}

/// How to run a plan.
pub struct ExecOptions {
    /// The storage manager funding scans, spills, and materializations.
    pub storage: StorageRef,
    /// Cooperative cancellation (deadlines).
    pub cancel: CancelToken,
    /// When present, every operator is wrapped in a profiling span.
    pub profile: Option<ProfileSink>,
    /// Whether a `(restricted no)` plan hint may relax the conservative
    /// referential-integrity assumption. The service disables this while
    /// fault injection is active: a fault-recovered relation may have
    /// dropped divisor tuples, silently breaking the no-join plans the
    /// hint unlocks.
    pub honor_restricted_hint: bool,
    /// Per-query memory budget for division working state, in bytes.
    /// When set, each division charges a child pool capped at this value
    /// (on top of the shared pool), so one query's hash tables degrade
    /// adaptively instead of starving the rest of the system.
    pub mem_budget: Option<usize>,
}

impl ExecOptions {
    /// Plain options: no deadline, no profiling, hints honored, no
    /// per-query memory budget.
    pub fn new(storage: StorageRef) -> ExecOptions {
        ExecOptions {
            storage,
            cancel: CancelToken::none(),
            profile: None,
            honor_restricted_hint: true,
            mem_budget: None,
        }
    }
}

/// One division's planning decision, in plan-text order (post-order walk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivisionChoice {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Whether the divisor was treated as restricted (forcing the
    /// aggregation algorithms to join).
    pub restricted: bool,
    /// Whether the inputs were treated as duplicate-free.
    pub duplicate_free: bool,
    /// Divisor cardinality estimate fed to the cost model.
    pub divisor_rows: u64,
    /// Quotient cardinality estimate fed to the cost model.
    pub quotient_rows: u64,
    /// Dividend cardinality estimate fed to the cost model.
    pub dividend_rows: u64,
    /// True when an `(algorithm ...)` hint pinned the choice (the cost
    /// model was bypassed).
    pub pinned: bool,
    /// What the division had to do to survive memory pressure: phases
    /// attempted, partitions spilled/revived, bytes spooled. Clean runs
    /// carry a non-degraded report.
    pub report: reldiv_core::DegradationReport,
}

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct PlanOutput {
    /// The final relation.
    pub relation: Relation,
    /// Every division's planning decision, in execution order.
    pub choices: Vec<DivisionChoice>,
}

fn batch_cmp(cmp: Cmp) -> BatchCmp {
    match cmp {
        Cmp::Eq => BatchCmp::Eq,
        Cmp::Ne => BatchCmp::Ne,
        Cmp::Lt => BatchCmp::Lt,
        Cmp::Le => BatchCmp::Le,
        Cmp::Gt => BatchCmp::Gt,
        Cmp::Ge => BatchCmp::Ge,
    }
}

fn batch_predicate(pred: &BoundPred) -> BatchPredicate {
    match pred {
        BoundPred::Compare { col, cmp, value } => match value {
            Lit::Int(target) => BatchPredicate::IntCompare {
                column: *col,
                cmp: batch_cmp(*cmp),
                target: *target,
            },
            Lit::Str(target) => BatchPredicate::StrCompare {
                column: *col,
                cmp: batch_cmp(*cmp),
                target: target.clone(),
            },
        },
        BoundPred::Contains { col, needle } => BatchPredicate::str_contains(*col, needle),
    }
}

struct Lowerer<'a> {
    provider: &'a mut dyn SourceProvider,
    opts: &'a ExecOptions,
    choices: Vec<DivisionChoice>,
}

impl<'a> Lowerer<'a> {
    fn wrap_batch(&self, op: BoxedBatchOp, label: String, kind: SpanKind) -> BoxedBatchOp {
        maybe_profile_batch(
            op,
            self.opts.profile.as_ref(),
            label,
            kind,
            Some(&self.opts.storage),
        )
    }

    /// Materializes a division input: leaf scans pass their source straight
    /// through (file-backed scans keep their real I/O profile); anything
    /// else runs to completion into shared columns — the batches the
    /// operator produced, kept as they are.
    fn division_input(&mut self, bound: &Bound, role: &str) -> Result<Source> {
        if let BoundNode::Scan { relation } = &bound.node {
            return self.provider.source(relation);
        }
        let op = self.lower_batch(bound)?;
        let op = self.wrap_batch(op, format!("materialize {role}"), SpanKind::Materialize);
        let (schema, mut batches) = (op.schema().clone(), Vec::new());
        drain_batches(op, self.opts.cancel, |batch| {
            batches.push(batch);
            Ok(())
        })?;
        Ok(Source::Columns(Columns::from_batches(schema, batches)))
    }

    fn divide(&mut self, d: &BoundDivide, quotient_est: u64) -> Result<Relation> {
        let dividend = self.division_input(&d.dividend, "dividend")?;
        let divisor = self.division_input(&d.divisor, "divisor")?;
        let spec = DivisionSpec::new(
            dividend.schema(),
            divisor.schema(),
            d.divisor_keys.clone(),
            d.quotient_keys.clone(),
        )?;
        let restricted = !(d.hints.restricted == Tri::No && self.opts.honor_restricted_hint);
        let duplicate_free = match d.hints.unique {
            Tri::Yes => true,
            Tri::No => false,
            Tri::Auto => d.dividend.unique && d.divisor.unique,
        };
        let (algorithm, pinned) = match d.hints.algorithm {
            AlgorithmHint::Auto => (
                Algorithm::recommend(
                    d.divisor.rows.max(1),
                    quotient_est.max(1),
                    Some(d.dividend.rows.max(1)),
                    restricted,
                    duplicate_free,
                ),
                false,
            ),
            hint => (hint.algorithm().expect("non-auto hint"), true),
        };
        // A hint the inputs cannot satisfy is the plan's fault, not the
        // engine's.
        reldiv_core::api::validate_algorithm_for_inputs(algorithm, duplicate_free)
            .map_err(|e| PlanError::Validate(e.to_string()))?;
        let config = DivisionConfig {
            assume_unique: duplicate_free,
            cancel: self.opts.cancel,
            profile: self.opts.profile.clone(),
            mem_budget: self.opts.mem_budget,
            ..DivisionConfig::default()
        };
        let (rel, report) = divide_with_report(
            &self.opts.storage,
            &dividend,
            &divisor,
            &spec,
            algorithm,
            &config,
        )?;
        self.choices.push(DivisionChoice {
            algorithm,
            restricted,
            duplicate_free,
            divisor_rows: d.divisor.rows.max(1),
            quotient_rows: quotient_est.max(1),
            dividend_rows: d.dividend.rows.max(1),
            pinned,
            report,
        });
        Ok(rel)
    }

    /// Lowers a bound tree to batch operators, one span label per node;
    /// blocking operators take the query's cancel token.
    fn lower_batch(&mut self, bound: &Bound) -> Result<BoxedBatchOp> {
        let (pool, cancel) = (self.opts.storage.borrow().memory(), self.opts.cancel);
        Ok(match &bound.node {
            BoundNode::Scan { relation } => {
                let source = self.provider.source(relation)?;
                self.wrap_batch(
                    source.scan_batches(&self.opts.storage),
                    format!("scan {relation}"),
                    SpanKind::Scan,
                )
            }
            BoundNode::Filter { pred, input } => {
                let label = format!("filter {}", pred.describe(&input.schema));
                let child = self.lower_batch(input)?;
                self.wrap_batch(
                    Box::new(BatchFilter::new(child, batch_predicate(pred))),
                    label,
                    SpanKind::Filter,
                )
            }
            BoundNode::Project { columns, input } => {
                let child = self.lower_batch(input)?;
                self.wrap_batch(
                    Box::new(BatchProject::new(child, columns.clone())?),
                    format!("project {columns:?}"),
                    SpanKind::Project,
                )
            }
            BoundNode::Distinct { input } => {
                let child = self.lower_batch(input)?;
                let storage = self.opts.storage.clone();
                self.wrap_batch(
                    Box::new(BatchDistinct::distinct(child, pool, storage).with_cancel(cancel)),
                    "distinct".to_owned(),
                    SpanKind::Distinct,
                )
            }
            BoundNode::Join {
                left_keys,
                right_keys,
                left,
                right,
            } => {
                let l = self.lower_batch(left)?;
                let r = self.lower_batch(right)?;
                let (lk, rk, mode) = (left_keys.clone(), right_keys.clone(), JoinMode::Inner);
                let join = BatchHashJoin::new(l, r, lk, rk, mode, pool)?.with_cancel(cancel);
                self.wrap_batch(Box::new(join), "hash-join".to_owned(), SpanKind::HashJoin)
            }
            BoundNode::GroupCount { keys, input } => {
                let child = self.lower_batch(input)?;
                let storage = self.opts.storage.clone();
                let agg = BatchHashCountAggregate::new(child, keys.clone(), pool, storage)?;
                self.wrap_batch(
                    Box::new(agg.with_cancel(cancel)),
                    format!("group-count {keys:?}"),
                    SpanKind::Aggregation,
                )
            }
            BoundNode::HavingCount { cmp, target, input } => {
                let child = self.lower_batch(input)?;
                let label = format!("having count {} {target}", cmp.token());
                let op: BoxedBatchOp = if *cmp == Cmp::Eq {
                    Box::new(BatchHavingCount::new(child, *target)?)
                } else {
                    // The engine's HavingCount is equality-only (the
                    // division-by-counting case); other comparisons lower
                    // to a filter on the count column plus a projection
                    // dropping it.
                    let count_col = child.schema().arity() - 1;
                    let keep: Vec<usize> = (0..count_col).collect();
                    let filtered = Box::new(BatchFilter::new(
                        child,
                        BatchPredicate::IntCompare {
                            column: count_col,
                            cmp: batch_cmp(*cmp),
                            target: *target,
                        },
                    ));
                    Box::new(BatchProject::new(filtered, keep)?)
                };
                self.wrap_batch(op, label, SpanKind::Having)
            }
            BoundNode::Divide(d) => Box::new(BatchMemScan::new(self.divide(d, bound.rows)?)),
        })
    }
}

/// Executes a bound plan. When `opts.profile` is set, the whole run is
/// covered by a root `plan` span with one child span per operator (and
/// per division phase).
pub fn execute(
    bound: &Bound,
    provider: &mut dyn SourceProvider,
    opts: &ExecOptions,
) -> Result<PlanOutput> {
    let root = opts.profile.as_ref().map(|sink| {
        SpanScope::enter(
            sink,
            "plan".to_owned(),
            SpanKind::Query,
            Some(opts.storage.clone()),
        )
    });
    let mut lowerer = Lowerer {
        provider,
        opts,
        choices: Vec::new(),
    };
    let result = match &bound.node {
        // A division at the root already holds the result relation: hand
        // it over as is rather than re-scan it through batches.
        BoundNode::Divide(d) => lowerer.divide(d, bound.rows),
        _ => lowerer
            .lower_batch(bound)
            .and_then(|op| Ok(collect_batches(op, opts.cancel)?)),
    };
    let choices = lowerer.choices;
    if let Some(root) = root {
        root.finish();
    }
    Ok(PlanOutput {
        relation: result?,
        choices,
    })
}

/// The output schema check: executing must yield exactly the schema the
/// validator promised. Exposed for tests and the service's debug asserts.
pub fn schema_matches(bound: &Bound, relation: &Relation) -> bool {
    bound.schema == *relation.schema()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::validate::bind;
    use crate::MemCatalog;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Schema, Tuple, Value};
    use reldiv_storage::manager::StorageConfig;
    use reldiv_storage::StorageManager;

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::large())
    }

    fn catalog() -> MemCatalog {
        let mut c = MemCatalog::new();
        let transcript = Relation::from_tuples(
            Schema::new(vec![Field::int("student-id"), Field::int("course-no")]),
            vec![
                ints(&[1, 10]),
                ints(&[1, 11]),
                ints(&[1, 12]),
                ints(&[2, 10]),
                ints(&[2, 12]),
                ints(&[3, 11]),
            ],
        )
        .unwrap();
        let courses = Relation::from_tuples(
            Schema::new(vec![Field::int("course-no"), Field::str("title", 24)]),
            vec![
                Tuple::new(vec![Value::Int(10), Value::Str("Database Systems".into())]),
                Tuple::new(vec![Value::Int(11), Value::Str("Compilers".into())]),
                Tuple::new(vec![Value::Int(12), Value::Str("Database Theory".into())]),
            ],
        )
        .unwrap();
        c.insert("transcript", transcript);
        c.insert("courses", courses);
        c
    }

    fn run(text: &str) -> PlanOutput {
        let bound = bind(&parse(text).unwrap(), &catalog()).unwrap();
        let mut provider = catalog();
        execute(&bound, &mut provider, &ExecOptions::new(storage())).unwrap()
    }

    fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = rel.tuples().iter().map(|t| t.values().to_vec()).collect();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn executes_the_motivating_query() {
        // "Students who have taken all database courses" (Section 1).
        let out = run("(divide (on course-no) \
               (scan transcript) \
               (project (course-no) \
                 (filter (contains title \"database\") (scan courses))))");
        assert_eq!(
            sorted_rows(&out.relation),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
        assert_eq!(out.choices.len(), 1);
        assert!(!out.choices[0].pinned);
        assert!(
            out.choices[0].restricted,
            "hint-free default is conservative"
        );
    }

    #[test]
    fn algorithm_hints_pin_the_choice() {
        for (hint, want) in [
            ("naive", Algorithm::Naive),
            ("sort-agg-join", Algorithm::SortAggregation { join: true }),
            ("hash-agg-join", Algorithm::HashAggregation { join: true }),
        ] {
            let out = run(&format!(
                "(divide (on course-no) (algorithm {hint}) \
                   (scan transcript) (project (course-no) (scan courses)))"
            ));
            assert_eq!(out.choices[0].algorithm, want, "{hint}");
            assert!(out.choices[0].pinned);
            assert_eq!(
                sorted_rows(&out.relation),
                vec![vec![Value::Int(1)]],
                "{hint}: only student 1 took all three courses"
            );
        }
    }

    #[test]
    fn having_count_composes_over_group_count() {
        // Students with at least two courses.
        let out = run("(having-count >= 2 (group-count (student-id) (scan transcript)))");
        assert_eq!(
            sorted_rows(&out.relation),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
        // Equality goes through the engine's HavingCount operator.
        let out = run("(having-count = 1 (group-count (student-id) (scan transcript)))");
        assert_eq!(sorted_rows(&out.relation), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn join_and_distinct_compose_with_division() {
        // Join transcripts with course titles, filter to database courses,
        // then divide by the database course list: same students as the
        // motivating query, via a different plan shape.
        let out = run("(divide (on course-no) \
               (distinct (project (student-id course-no) \
                 (filter (contains title \"database\") \
                   (join (on (course-no course-no)) (scan transcript) (scan courses))))) \
               (project (course-no) \
                 (filter (contains title \"database\") (scan courses))))");
        assert_eq!(
            sorted_rows(&out.relation),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn restricted_hint_gates_on_exec_options() {
        let text = "(divide (on course-no) (restricted no) \
                      (scan transcript) (project (course-no) (scan courses)))";
        let bound = bind(&parse(text).unwrap(), &catalog()).unwrap();
        let mut provider = catalog();
        let honored = execute(&bound, &mut provider, &ExecOptions::new(storage())).unwrap();
        assert!(!honored.choices[0].restricted);
        let mut opts = ExecOptions::new(storage());
        opts.honor_restricted_hint = false;
        let mut provider = catalog();
        let ignored = execute(&bound, &mut provider, &opts).unwrap();
        assert!(ignored.choices[0].restricted);
        // Same answer either way — the hint only changes plan choice.
        assert_eq!(
            sorted_rows(&honored.relation),
            sorted_rows(&ignored.relation)
        );
    }

    #[test]
    fn profiled_run_has_a_span_per_operator() {
        let text = "(having-count >= 1 (group-count (student-id) \
                      (filter (= course-no 10) (scan transcript))))";
        let bound = bind(&parse(text).unwrap(), &catalog()).unwrap();
        let mut provider = catalog();
        let sink = ProfileSink::new();
        let mut opts = ExecOptions::new(storage());
        opts.profile = Some(sink.clone());
        execute(&bound, &mut provider, &opts).unwrap();
        let profile = sink.finish();
        let mut labels = Vec::new();
        fn walk(n: &reldiv_exec::profile::ProfileNode, out: &mut Vec<String>) {
            out.push(n.label.clone());
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&profile.root, &mut labels);
        for want in [
            "plan",
            "having count >= 1",
            "group-count",
            "filter",
            "scan transcript",
        ] {
            assert!(
                labels.iter().any(|l| l.starts_with(want)),
                "missing {want:?} in {labels:?}"
            );
        }
    }

    #[test]
    fn mem_budget_reaches_division_and_report_surfaces() {
        // A transcript big enough that its quotient table overflows a
        // 32 KB per-query budget: the division must degrade adaptively
        // (visible in the choice's report) yet answer correctly.
        let mut c = MemCatalog::new();
        let mut rows = Vec::new();
        for s in 0..2000 {
            rows.push(ints(&[s, 10]));
            rows.push(ints(&[s, 11]));
        }
        let transcript = Relation::from_tuples(
            Schema::new(vec![Field::int("student-id"), Field::int("course-no")]),
            rows,
        )
        .unwrap();
        let courses = Relation::from_tuples(
            Schema::new(vec![Field::int("course-no")]),
            vec![ints(&[10]), ints(&[11])],
        )
        .unwrap();
        let schema = transcript.schema().clone();
        c.insert("transcript", transcript);
        c.insert("courses", courses.clone());
        let text = "(divide (on course-no) (algorithm hash-div) \
                      (scan transcript) (scan courses))";
        let bound = bind(&parse(text).unwrap(), &c).unwrap();
        let mut opts = ExecOptions::new(storage());
        opts.mem_budget = Some(32 * 1024);
        let mut provider = c.clone();
        let out = execute(&bound, &mut provider, &opts).unwrap();
        assert_eq!(out.relation.cardinality(), 2000);
        assert!(out.choices[0].report.degraded, "32 KB budget must bite");
        assert!(out.choices[0].report.partitions_spilled > 0);
        // Without the budget the same plan runs clean.
        let mut provider = c.clone();
        let clean = execute(&bound, &mut provider, &ExecOptions::new(storage())).unwrap();
        assert_eq!(clean.relation.cardinality(), 2000);
        assert!(!clean.choices[0].report.degraded);

        // A sort-based plan sorts where `divide` does, in the storage's
        // work memory within the budget: the same page transfers. 12 000
        // students' runs outgrow the paper's 256 KB pool, not a 64 MB one.
        let rows = (0..12_000).flat_map(|s| [ints(&[s, 10]), ints(&[s, 11])]);
        let transcript = Relation::from_tuples(schema, rows.collect()).unwrap();
        c.insert("transcript", transcript.clone());
        let text = "(divide (on course-no) (algorithm naive) (unique no) \
                      (scan transcript) (scan courses))";
        let bound = bind(&parse(text).unwrap(), &c).unwrap();
        let spec = DivisionSpec::trailing_divisor(transcript.schema(), courses.schema()).unwrap();
        for (config, spills) in [
            (StorageConfig::paper(), true),
            (StorageConfig::large(), false),
        ] {
            for mem_budget in [None, Some(4 * 1024)] {
                let io_of = |run: &dyn Fn(&StorageRef)| {
                    let storage = StorageManager::shared(config.clone());
                    run(&storage);
                    let io = storage.borrow().io_stats();
                    io
                };
                let planned = io_of(&|storage| {
                    let opts = ExecOptions {
                        mem_budget,
                        ..ExecOptions::new(storage.clone())
                    };
                    let out = execute(&bound, &mut c.clone(), &opts).unwrap();
                    assert_eq!(out.relation.cardinality(), 12_000);
                });
                let direct = io_of(&|storage| {
                    let config = DivisionConfig {
                        mem_budget,
                        ..DivisionConfig::default()
                    };
                    let (r, s) = (
                        Source::from_relation(&transcript),
                        Source::from_relation(&courses),
                    );
                    let q = divide_with_report(storage, &r, &s, &spec, Algorithm::Naive, &config);
                    assert_eq!(q.unwrap().0.cardinality(), 12_000);
                });
                assert_eq!(planned, direct, "{config:?} {mem_budget:?}");
                assert_eq!(direct.writes > 0, spills, "{config:?} {mem_budget:?}");
            }
        }
    }

    #[test]
    fn multiple_divisions_in_one_plan() {
        // Divide twice: students with all database courses, then feed that
        // (joined back with transcript) into a second division by the
        // full course list — an empty result here, since database courses
        // are only two of three.
        let out = run("(divide (on course-no) \
               (join (on (student-id student-id)) \
                 (divide (on course-no) \
                   (scan transcript) \
                   (project (course-no) (filter (contains title \"database\") (scan courses)))) \
                 (scan transcript)) \
               (project (course-no) (scan courses)))");
        assert_eq!(out.choices.len(), 2);
        // The join carries student-id twice, so the default quotient is
        // the (student-id, student-id) pair.
        assert_eq!(
            sorted_rows(&out.relation),
            vec![vec![Value::Int(1), Value::Int(1)]]
        );
    }
}
