//! Naive division over sorted inputs (Section 2.1; essentially Smith 1975).
//!
//! "First, the dividend is sorted using the quotient attributes as major
//! and the divisor attributes as minor sort keys. Second, the divisor is
//! sorted on all its attributes. Third, the two sorted relations are
//! scanned in a fashion similar to nested loops join ... when an equality
//! match has been found, both relation scans can be advanced."
//!
//! Following the paper's implementation, the operator "first consumes the
//! entire divisor relation, building a linked list of divisor tuples fixed
//! in the buffer pool. It then consumes the dividend relation, advancing in
//! the linked list of divisor tuples as matching dividend tuples are
//! produced by the dividend input, and producing a quotient tuple each time
//! the end of the divisor list is reached."
//!
//! [`NaiveDivision`] (and [`BatchNaiveDivision`], its batch twin) takes
//! inputs that are *already sorted* (and duplicate-free); the plan wraps
//! raw inputs in the required distinct sorts, which is where the naive
//! algorithm's dominant cost lives.

use std::cmp::Ordering;

use reldiv_exec::batch::{hold_all, BatchOperator, BoxedBatchOp};
use reldiv_exec::op::{BoxedOp, OpState, Operator};
use reldiv_exec::sort::SortMode;
use reldiv_rel::{Batch, Relation, Schema, Tuple};

use crate::api::Source;
use crate::engine::Engine;
use crate::spec::DivisionSpec;
use crate::Result;

/// The merge-scan division step over sorted, duplicate-free inputs.
pub struct NaiveDivision {
    dividend: BoxedOp,
    divisor: BoxedOp,
    spec: DivisionSpec,
    schema: Schema,
    state: OpState,
    /// The divisor, materialized in sorted order ("a linked list of divisor
    /// tuples fixed in the buffer pool").
    divisor_list: Vec<Tuple>,
    /// Quotient-attribute values of the group being scanned.
    current_group: Option<Tuple>,
    /// Position in the divisor list for the current group.
    divisor_pos: usize,
    /// Whether the current group can still qualify (or already emitted).
    group_alive: bool,
    #[cfg(debug_assertions)]
    last_dividend: Option<Tuple>,
}

impl NaiveDivision {
    /// Creates the division step. `dividend` must be sorted on
    /// `spec.quotient_keys` (major) then `spec.divisor_keys` (minor);
    /// `divisor` must be sorted on all its columns; both duplicate-free.
    pub fn new(dividend: BoxedOp, divisor: BoxedOp, spec: DivisionSpec) -> Result<Self> {
        spec.validate(dividend.schema(), divisor.schema())?;
        let schema = spec.quotient_schema(dividend.schema())?;
        Ok(NaiveDivision {
            dividend,
            divisor,
            spec,
            schema,
            state: OpState::Created,
            divisor_list: Vec::new(),
            current_group: None,
            divisor_pos: 0,
            group_alive: false,
            #[cfg(debug_assertions)]
            last_dividend: None,
        })
    }
}

impl Operator for NaiveDivision {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.divisor.open()?;
        self.divisor_list.clear();
        while let Some(t) = self.divisor.next()? {
            #[cfg(debug_assertions)]
            if let Some(prev) = self.divisor_list.last() {
                let all = self.spec.divisor_all_columns();
                debug_assert_eq!(
                    prev.cmp_keys(&t, &all),
                    Ordering::Less,
                    "divisor input must be sorted and duplicate-free"
                );
            }
            self.divisor_list.push(t);
        }
        self.divisor.close()?;
        self.dividend.open()?;
        self.current_group = None;
        self.divisor_pos = 0;
        self.group_alive = false;
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        let all = self.spec.divisor_all_columns();
        loop {
            let Some(t) = self.dividend.next()? else {
                return Ok(None);
            };
            #[cfg(debug_assertions)]
            {
                let mut keys = self.spec.quotient_keys.clone();
                keys.extend_from_slice(&self.spec.divisor_keys);
                if let Some(prev) = &self.last_dividend {
                    debug_assert_eq!(
                        prev.cmp_keys(&t, &keys),
                        Ordering::Less,
                        "dividend input must be sorted and duplicate-free"
                    );
                }
                self.last_dividend = Some(t.clone());
            }

            // Group boundary?
            let same_group = self.current_group.as_ref().is_some_and(|g| {
                let qcols: Vec<usize> = (0..self.spec.quotient_keys.len()).collect();
                t.eq_on(&self.spec.quotient_keys, g, &qcols)
            });
            if !same_group {
                self.current_group = Some(t.project(&self.spec.quotient_keys));
                self.divisor_pos = 0;
                self.group_alive = true;
                // An empty divisor qualifies every group immediately.
                if self.divisor_list.is_empty() {
                    self.group_alive = false;
                    return Ok(Some(self.current_group.clone().expect("just set")));
                }
            }
            if !self.group_alive {
                continue; // group already emitted or already failed
            }

            // Advance the divisor scan against this dividend tuple.
            match t.cmp_on(
                &self.spec.divisor_keys,
                &self.divisor_list[self.divisor_pos],
                &all,
            ) {
                Ordering::Less => {
                    // Dividend value not in the divisor (e.g. a physics
                    // course): skip the tuple, the group is still viable.
                }
                Ordering::Equal => {
                    self.divisor_pos += 1;
                    if self.divisor_pos == self.divisor_list.len() {
                        // "producing a quotient tuple each time the end of
                        // the divisor list is reached."
                        self.group_alive = false;
                        return Ok(Some(self.current_group.clone().expect("in a group")));
                    }
                }
                Ordering::Greater => {
                    // The expected divisor tuple is missing from the group.
                    self.group_alive = false;
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.dividend.close()?;
        self.divisor_list.clear();
        self.state = OpState::Closed;
        Ok(())
    }
}

/// The merge-scan step of the batch engine: [`NaiveDivision`] a batch of
/// sorted dividend rows at a time, each row compared against the divisor
/// list with one `Comp` per step, as the tuple operator compares.
pub struct BatchNaiveDivision {
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: DivisionSpec,
    schema: Schema,
    state: OpState,
    /// The divisor, in sorted order.
    divisor_list: Batch,
    /// Quotient-attribute values of the group being scanned.
    current_group: Option<Tuple>,
    divisor_pos: usize,
    group_alive: bool,
}

impl BatchNaiveDivision {
    /// Creates the division step, of inputs as for [`NaiveDivision::new`].
    pub fn new(dividend: BoxedBatchOp, divisor: BoxedBatchOp, spec: DivisionSpec) -> Result<Self> {
        spec.validate(dividend.schema(), divisor.schema())?;
        Ok(BatchNaiveDivision {
            schema: spec.quotient_schema(dividend.schema())?,
            divisor_list: Batch::with_capacity(divisor.schema().clone(), 0),
            dividend,
            divisor,
            spec,
            state: OpState::Created,
            current_group: None,
            divisor_pos: 0,
            group_alive: false,
        })
    }
}

impl BatchOperator for BatchNaiveDivision {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.divisor_list = hold_all(&mut self.divisor)?;
        self.dividend.open()?;
        self.current_group = None;
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let Some(batch) = self.dividend.next_batch()? else {
            return Ok(None);
        };
        let all = self.spec.divisor_all_columns();
        let qcols: Vec<usize> = (0..self.spec.quotient_keys.len()).collect();
        let quotient = batch.project(&self.spec.quotient_keys)?;
        let mut out = Batch::with_capacity(self.schema.clone(), 0);
        for row in 0..batch.len() {
            // Group boundary?
            let same_group = (self.current_group.as_ref())
                .is_some_and(|g| quotient.row_eq_tuple(&qcols, row, g, &qcols));
            if !same_group {
                self.current_group = Some(quotient.tuple(row));
                self.divisor_pos = 0;
                // An empty divisor qualifies every group immediately.
                self.group_alive = !self.divisor_list.is_empty();
                if !self.group_alive {
                    out.push_row_from(&quotient, row);
                }
            }
            if !self.group_alive {
                continue; // group already emitted or already failed
            }
            let (list, at) = (&self.divisor_list, self.divisor_pos);
            match batch.cmp_rows(&self.spec.divisor_keys, row, list, &all, at) {
                // Not a divisor value: skip the row, the group is viable.
                Ordering::Less => {}
                Ordering::Equal => {
                    self.divisor_pos += 1;
                    if self.divisor_pos == self.divisor_list.len() {
                        self.group_alive = false;
                        out.push_row_from(&quotient, row);
                    }
                }
                // The expected divisor row is missing from the group.
                Ordering::Greater => self.group_alive = false,
            }
        }
        Ok(Some(out))
    }

    fn close(&mut self) -> Result<()> {
        self.state = OpState::Closed;
        let closed = self.dividend.close();
        self.divisor.close().and(closed)
    }
}

/// The full naive-division plan: distinct sorts of both inputs (where the
/// algorithm's dominant cost lies) feeding the merge-scan step.
///
/// `assume_unique` skips nothing here — the sorts are required for order
/// regardless, and eliminating duplicates during a sort is free ("in the
/// naive division algorithm ... duplicates can be conveniently eliminated
/// during the initial sort phase").
pub(crate) fn naive_division(
    engine: &Engine,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
) -> Result<Relation> {
    let mut dividend_keys = spec.quotient_keys.clone();
    dividend_keys.extend_from_slice(&spec.divisor_keys);
    let sorted_dividend = engine.sort(
        engine.scan(dividend),
        dividend_keys,
        SortMode::Distinct,
        "sort dividend (distinct, quotient+divisor keys)",
    )?;
    let sorted_divisor = engine.sort(
        engine.scan(divisor),
        spec.divisor_all_columns(),
        SortMode::Distinct,
        "sort divisor (distinct, all columns)",
    )?;
    engine.collect(engine.merge_scan(sorted_dividend, sorted_divisor, spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DivisionConfig;
    use crate::ExecMode;
    use reldiv_exec::scan::MemScan;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::{StorageConfig, StorageManager};

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn divide(dividend: Relation, divisor: Relation) -> Vec<i64> {
        let storage = StorageManager::shared(StorageConfig::paper());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let answers = [ExecMode::Tuple, ExecMode::Batch].map(|exec| {
            let config = DivisionConfig {
                exec,
                ..DivisionConfig::default()
            };
            let engine = Engine {
                storage: &storage,
                config: &config,
            };
            let (r, s) = (
                Source::from_relation(&dividend),
                Source::from_relation(&divisor),
            );
            naive_division(&engine, &r, &s, &spec).unwrap()
        });
        assert_eq!(answers[0], answers[1], "both engines, row for row");
        let mut out: Vec<i64> = answers[0]
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn exact_product_divides_cleanly() {
        let mut rows = Vec::new();
        for q in 0..5 {
            for s in [10, 20, 30] {
                rows.push([q, s]);
            }
        }
        assert_eq!(
            divide(transcript(&rows), courses(&[10, 20, 30])),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn partial_groups_fail() {
        let rows = [[1, 10], [1, 20], [2, 10], [3, 20]];
        assert_eq!(divide(transcript(&rows), courses(&[10, 20])), vec![1]);
    }

    #[test]
    fn non_divisor_values_are_skipped_not_fatal() {
        // Student 1 took physics (99) between the two database courses;
        // the scan must skip it without failing the group.
        let rows = [[1, 10], [1, 15], [1, 20], [2, 10], [2, 20]];
        assert_eq!(divide(transcript(&rows), courses(&[10, 20])), vec![1, 2]);
    }

    #[test]
    fn duplicates_are_eliminated_by_the_sorts() {
        // Duplicates in both inputs; the distinct sorts clean them up.
        let rows = [[1, 10], [1, 10], [1, 20], [2, 10], [2, 10]];
        assert_eq!(
            divide(transcript(&rows), courses(&[10, 20, 20, 10])),
            vec![1]
        );
    }

    #[test]
    fn empty_divisor_yields_distinct_projection() {
        let rows = [[3, 10], [1, 20], [3, 30]];
        assert_eq!(divide(transcript(&rows), courses(&[])), vec![1, 3]);
    }

    #[test]
    fn empty_dividend_yields_empty() {
        assert_eq!(divide(transcript(&[]), courses(&[10])), Vec::<i64>::new());
    }

    #[test]
    fn group_exceeding_divisor_still_qualifies() {
        // Student 1 took MORE courses than the divisor requires.
        let rows = [[1, 5], [1, 10], [1, 20], [1, 25]];
        assert_eq!(divide(transcript(&rows), courses(&[10, 20])), vec![1]);
    }

    #[test]
    fn group_whose_last_divisor_value_is_missing_fails() {
        // Group has 10 but then jumps past 20 to 30.
        let rows = [[1, 10], [1, 30]];
        assert_eq!(
            divide(transcript(&rows), courses(&[10, 20])),
            Vec::<i64>::new()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn sorted_input_invariant_is_debug_checked() {
        // Feeding unsorted inputs directly into NaiveDivision (without the
        // plan's sorts) trips the debug assertion.
        let dividend = transcript(&[[2, 10], [1, 10]]);
        let divisor = courses(&[10]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut op = NaiveDivision::new(
            Box::new(MemScan::new(dividend)),
            Box::new(MemScan::new(divisor)),
            spec,
        )
        .unwrap();
        op.open().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while op.next().unwrap().is_some() {}
        }));
        assert!(
            result.is_err(),
            "unsorted dividend must be rejected in debug builds"
        );
    }
}
