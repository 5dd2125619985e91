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
//! [`BatchNaiveDivision`] takes inputs that are *already sorted* (and
//! duplicate-free); the plan wraps raw inputs in the required distinct
//! sorts, which is where the naive algorithm's dominant cost lives.

use std::cmp::Ordering;

use reldiv_exec::batch::{hold_all, BatchOperator, BoxedBatchOp};
use reldiv_exec::op::OpState;
use reldiv_exec::sort::SortMode;
use reldiv_rel::{Batch, Relation, Schema, Tuple};

use crate::api::Source;
use crate::engine::Engine;
use crate::spec::DivisionSpec;
use crate::Result;

/// The merge-scan division step over sorted, duplicate-free inputs, a
/// batch of dividend rows at a time: each row is compared against the
/// divisor list with one `Comp` per step.
pub struct BatchNaiveDivision {
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: DivisionSpec,
    schema: Schema,
    state: OpState,
    /// The divisor, materialized in sorted order ("a linked list of divisor
    /// tuples fixed in the buffer pool").
    divisor_list: Batch,
    /// Quotient-attribute values of the group being scanned.
    current_group: Option<Tuple>,
    /// Position in the divisor list for the current group.
    divisor_pos: usize,
    /// Whether the current group can still qualify (or already emitted).
    group_alive: bool,
    /// The sort keys of the last dividend row, to check the next against.
    #[cfg(debug_assertions)]
    last_dividend: Option<Tuple>,
}

/// Debug builds check the input contract: `row` sorts strictly after
/// `last` — sorted and duplicate-free. Uncounted: the check is not part of
/// the algorithm's work.
#[cfg(debug_assertions)]
fn assert_ascending(last: &mut Option<Tuple>, row: Tuple, input: &str) {
    if let Some(last) = last {
        let ord = (last.values().iter().zip(row.values()))
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| o.is_ne());
        assert_eq!(
            ord,
            Some(Ordering::Less),
            "{input} input must be sorted and duplicate-free"
        );
    }
    *last = Some(row);
}

impl BatchNaiveDivision {
    /// Creates the division step. `dividend` must be sorted on
    /// `spec.quotient_keys` (major) then `spec.divisor_keys` (minor);
    /// `divisor` must be sorted on all its columns; both duplicate-free.
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
            #[cfg(debug_assertions)]
            last_dividend: None,
        })
    }
}

impl BatchOperator for BatchNaiveDivision {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.divisor_list = hold_all(&mut self.divisor)?;
        #[cfg(debug_assertions)]
        {
            let (all, mut last) = (self.spec.divisor_all_columns(), None);
            for row in 0..self.divisor_list.len() {
                let t = self.divisor_list.tuple_projected(&all, row);
                assert_ascending(&mut last, t, "divisor");
            }
            self.last_dividend = None;
        }
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
        #[cfg(debug_assertions)]
        let sort_keys: Vec<usize> = (self.spec.quotient_keys.iter())
            .chain(&self.spec.divisor_keys)
            .copied()
            .collect();
        for row in 0..batch.len() {
            #[cfg(debug_assertions)]
            {
                let t = batch.tuple_projected(&sort_keys, row);
                assert_ascending(&mut self.last_dividend, t, "dividend");
            }
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
            // Advance the divisor scan against this dividend row.
            let (list, at) = (&self.divisor_list, self.divisor_pos);
            match batch.cmp_rows(&self.spec.divisor_keys, row, list, &all, at) {
                // Dividend value not in the divisor (e.g. a physics
                // course): skip the row, the group is still viable.
                Ordering::Less => {}
                Ordering::Equal => {
                    self.divisor_pos += 1;
                    if self.divisor_pos == self.divisor_list.len() {
                        // "producing a quotient tuple each time the end of
                        // the divisor list is reached."
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
        let config = DivisionConfig::default();
        let engine = Engine {
            storage: &storage,
            config: &config,
        };
        let (r, s) = (
            Source::from_relation(&dividend),
            Source::from_relation(&divisor),
        );
        let quotient = naive_division(&engine, &r, &s, &spec).unwrap();
        let mut out: Vec<i64> = quotient
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
        use reldiv_exec::batch::scan::BatchMemScan;
        // Feeding unsorted inputs directly into BatchNaiveDivision (without
        // the plan's sorts) trips the debug assertion.
        let dividend = transcript(&[[2, 10], [1, 10]]);
        let divisor = courses(&[10]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut op = BatchNaiveDivision::new(
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            spec,
        )
        .unwrap();
        op.open().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while op.next_batch().unwrap().is_some() {}
        }));
        assert!(
            result.is_err(),
            "unsorted dividend must be rejected in debug builds"
        );
    }
}
