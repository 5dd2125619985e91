//! Hash-table overflow handling (Section 3.4): divisor partitioning.
//!
//! "If the available memory is not sufficient for divisor table and
//! quotient table, the input data must be partitioned into disjoint
//! subsets called clusters that can be processed in multiple phases."
//!
//! Quotient partitioning — the dividend partitioned on the quotient
//! attributes, the divisor table resident across the phases — is the
//! adaptive hybrid ([`crate::hybrid`]), which partitions dynamically and
//! spills only what the input needs. What it cannot relieve is a divisor
//! table that does not fit. [`divisor_partitioned_report`] partitions both
//! inputs on the divisor attributes with the same function; each phase is
//! a complete hash-division producing a quotient cluster tagged with its
//! phase number; a final **collection phase** divides the union of the
//! clusters by the set of phase numbers — "this problem is exactly the
//! division problem again", and the phase number replaces the divisor
//! number.
//!
//! Every phase, the collection included, runs the hybrid, so a phase whose
//! quotient table outgrows memory spills incrementally: the paper's
//! "combinations of the techniques", for a divisor and a quotient that both
//! exceed memory. The inputs are partitioned a batch at a time into
//! temporary record files, which the phases read back a page at a time.

use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::{drain_batches, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::hybrid::scatter;
use reldiv_rel::column::ColumnVec;
use reldiv_rel::schema::Field;
use reldiv_rel::{Batch, Relation, Schema, Tuple, Value};
use reldiv_storage::file::Appender;
use reldiv_storage::{FileId, MemoryPool, StorageManager, StorageRef};

use crate::api::Source;
use crate::hash_division::HashDivisionMode;
use crate::hybrid::{adaptive_hybrid_report, DEFAULT_FANOUT};
use crate::report::DegradationReport;
use crate::spec::DivisionSpec;
use crate::{ExecError, Result};

/// Hash-division with divisor partitioning into `partitions` clusters and
/// a collection phase, under `pool`, with cooperative cancellation.
///
/// Accounting into `report`: the cluster files and the collection records
/// are first-time spills (`spill_bytes`), counted as they are written,
/// whether or not the rung then succeeds. What a phase's hybrid writes
/// re-clusters records already in those files, so it is `respool_bytes`.
#[allow(clippy::too_many_arguments)] // the full division context
pub fn divisor_partitioned_report(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: &DivisionSpec,
    partitions: usize,
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    if partitions < 1 {
        return Err(ExecError::Plan(
            "divisor partitioning needs >= 1 cluster".into(),
        ));
    }
    spec.validate(dividend.schema(), divisor.schema())?;
    // A divisor and a dividend file per cluster, then the collection file.
    let files: Vec<FileId> = {
        let mut sm = storage.borrow_mut();
        (0..=2 * partitions)
            .map(|_| sm.create_file(StorageManager::DATA_DISK))
            .collect()
    };
    let outcome = phases(
        storage, pool, dividend, divisor, spec, &files, cancel, report,
    );
    // The temporaries are deleted on every exit path, the first failure to
    // delete one reported after the division's own error.
    let mut sm = storage.borrow_mut();
    let mut cleanup = Ok(());
    for &file in &files {
        cleanup = cleanup.and(sm.delete_file(file));
    }
    let result = outcome?;
    cleanup?;
    Ok(result)
}

/// Partitioning, the phases and the collection phase over `files`,
/// separated so the caller deletes them on every exit path.
#[allow(clippy::too_many_arguments)]
fn phases(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: &DivisionSpec,
    files: &[FileId],
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    let k = files.len() / 2;
    let (divisor_files, dividend_files, collection) = (&files[..k], &files[k..2 * k], files[2 * k]);
    let schemas = [divisor.schema().clone(), dividend.schema().clone()];
    let quotient_schema = spec.quotient_schema(&schemas[1])?;

    // Both inputs are partitioned with the same function of the divisor
    // attributes, a batch at a time.
    let mut records = Vec::new();
    let inputs = [
        (divisor, spec.divisor_all_columns(), divisor_files),
        (dividend, spec.divisor_keys.clone(), dividend_files),
    ];
    for (input, keys, files) in inputs {
        drain_batches(input, cancel, |batch| {
            let cluster = |h: u64| h as usize % k;
            let bytes = scatter(
                storage,
                &batch,
                &keys,
                k,
                cluster,
                |_, c| files[c],
                &mut records,
            )?;
            report.spill_bytes += bytes;
            Ok(())
        })?;
    }

    let sizes = {
        let sm = storage.borrow();
        let sizes = divisor_files.iter().map(|&f| sm.record_count(f));
        sizes.collect::<std::result::Result<Vec<u64>, _>>()?
    };
    let empty_divisor = sizes.iter().all(|&n| n == 0);
    let mut collection_fields = quotient_schema.fields().to_vec();
    collection_fields.push(Field::int("phase"));
    let collection_schema = Schema::new(collection_fields);
    let mut phase_count = 0;
    for c in (0..k).filter(|&c| sizes[c] > 0 || empty_divisor) {
        // Phase c: a complete hash-division of cluster c. (A cluster with
        // no divisor tuples imposes no constraint: its dividend tuples can
        // match nothing and are dropped.)
        let scan = |files: &[FileId], schema: &Schema| {
            Source::from_file(files[c], schema.clone()).scan_batches(storage)
        };
        let mut local = DegradationReport::new();
        let quotient = adaptive_hybrid_report(
            storage,
            pool,
            scan(dividend_files, &schemas[1]),
            scan(divisor_files, &schemas[0]),
            spec,
            HashDivisionMode::Standard,
            DEFAULT_FANOUT,
            cancel,
            None,
            &mut local,
        );
        fold_nested(report, &local);
        // Tag this phase's quotient cluster. Under the empty-divisor
        // special case all phases share tag 0 so the collection phase
        // deduplicates across clusters.
        report.spill_bytes += append_tagged(
            storage,
            collection,
            &collection_schema,
            &quotient?,
            phase_count,
            &mut records,
        )?;
        if !empty_divisor {
            phase_count += 1;
        }
    }
    if empty_divisor {
        phase_count = 1;
    }
    collection_division(
        storage,
        pool,
        collection,
        &collection_schema,
        phase_count,
        cancel,
        report,
    )
}

/// Appends `quotient`'s tuples, each tagged with `tag`, to `file` of
/// `schema` (the quotient's columns and the tag), a batch at a time.
/// Returns the bytes written.
fn append_tagged(
    storage: &StorageRef,
    file: FileId,
    schema: &Schema,
    quotient: &Relation,
    tag: i64,
    records: &mut Vec<u8>,
) -> Result<u64> {
    let mut appender = Appender::new(file);
    let mut bytes = 0;
    for chunk in quotient.tuples().chunks(DEFAULT_BATCH_SIZE) {
        let mut batch = Batch::with_capacity(quotient.schema().clone(), chunk.len());
        chunk.iter().for_each(|t| batch.push_tuple(t));
        let tags = [ColumnVec::Int(vec![tag; chunk.len()])];
        batch.widen(schema.clone(), tags).encode_records(records)?;
        let mut sm = storage.borrow_mut();
        appender.append_records(&mut sm, records, schema.record_width())?;
        bytes += records.len() as u64;
        records.clear();
    }
    Ok(bytes)
}

/// Folds the report of a hybrid run over cluster files into the caller's.
/// What the run wrote re-clusters records already counted when their
/// cluster file was spooled, so its bytes are re-spools, never fresh
/// spills.
fn fold_nested(report: &mut DegradationReport, nested: &DegradationReport) {
    report.degraded |= nested.degraded;
    report.respool_bytes += nested.spill_bytes + nested.respool_bytes;
    report.partitions_spilled += nested.partitions_spilled;
    report.partitions_revived += nested.partitions_revived;
    report.note_recursion(nested.recursion_depth);
}

/// The collection phase — "this problem is exactly the division problem
/// again": divide the tagged quotient clusters by the set of phase
/// numbers, the phase number standing in for the divisor number.
///
/// It runs through the hybrid, so a quotient-candidate set larger than
/// memory spills incrementally instead of aborting the whole rung
/// (divisor partitioning bounds the per-phase *divisor* table, never the
/// candidate count).
fn collection_division(
    storage: &StorageRef,
    pool: &MemoryPool,
    collection_file: FileId,
    collection_schema: &Schema,
    phase_count: i64,
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    let phases = Relation::from_tuples(
        Schema::new(vec![Field::int("phase")]),
        (0..phase_count)
            .map(|p| Tuple::new(vec![Value::Int(p)]))
            .collect(),
    )
    .map_err(ExecError::from)?;
    let spec = DivisionSpec::trailing_divisor(collection_schema, phases.schema())?;
    let dividend = Source::from_file(collection_file, collection_schema.clone());
    let mut local = DegradationReport::new();
    let result = adaptive_hybrid_report(
        storage,
        pool,
        dividend.scan_batches(storage),
        Box::new(BatchMemScan::new(phases)),
        &spec,
        HashDivisionMode::Standard,
        DEFAULT_FANOUT,
        cancel,
        None,
        &mut local,
    );
    fold_nested(report, &local);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::adaptive_hybrid;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::StorageConfig;

    pub(super) fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    pub(super) fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::large())
    }

    pub(super) fn sids(rel: &Relation) -> Vec<i64> {
        let mut v: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        v.sort_unstable();
        v
    }

    /// Divisor partitioning into `k` clusters under `pool`: the sorted
    /// quotient and the report. It leaves no file and no pin behind.
    pub(super) fn divide_by_clusters(
        dividend: &Relation,
        divisor: &Relation,
        k: usize,
        pool: &MemoryPool,
    ) -> Result<(Vec<i64>, DegradationReport)> {
        let st = storage();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut report = DegradationReport::new();
        let rel = divisor_partitioned_report(
            &st,
            pool,
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            &spec,
            k,
            CancelToken::none(),
            &mut report,
        );
        let sm = st.borrow();
        assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
        Ok((sids(&rel?), report))
    }

    fn dp(dividend: &Relation, divisor: &Relation, k: usize) -> Vec<i64> {
        let pool = MemoryPool::unbounded();
        divide_by_clusters(dividend, divisor, k, &pool).unwrap().0
    }

    /// Quotient partitioning, which the hybrid does, at fanout `k`.
    fn qp(dividend: &Relation, divisor: &Relation, k: usize) -> Vec<i64> {
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (rel, _) = adaptive_hybrid(
            &storage(),
            &MemoryPool::unbounded(),
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            &spec,
            HashDivisionMode::Standard,
            k,
        )
        .unwrap();
        sids(&rel)
    }

    fn workload() -> (Relation, Relation, Vec<i64>) {
        // 40 students; student s took courses 0..(s % 13 + 1); divisor is
        // courses 0..8, so students with s % 13 >= 7 qualify.
        let mut rows = Vec::new();
        for s in 0..40i64 {
            for c in 0..=(s % 13) {
                rows.push([s, c]);
            }
        }
        let expected: Vec<i64> = (0..40).filter(|s| s % 13 >= 7).collect();
        (
            transcript(&rows),
            courses(&(0..8).collect::<Vec<_>>()),
            expected,
        )
    }

    #[test]
    fn quotient_partitioning_matches_plain_division() {
        let (dividend, divisor, expected) = workload();
        for k in [2, 3, 7, 16] {
            assert_eq!(qp(&dividend, &divisor, k), expected, "k={k}");
        }
    }

    #[test]
    fn divisor_partitioning_matches_plain_division() {
        let (dividend, divisor, expected) = workload();
        for k in [1, 2, 3, 7, 16] {
            assert_eq!(dp(&dividend, &divisor, k), expected, "k={k}");
        }
    }

    #[test]
    fn empty_divisor_is_vacuous_under_both_partitionings() {
        let dividend = transcript(&[[1, 10], [2, 20], [1, 30]]);
        let divisor = courses(&[]);
        assert_eq!(qp(&dividend, &divisor, 4), vec![1, 2]);
        assert_eq!(dp(&dividend, &divisor, 4), vec![1, 2]);
    }

    #[test]
    fn empty_dividend_is_empty_under_both_partitionings() {
        let dividend = transcript(&[]);
        let divisor = courses(&[1, 2]);
        assert_eq!(qp(&dividend, &divisor, 3), Vec::<i64>::new());
        assert_eq!(dp(&dividend, &divisor, 3), Vec::<i64>::new());
    }

    #[test]
    fn duplicates_are_still_ignored_when_partitioned() {
        let dividend = transcript(&[[1, 10], [1, 10], [1, 20], [2, 10], [2, 10], [3, 99]]);
        let divisor = courses(&[10, 20, 10]);
        assert_eq!(qp(&dividend, &divisor, 4), vec![1]);
        assert_eq!(dp(&dividend, &divisor, 4), vec![1]);
    }

    /// 3000 quotient candidates of 2 courses each.
    fn pairs() -> (Relation, Relation) {
        let rows: Vec<[i64; 2]> = (0..3000).flat_map(|q| [[q, 1], [q, 2]]).collect();
        (transcript(&rows), courses(&[1, 2]))
    }

    #[test]
    fn partitioned_quotient_fits_in_smaller_pool() {
        // A pool too small for one quotient table: plain division exhausts
        // it, while divisor partitioning's phases spill what does not fit.
        let (dividend, divisor) = pairs();
        let pool = MemoryPool::new(80 * 1024);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut plain = crate::batch_div::BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            spec,
            HashDivisionMode::Standard,
            pool.clone(),
        )
        .unwrap();
        let err = reldiv_exec::batch::BatchOperator::open(&mut plain).unwrap_err();
        assert!(err.is_memory_exhausted(), "{err}");
        drop(plain);
        let (quotient, report) = divide_by_clusters(&dividend, &divisor, 2, &pool).unwrap();
        assert_eq!(quotient, (0..3000).collect::<Vec<_>>());
        assert!(report.partitions_spilled > 0, "{report:?}");
    }

    #[test]
    fn a_spilling_phase_respools_and_never_spills() {
        // The same division with and without room for a phase's quotient
        // table: what the squeezed phases write is all re-spool, so the
        // first-time spills — cluster and collection files — are equal.
        let (dividend, divisor) = pairs();
        let run = |pool| divide_by_clusters(&dividend, &divisor, 2, &pool).unwrap();
        let (roomy_quotient, roomy) = run(MemoryPool::unbounded());
        let (squeezed_quotient, squeezed) = run(MemoryPool::new(48 * 1024));
        assert_eq!(squeezed_quotient, roomy_quotient);
        assert_eq!((roomy.respool_bytes, roomy.partitions_spilled), (0, 0));
        assert!(squeezed.partitions_spilled > 0, "{squeezed:?}");
        assert!(squeezed.respool_bytes > 0, "{squeezed:?}");
        assert!(squeezed.degraded, "{squeezed:?}");
        assert_eq!(squeezed.spill_bytes, roomy.spill_bytes);
    }

    #[test]
    fn too_few_partitions_is_a_plan_error() {
        let dividend = transcript(&[[1, 1]]);
        let divisor = courses(&[1]);
        let err = divide_by_clusters(&dividend, &divisor, 0, &MemoryPool::unbounded());
        assert!(matches!(err, Err(ExecError::Plan(_))), "{err:?}");
    }
}

/// The combination of Section 3.4's two techniques: divisor partitioning
/// whose phases do not fit either, and so spill in the hybrid.
#[cfg(test)]
mod combined_tests {
    use super::tests::{courses, divide_by_clusters, transcript};
    use super::*;
    use crate::api::{divide_with_report, DivisionConfig, OverflowPolicy};
    use crate::hash_division::DivisorTable;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::StorageConfig;

    #[test]
    fn combined_matches_plain_division() {
        let mut rows = Vec::new();
        for s in 0..2000i64 {
            for c in 0..=(s % 9) {
                rows.push([s, c]);
            }
        }
        let expected: Vec<i64> = (0..2000).filter(|s| s % 9 >= 5).collect();
        let (dividend, divisor) = (transcript(&rows), courses(&(0..6).collect::<Vec<_>>()));
        for k in [1, 2, 3, 5] {
            let pool = MemoryPool::new(24 * 1024);
            let (got, report) = divide_by_clusters(&dividend, &divisor, k, &pool).unwrap();
            assert_eq!(got, expected, "k={k}");
            assert!(report.partitions_spilled > 0, "k={k}: {report:?}");
        }
    }

    #[test]
    fn combined_handles_empty_inputs() {
        let rows: Vec<[i64; 2]> = (0..4000i64).map(|q| [q, q % 7]).collect();
        let pool = MemoryPool::new(24 * 1024);
        let (got, report) =
            divide_by_clusters(&transcript(&rows), &courses(&[]), 3, &pool).unwrap();
        assert_eq!(got, (0..4000).collect::<Vec<_>>(), "vacuous divisor");
        assert!(report.partitions_spilled > 0, "{report:?}");
        let (got, _) = divide_by_clusters(&transcript(&[]), &courses(&[1]), 3, &pool).unwrap();
        assert_eq!(got, Vec::<i64>::new());
    }

    #[test]
    fn combined_fits_when_neither_single_strategy_would() {
        // Large divisor (4000 tuples) AND large quotient (4000 candidates).
        // Every candidate takes 3 consecutive divisor values; one more
        // takes all 4000 and is the whole quotient.
        let mut rows = Vec::new();
        for q in 0..4000i64 {
            rows.extend([[q, q], [q, (q + 1) % 4000], [q, (q + 2) % 4000]]);
        }
        rows.extend((0..4000).map(|d| [4_000_000, d]));
        let (dividend, divisor) = (transcript(&rows), courses(&(0..4000).collect::<Vec<_>>()));
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        // Three quarters of the divisor table: the hybrid, which keeps all
        // of it resident, cannot start.
        let table = MemoryPool::unbounded();
        let mut scan: BoxedBatchOp = Box::new(BatchMemScan::new(divisor.clone()));
        DivisorTable::build_batch(&mut scan, &table, CancelToken::none()).unwrap();
        let divide = |overflow| {
            let st = StorageManager::shared(StorageConfig {
                work_memory_bytes: table.peak() * 3 / 4,
                buffer_bytes: 1 << 23,
                ..StorageConfig::paper()
            });
            let outcome = divide_with_report(
                &st,
                &Source::from_relation(&dividend),
                &Source::from_relation(&divisor),
                &spec,
                crate::Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                &DivisionConfig {
                    overflow,
                    ..Default::default()
                },
            );
            let sm = st.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
            outcome
        };
        let err = divide(OverflowPolicy::Adaptive).unwrap_err();
        assert!(err.is_memory_exhausted(), "{err}");
        for overflow in [
            OverflowPolicy::DivisorPartition { partitions: 8 },
            OverflowPolicy::Auto,
        ] {
            let (rel, report) = divide(overflow).unwrap();
            assert_eq!(rel.tuples(), [ints(&[4_000_000])], "{overflow:?}");
            let last = report.final_phase().unwrap();
            assert!(last.starts_with("divisor-partitioned k="), "{report:?}");
            // No phase's quotient table fits whole either.
            assert!(report.partitions_spilled > 0, "{report:?}");
        }
    }
}
