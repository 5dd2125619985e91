//! Hash-table overflow handling (Section 3.4).
//!
//! "If the available memory is not sufficient for divisor table and
//! quotient table, the input data must be partitioned into disjoint
//! subsets called clusters that can be processed in multiple phases."
//!
//! * [`quotient_partitioned`] — the dividend is partitioned on the
//!   quotient attributes; each phase divides one dividend cluster by the
//!   *entire* divisor (the divisor table stays resident across phases);
//!   the quotient is the concatenation of the per-phase quotients. The
//!   first cluster is processed in memory while the others are spooled,
//!   in the style of hybrid hash-join.
//! * [`divisor_partitioned`] — both inputs are partitioned on the divisor
//!   attributes with the same function; each phase is a complete
//!   hash-division producing a quotient cluster tagged with its phase
//!   number; a final **collection phase** divides the union of the
//!   clusters by the set of phase numbers — "this problem is exactly the
//!   division problem again", and the phase number replaces the divisor
//!   number, so the collection phase skips step 1.
//!
//! Both strategies process clusters through temporary record files, whose
//! pages often never leave the buffer pool.

use reldiv_exec::batch::scan::{BatchFileScan, BatchMemScan};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::op::BoxedOp;
use reldiv_rel::{RecordCodec, Relation, Schema, Tuple, Value};
use reldiv_storage::file::ScanCursor;
use reldiv_storage::{FileId, MemoryPool, StorageManager, StorageRef};

use crate::hash_division::{DivisorTable, HashDivisionMode, QuotientTable};
use crate::hybrid::{adaptive_hybrid_report, DEFAULT_FANOUT};
use crate::report::DegradationReport;
use crate::spec::DivisionSpec;
use crate::{ExecError, Result};

/// Spools tuples into per-cluster temporary files, counting spilled bytes.
struct ClusterWriter {
    codec: RecordCodec,
    files: Vec<FileId>,
    buf: Vec<u8>,
    spilled: u64,
}

impl ClusterWriter {
    fn new(storage: &StorageRef, schema: Schema, clusters: usize) -> Self {
        let mut sm = storage.borrow_mut();
        let files = (0..clusters)
            .map(|_| sm.create_file(StorageManager::DATA_DISK))
            .collect();
        ClusterWriter {
            codec: RecordCodec::new(schema),
            files,
            buf: Vec::new(),
            spilled: 0,
        }
    }

    fn write(&mut self, storage: &StorageRef, cluster: usize, t: &Tuple) -> Result<()> {
        self.buf.clear();
        self.codec.encode_into(t, &mut self.buf)?;
        self.spilled += self.buf.len() as u64;
        storage
            .borrow_mut()
            .append(self.files[cluster], &self.buf)?;
        Ok(())
    }

    fn delete_all(&self, storage: &StorageRef) -> Result<()> {
        let mut sm = storage.borrow_mut();
        for &f in &self.files {
            sm.delete_file(f)?;
        }
        Ok(())
    }
}

/// Reads one cluster file back, tuple at a time.
fn for_each_record(
    storage: &StorageRef,
    file: FileId,
    codec: &RecordCodec,
    mut f: impl FnMut(Tuple) -> Result<()>,
) -> Result<()> {
    let mut cursor = ScanCursor::new(file);
    loop {
        let next = {
            let mut sm = storage.borrow_mut();
            cursor.next(&mut sm)?
        };
        match next {
            Some((_, record)) => f(codec.decode(record)?)?,
            None => return Ok(()),
        }
    }
}

/// Hash-division with quotient partitioning.
///
/// `partitions` must be at least 2 (one resident cluster + spooled ones);
/// the divisor table must fit in memory — quotient partitioning only
/// relieves quotient-table pressure ("the divisor table must be kept in
/// main memory during all phases").
pub fn quotient_partitioned(
    storage: &StorageRef,
    dividend: BoxedOp,
    divisor: BoxedOp,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    partitions: usize,
) -> Result<Relation> {
    let mut report = DegradationReport::new();
    let pool = storage.borrow().memory();
    quotient_partitioned_report(
        storage,
        &pool,
        dividend,
        divisor,
        spec,
        mode,
        partitions,
        CancelToken::none(),
        &mut report,
    )
}

/// [`quotient_partitioned`] with an explicit memory pool (per-query
/// budgets use a child pool), cooperative cancellation, and spill
/// accounting into `report`.
#[allow(clippy::too_many_arguments)] // mirrors quotient_partitioned + context
pub fn quotient_partitioned_report(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: BoxedOp,
    divisor: BoxedOp,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    partitions: usize,
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    quotient_partitioned_impl(
        storage, pool, dividend, divisor, spec, mode, partitions, cancel, report, false,
    )
}

/// The shared implementation. `respool` routes the cluster-file bytes to
/// `report.respool_bytes` instead of `spill_bytes` — combined partitioning
/// uses it for its inner per-phase divisions, whose inputs are cluster
/// files that were already counted when first spooled (double-counting
/// them as fresh spills was a long-standing accounting bug).
#[allow(clippy::too_many_arguments)]
pub(crate) fn quotient_partitioned_impl(
    storage: &StorageRef,
    pool: &MemoryPool,
    mut dividend: BoxedOp,
    mut divisor: BoxedOp,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    partitions: usize,
    cancel: CancelToken,
    report: &mut DegradationReport,
    respool: bool,
) -> Result<Relation> {
    if partitions < 2 {
        return Err(ExecError::Plan(
            "quotient partitioning needs >= 2 clusters".into(),
        ));
    }
    spec.validate(dividend.schema(), divisor.schema())?;
    let quotient_schema = spec.quotient_schema(dividend.schema())?;

    // Step 1 once: the divisor table is resident for every phase. Built
    // before any temporary file exists, so its exhaustion leaks nothing.
    let dt = DivisorTable::build(&mut divisor, pool)?;

    let mut writer = ClusterWriter::new(storage, dividend.schema().clone(), partitions - 1);
    let outcome = quotient_partitioned_phases(
        storage,
        pool,
        &mut dividend,
        &dt,
        spec,
        mode,
        partitions,
        cancel,
        &mut writer,
        &quotient_schema,
    );
    // Spooled bytes are accounted and the temporary cluster files deleted
    // whether the rung succeeded or was abandoned mid-phase: an abandoned
    // rung used to leak both the files and the byte count.
    if respool {
        report.respool_bytes += writer.spilled;
    } else {
        report.spill_bytes += writer.spilled;
    }
    let cleanup = writer.delete_all(storage);
    let result = outcome?;
    cleanup?;
    Ok(result)
}

/// Streaming + per-cluster phases of quotient partitioning, separated so
/// the caller can account and clean up on every exit path.
#[allow(clippy::too_many_arguments)]
fn quotient_partitioned_phases(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: &mut BoxedOp,
    dt: &DivisorTable,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    partitions: usize,
    cancel: CancelToken,
    writer: &mut ClusterWriter,
    quotient_schema: &Schema,
) -> Result<Relation> {
    let lookup = |t: &Tuple| -> Option<Option<u32>> {
        if dt.count() == 0 {
            Some(None) // empty divisor: vacuously matched
        } else {
            dt.lookup(t, &spec.divisor_keys).map(Some)
        }
    };

    let mut result = Relation::empty(quotient_schema.clone());
    let emit = |qt: &mut QuotientTable, result: &mut Relation| -> Result<()> {
        while let Some(t) = qt.next_complete() {
            result.push(t).map_err(ExecError::from)?;
        }
        Ok(())
    };

    // Cluster 0 is processed while the dividend streams (hybrid style);
    // clusters 1..k are spooled on the quotient-attribute hash.
    let mut resident = QuotientTable::new(
        pool,
        mode,
        dt.count(),
        spec.quotient_keys.clone(),
        quotient_schema.record_width(),
    )?;
    let mut budget = 0u32;
    dividend.open()?;
    while let Some(t) = dividend.next()? {
        cancel.checkpoint(&mut budget)?;
        let cluster = (t.hash_on(&spec.quotient_keys) as usize) % partitions;
        if cluster == 0 {
            if let Some(dno) = lookup(&t) {
                if let Some(q) = resident.absorb(&t, dno)? {
                    result.push(q).map_err(ExecError::from)?;
                }
            }
        } else {
            writer.write(storage, cluster - 1, &t)?;
        }
    }
    dividend.close()?;
    emit(&mut resident, &mut result)?;
    drop(resident);

    // Remaining phases: one spooled cluster at a time against the
    // resident divisor table.
    let codec = writer.codec.clone();
    for i in 0..partitions - 1 {
        let mut qt = QuotientTable::new(
            pool,
            mode,
            dt.count(),
            spec.quotient_keys.clone(),
            quotient_schema.record_width(),
        )?;
        let mut early: Vec<Tuple> = Vec::new();
        for_each_record(storage, writer.files[i], &codec, |t| {
            cancel.checkpoint(&mut budget)?;
            if let Some(dno) = lookup(&t) {
                if let Some(q) = qt.absorb(&t, dno)? {
                    early.push(q);
                }
            }
            Ok(())
        })?;
        for q in early {
            result.push(q).map_err(ExecError::from)?;
        }
        emit(&mut qt, &mut result)?;
    }
    Ok(result)
}

/// Hash-division with divisor partitioning and a collection phase.
pub fn divisor_partitioned(
    storage: &StorageRef,
    dividend: BoxedOp,
    divisor: BoxedOp,
    spec: &DivisionSpec,
    partitions: usize,
) -> Result<Relation> {
    let mut report = DegradationReport::new();
    let pool = storage.borrow().memory();
    divisor_partitioned_report(
        storage,
        &pool,
        dividend,
        divisor,
        spec,
        partitions,
        CancelToken::none(),
        &mut report,
    )
}

/// [`divisor_partitioned`] with an explicit memory pool, cooperative
/// cancellation, and spill accounting into `report`.
#[allow(clippy::too_many_arguments)] // mirrors divisor_partitioned + context
pub fn divisor_partitioned_report(
    storage: &StorageRef,
    pool: &MemoryPool,
    mut dividend: BoxedOp,
    mut divisor: BoxedOp,
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
    let quotient_schema = spec.quotient_schema(dividend.schema())?;

    let mut divisor_writer = ClusterWriter::new(storage, divisor.schema().clone(), partitions);
    let mut dividend_writer = ClusterWriter::new(storage, dividend.schema().clone(), partitions);
    let collection_file = storage.borrow_mut().create_file(StorageManager::DATA_DISK);
    let mut collection_spilled = 0u64;
    let outcome = divisor_partitioned_phases(
        storage,
        pool,
        &mut dividend,
        &mut divisor,
        spec,
        partitions,
        cancel,
        &quotient_schema,
        &mut divisor_writer,
        &mut dividend_writer,
        collection_file,
        &mut collection_spilled,
        report,
    );
    // Spooled bytes (cluster files + the collection file) are accounted
    // and the temporaries deleted on every exit path — a phase abandoned
    // by memory exhaustion used to leak all three files and report none
    // of the bytes it had already written.
    report.spill_bytes += divisor_writer.spilled + dividend_writer.spilled + collection_spilled;
    let cleanup_divisor = divisor_writer.delete_all(storage);
    let cleanup_dividend = dividend_writer.delete_all(storage);
    let cleanup_collection = storage.borrow_mut().delete_file(collection_file);
    let result = outcome?;
    cleanup_divisor?;
    cleanup_dividend?;
    cleanup_collection?;
    Ok(result)
}

/// The phases of divisor partitioning, separated so the caller can
/// account and clean up on every exit path.
#[allow(clippy::too_many_arguments)]
fn divisor_partitioned_phases(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: &mut BoxedOp,
    divisor: &mut BoxedOp,
    spec: &DivisionSpec,
    partitions: usize,
    cancel: CancelToken,
    quotient_schema: &Schema,
    divisor_writer: &mut ClusterWriter,
    dividend_writer: &mut ClusterWriter,
    collection_file: FileId,
    collection_spilled: &mut u64,
    report: &mut DegradationReport,
) -> Result<Relation> {
    // Partition the divisor and the dividend with the same function
    // applied to the divisor attributes.
    let divisor_all = spec.divisor_all_columns();
    let mut divisor_cluster_sizes = vec![0u64; partitions];
    let mut budget = 0u32;
    divisor.open()?;
    while let Some(t) = divisor.next()? {
        cancel.checkpoint(&mut budget)?;
        let cluster = (t.hash_on(&divisor_all) as usize) % partitions;
        divisor_cluster_sizes[cluster] += 1;
        divisor_writer.write(storage, cluster, &t)?;
    }
    divisor.close()?;

    dividend.open()?;
    while let Some(t) = dividend.next()? {
        cancel.checkpoint(&mut budget)?;
        let cluster = (t.hash_on(&spec.divisor_keys) as usize) % partitions;
        dividend_writer.write(storage, cluster, &t)?;
    }
    dividend.close()?;

    // The quotient clusters, tagged with dense phase numbers, spooled to a
    // collection file with schema (quotient..., phase).
    let mut collection_schema_fields = quotient_schema.fields().to_vec();
    collection_schema_fields.push(reldiv_rel::schema::Field::int("phase"));
    let collection_schema = Schema::new(collection_schema_fields);
    let collection_codec = RecordCodec::new(collection_schema.clone());

    let empty_divisor = divisor_cluster_sizes.iter().all(|&n| n == 0);
    let mut phase_count: u32 = 0;
    let divisor_codec = divisor_writer.codec.clone();
    let dividend_codec = dividend_writer.codec.clone();
    let mut spool_q = |q: Tuple, phase: u32| -> Result<()> {
        let mut vals = q.into_values();
        vals.push(reldiv_rel::Value::Int(phase as i64));
        let record = collection_codec.encode(&Tuple::new(vals))?;
        *collection_spilled += record.len() as u64;
        storage.borrow_mut().append(collection_file, &record)?;
        Ok(())
    };

    #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
    for i in 0..partitions {
        if divisor_cluster_sizes[i] == 0 && !empty_divisor {
            // A phase with no divisor tuples imposes no constraint; its
            // dividend tuples can match nothing and are dropped.
            continue;
        }
        // Phase i: a complete hash-division of cluster i.
        let dt = if divisor_cluster_sizes[i] == 0 {
            None // empty-divisor special case: distinct projection
        } else {
            let mut scan: BoxedOp = Box::new(reldiv_exec::scan::FileScan::new(
                storage.clone(),
                divisor_writer.files[i],
                divisor_codec.schema().clone(),
            ));
            Some(DivisorTable::build(&mut scan, pool)?)
        };
        let divisor_count = dt.as_ref().map_or(0, DivisorTable::count);
        let mut qt = QuotientTable::new(
            pool,
            HashDivisionMode::Standard,
            divisor_count,
            spec.quotient_keys.clone(),
            quotient_schema.record_width(),
        )?;
        for_each_record(storage, dividend_writer.files[i], &dividend_codec, |t| {
            cancel.checkpoint(&mut budget)?;
            let dno = match &dt {
                None => Some(None),
                Some(dt) => dt.lookup(&t, &spec.divisor_keys).map(Some),
            };
            if let Some(dno) = dno {
                qt.absorb(&t, dno)?;
            }
            Ok(())
        })?;
        // Tag this phase's quotient cluster. Under the empty-divisor
        // special case all phases share tag 0 so the collection phase
        // deduplicates across clusters.
        let tag = if empty_divisor { 0 } else { phase_count };
        while let Some(q) = qt.next_complete() {
            spool_q(q, tag)?;
        }
        if !empty_divisor {
            phase_count += 1;
        }
    }
    if empty_divisor {
        phase_count = 1;
    }

    // Collection phase: divide the union of the quotient clusters by the
    // set of phase numbers, using the phase number as the divisor value
    // (skipping step 1 of hash-division).
    collection_division(
        storage,
        pool,
        collection_file,
        &collection_schema,
        phase_count,
        cancel,
        report,
    )
}

/// The collection phase shared by divisor and combined partitioning —
/// "this problem is exactly the division problem again": divide the
/// tagged quotient clusters by the set of phase numbers.
///
/// It runs through the memory-adaptive hybrid, so a quotient-candidate
/// set larger than memory spills incrementally instead of aborting the
/// whole rung (divisor partitioning bounds the per-phase *divisor*
/// table, never the candidate count). Its writes re-cluster records
/// already counted when the collection file was spooled, so they fold
/// into the caller's report as re-spools, never fresh spills.
fn collection_division(
    storage: &StorageRef,
    pool: &MemoryPool,
    collection_file: FileId,
    collection_schema: &Schema,
    phase_count: u32,
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    let phases = Relation::from_tuples(
        Schema::new(vec![reldiv_rel::schema::Field::int("phase")]),
        (0..i64::from(phase_count))
            .map(|p| Tuple::new(vec![Value::Int(p)]))
            .collect(),
    )
    .map_err(ExecError::from)?;
    let spec = DivisionSpec::trailing_divisor(collection_schema, phases.schema())?;
    let dividend = BatchFileScan::new(storage.clone(), collection_file, collection_schema.clone());
    let mut local = DegradationReport::new();
    let result = adaptive_hybrid_report(
        storage,
        pool,
        Box::new(dividend),
        Box::new(BatchMemScan::new(phases)),
        &spec,
        HashDivisionMode::Standard,
        DEFAULT_FANOUT,
        cancel,
        None,
        &mut local,
    )?;
    if local.degraded {
        report.respool_bytes += local.spill_bytes + local.respool_bytes;
        report.partitions_spilled += local.partitions_spilled;
        report.partitions_revived += local.partitions_revived;
        report.recursion_depth = report.recursion_depth.max(local.recursion_depth);
        report.note_phase("collection: adaptive");
    }
    Ok(result)
}

/// Combined partitioning: divisor partitioning whose per-phase divisions
/// are themselves quotient-partitioned.
///
/// Section 3.4's fourth question — "what happens if neither one of these
/// partitioning strategies work because both divisor and quotient are too
/// large? In this case it will be necessary to resort to combinations of
/// the techniques" — and Section 6's closing remark about the optimal mix.
/// Each divisor-attribute phase must only hold `1/divisor_partitions` of
/// the divisor table and `1/quotient_partitions` of that phase's quotient
/// table at a time. (The final collection phase still gathers all
/// quotient candidates; decentralizing *it* is the parallel engine's
/// job.)
pub fn combined_partitioned(
    storage: &StorageRef,
    dividend: BoxedOp,
    divisor: BoxedOp,
    spec: &DivisionSpec,
    divisor_partitions: usize,
    quotient_partitions: usize,
) -> Result<Relation> {
    let mut report = DegradationReport::new();
    let pool = storage.borrow().memory();
    combined_partitioned_report(
        storage,
        &pool,
        dividend,
        divisor,
        spec,
        divisor_partitions,
        quotient_partitions,
        CancelToken::none(),
        &mut report,
    )
}

/// [`combined_partitioned`] with an explicit memory pool, cooperative
/// cancellation, and spill accounting into `report`.
///
/// Accounting: the divisor/dividend cluster files and the collection
/// records are first-time spills (`spill_bytes`); the inner per-phase
/// quotient partitionings re-cluster data that is *already* in cluster
/// files, so their bytes land in `respool_bytes`.
#[allow(clippy::too_many_arguments)] // mirrors combined_partitioned + context
pub fn combined_partitioned_report(
    storage: &StorageRef,
    pool: &MemoryPool,
    mut dividend: BoxedOp,
    mut divisor: BoxedOp,
    spec: &DivisionSpec,
    divisor_partitions: usize,
    quotient_partitions: usize,
    cancel: CancelToken,
    report: &mut DegradationReport,
) -> Result<Relation> {
    if divisor_partitions < 1 || quotient_partitions < 2 {
        return Err(ExecError::Plan(
            "combined partitioning needs >= 1 divisor and >= 2 quotient clusters".into(),
        ));
    }
    spec.validate(dividend.schema(), divisor.schema())?;
    let quotient_schema = spec.quotient_schema(dividend.schema())?;
    let k = divisor_partitions;

    let mut divisor_writer = ClusterWriter::new(storage, divisor.schema().clone(), k);
    let mut dividend_writer = ClusterWriter::new(storage, dividend.schema().clone(), k);
    let collection_file = storage.borrow_mut().create_file(StorageManager::DATA_DISK);
    let mut collection_spilled = 0u64;
    let outcome = combined_partitioned_phases(
        storage,
        pool,
        &mut dividend,
        &mut divisor,
        spec,
        k,
        quotient_partitions,
        cancel,
        &quotient_schema,
        &mut divisor_writer,
        &mut dividend_writer,
        collection_file,
        &mut collection_spilled,
        report,
    );
    report.spill_bytes += divisor_writer.spilled + dividend_writer.spilled + collection_spilled;
    let cleanup_divisor = divisor_writer.delete_all(storage);
    let cleanup_dividend = dividend_writer.delete_all(storage);
    let cleanup_collection = storage.borrow_mut().delete_file(collection_file);
    let result = outcome?;
    cleanup_divisor?;
    cleanup_dividend?;
    cleanup_collection?;
    Ok(result)
}

/// The phases of combined partitioning, separated so the caller can
/// account and clean up on every exit path.
#[allow(clippy::too_many_arguments)]
fn combined_partitioned_phases(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: &mut BoxedOp,
    divisor: &mut BoxedOp,
    spec: &DivisionSpec,
    k: usize,
    quotient_partitions: usize,
    cancel: CancelToken,
    quotient_schema: &Schema,
    divisor_writer: &mut ClusterWriter,
    dividend_writer: &mut ClusterWriter,
    collection_file: FileId,
    collection_spilled: &mut u64,
    report: &mut DegradationReport,
) -> Result<Relation> {
    // Partition both inputs on the divisor attributes (as in
    // `divisor_partitioned`).
    let divisor_all = spec.divisor_all_columns();
    let mut divisor_cluster_sizes = vec![0u64; k];
    let mut budget = 0u32;
    divisor.open()?;
    while let Some(t) = divisor.next()? {
        cancel.checkpoint(&mut budget)?;
        let cluster = (t.hash_on(&divisor_all) as usize) % k;
        divisor_cluster_sizes[cluster] += 1;
        divisor_writer.write(storage, cluster, &t)?;
    }
    divisor.close()?;
    dividend.open()?;
    while let Some(t) = dividend.next()? {
        cancel.checkpoint(&mut budget)?;
        let cluster = (t.hash_on(&spec.divisor_keys) as usize) % k;
        dividend_writer.write(storage, cluster, &t)?;
    }
    dividend.close()?;

    let empty_divisor = divisor_cluster_sizes.iter().all(|&n| n == 0);
    let mut collection_schema_fields = quotient_schema.fields().to_vec();
    collection_schema_fields.push(reldiv_rel::schema::Field::int("phase"));
    let collection_schema = Schema::new(collection_schema_fields);
    let collection_codec = RecordCodec::new(collection_schema.clone());
    let mut phase_count: u32 = 0;

    #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
    for i in 0..k {
        if divisor_cluster_sizes[i] == 0 && !empty_divisor {
            continue;
        }
        // Each phase is itself a quotient-partitioned hash-division of
        // cluster i's dividend by cluster i's divisor. The phase re-reads
        // and re-clusters data already spooled above, so its bytes are
        // respool, not fresh spill.
        let dividend_scan: BoxedOp = Box::new(reldiv_exec::scan::FileScan::new(
            storage.clone(),
            dividend_writer.files[i],
            dividend_writer.codec.schema().clone(),
        ));
        let divisor_scan: BoxedOp = Box::new(reldiv_exec::scan::FileScan::new(
            storage.clone(),
            divisor_writer.files[i],
            divisor_writer.codec.schema().clone(),
        ));
        let phase_quotient = quotient_partitioned_impl(
            storage,
            pool,
            dividend_scan,
            divisor_scan,
            spec,
            HashDivisionMode::Standard,
            quotient_partitions,
            cancel,
            report,
            true,
        )?;
        let tag = if empty_divisor { 0 } else { phase_count };
        for q in phase_quotient.into_tuples() {
            let mut vals = q.into_values();
            vals.push(reldiv_rel::Value::Int(tag as i64));
            let record = collection_codec.encode(&Tuple::new(vals))?;
            *collection_spilled += record.len() as u64;
            storage.borrow_mut().append(collection_file, &record)?;
        }
        if !empty_divisor {
            phase_count += 1;
        }
    }
    if empty_divisor {
        phase_count = 1;
    }

    // Collection phase, identical to `divisor_partitioned`'s.
    collection_division(
        storage,
        pool,
        collection_file,
        &collection_schema,
        phase_count,
        cancel,
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_exec::scan::MemScan;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::StorageConfig;

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::large())
    }

    fn sids(rel: &Relation) -> Vec<i64> {
        let mut v: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        v.sort_unstable();
        v
    }

    fn qp(dividend: &Relation, divisor: &Relation, k: usize) -> Vec<i64> {
        let st = storage();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let rel = quotient_partitioned(
            &st,
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            &spec,
            HashDivisionMode::Standard,
            k,
        )
        .unwrap();
        sids(&rel)
    }

    fn dp(dividend: &Relation, divisor: &Relation, k: usize) -> Vec<i64> {
        let st = storage();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let rel = divisor_partitioned(
            &st,
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            &spec,
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

    #[test]
    fn partitioned_quotient_fits_in_smaller_pool() {
        // 3000 quotient candidates of 2 courses each; a pool too small for
        // one quotient table but big enough for an eighth of it at a time.
        let mut rows = Vec::new();
        for q in 0..3000i64 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let st = StorageManager::shared(StorageConfig {
            data_page_size: 8192,
            run_page_size: 1024,
            buffer_bytes: 1 << 22,
            work_memory_bytes: 80 * 1024,
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        // Plain division exhausts the pool...
        let plain = crate::hash_division::HashDivision::new(
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            spec.clone(),
            HashDivisionMode::Standard,
            st.borrow().memory(),
        );
        let mut plain = plain.unwrap();
        assert!(reldiv_exec::Operator::open(&mut plain)
            .unwrap_err()
            .is_memory_exhausted());
        drop(plain);
        // ...but 8 quotient clusters fit.
        let rel = quotient_partitioned(
            &st,
            Box::new(MemScan::new(dividend)),
            Box::new(MemScan::new(divisor)),
            &spec,
            HashDivisionMode::Standard,
            8,
        )
        .unwrap();
        assert_eq!(rel.cardinality(), 3000);
    }

    #[test]
    fn too_few_partitions_is_a_plan_error() {
        let dividend = transcript(&[[1, 1]]);
        let divisor = courses(&[1]);
        let st = storage();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        assert!(quotient_partitioned(
            &st,
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            &spec,
            HashDivisionMode::Standard,
            1,
        )
        .is_err());
        assert!(divisor_partitioned(
            &st,
            Box::new(MemScan::new(dividend)),
            Box::new(MemScan::new(divisor)),
            &spec,
            0,
        )
        .is_err());
    }
}

#[cfg(test)]
mod combined_tests {
    use super::*;
    use reldiv_exec::scan::MemScan;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::StorageConfig;

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn cp(dividend: &Relation, divisor: &Relation, dk: usize, qk: usize) -> Vec<i64> {
        let st = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let rel = combined_partitioned(
            &st,
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            &spec,
            dk,
            qk,
        )
        .unwrap();
        let mut v: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn combined_matches_plain_division() {
        let mut rows = Vec::new();
        for s in 0..50i64 {
            for c in 0..=(s % 9) {
                rows.push([s, c]);
            }
        }
        let expected: Vec<i64> = (0..50).filter(|s| s % 9 >= 5).collect();
        let dividend = transcript(&rows);
        let divisor = courses(&(0..6).collect::<Vec<_>>());
        for (dk, qk) in [(1, 2), (2, 2), (3, 4), (5, 3)] {
            assert_eq!(cp(&dividend, &divisor, dk, qk), expected, "dk={dk} qk={qk}");
        }
    }

    #[test]
    fn combined_handles_empty_inputs() {
        let dividend = transcript(&[[1, 10], [2, 20]]);
        assert_eq!(
            cp(&dividend, &courses(&[]), 3, 2),
            vec![1, 2],
            "vacuous divisor"
        );
        assert_eq!(
            cp(&transcript(&[]), &courses(&[1]), 3, 2),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn combined_fits_when_neither_single_strategy_would() {
        // Large divisor (4000 tuples) AND large quotient (4000 candidates):
        // a budget sized for ~1/4 of each still completes with 8x8 clusters.
        let mut rows = Vec::new();
        for q in 0..4000i64 {
            // Every quotient value takes 3 of the 4000 divisor values; only
            // q == 0..3 take the first three (the actual divisor we use is
            // just those 3 values to keep |R| manageable).
            rows.push([q, q % 4000]);
            rows.push([q, (q + 1) % 4000]);
            rows.push([q, (q + 2) % 4000]);
        }
        let dividend = transcript(&rows);
        // Divisor: all 4000 values -> only groups covering all of them
        // qualify; none do, EXCEPT we add one complete group.
        let mut full = rows.clone();
        for d in 0..4000i64 {
            full.push([4_000_000, d]);
        }
        let dividend = {
            let mut d = dividend;
            for r in &full[rows.len()..] {
                d.push(ints(r)).unwrap();
            }
            d
        };
        let divisor = courses(&(0..4000).collect::<Vec<_>>());
        let st = StorageManager::shared(StorageConfig {
            work_memory_bytes: 700 * 1024,
            buffer_bytes: 1 << 23,
            ..StorageConfig::paper()
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let rel = combined_partitioned(
            &st,
            Box::new(MemScan::new(dividend)),
            Box::new(MemScan::new(divisor)),
            &spec,
            8,
            8,
        )
        .unwrap();
        assert_eq!(rel.cardinality(), 1);
        assert_eq!(rel.tuples()[0], ints(&[4_000_000]));
    }

    #[test]
    fn combined_rejects_degenerate_cluster_counts() {
        let st = StorageManager::shared(StorageConfig::large());
        let dividend = transcript(&[[1, 1]]);
        let divisor = courses(&[1]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        assert!(combined_partitioned(
            &st,
            Box::new(MemScan::new(dividend)),
            Box::new(MemScan::new(divisor)),
            &spec,
            0,
            1,
        )
        .is_err());
    }
}
