//! Batch-native scans: record files, in-memory relations and shared
//! columns.
//!
//! [`BatchFileScan`] is the page-granular producer of the batch engine:
//! storage hands it each page's records as slices borrowed from the
//! buffer pool and it decodes them straight into columns, so an on-disk
//! plan pays neither a per-record copy nor a per-tuple allocation, and
//! reads exactly the pages a tuple-at-a-time file scan read (recorded in
//! `tests/scan_differential.rs`). [`BatchMemScan`] scans a relation's
//! tuples; [`BatchColumnsScan`] does no per-row work at all: the relation
//! is already batches. A tuple operator reads any of them through
//! [`super::BatchToTuple`].

use reldiv_rel::{Batch, Columns, Relation, Schema, Tuple};
use reldiv_storage::file::Appender;
use reldiv_storage::{FileId, StorageManager, StorageRef};

use super::{drain_batches, BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::op::OpState;
use crate::{ExecError, Result};

/// Scans a record file a page per batch.
///
/// Each `next_batch` visits the next page — fixed exactly once, not left
/// fixed when the call returns — and hands its records on as one batch.
/// A page is thus read when its first row is asked for, where the tuple
/// scan reads it: a consumer that writes pages between two rows (a sort
/// cutting a run) meets the buffer pool in the state the tuple plan would.
pub struct BatchFileScan {
    storage: StorageRef,
    file: FileId,
    schema: Schema,
    next_page: u64,
    state: OpState,
}

impl BatchFileScan {
    /// Creates a scan of `file`, decoding with `schema`.
    pub fn new(storage: StorageRef, file: FileId, schema: Schema) -> BatchFileScan {
        BatchFileScan {
            storage,
            file,
            schema,
            next_page: 0,
            state: OpState::Created,
        }
    }
}

impl BatchOperator for BatchFileScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.next_page = 0;
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let mut sm = self.storage.borrow_mut();
        // Empty pages are skipped.
        while let Some(batch) = read_page(&mut sm, self.file, self.next_page, &self.schema)? {
            self.next_page += 1;
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.state = OpState::Closed;
        Ok(())
    }
}

/// The `i`-th page of `file` decoded as one batch of `schema`, sized to
/// its live records, through the column-wise [`Batch::push_records`];
/// `None` past the file's last page.
pub fn read_page(
    sm: &mut StorageManager,
    file: FileId,
    i: u64,
    schema: &Schema,
) -> Result<Option<Batch>> {
    let mut page = None;
    sm.visit_page(file, i, |_, records| {
        let mut batch = Batch::with_capacity(schema.clone(), records.len());
        batch.push_records(records.map(|(_, record)| record))?;
        page = Some(batch);
        Ok::<(), ExecError>(())
    })?;
    Ok(page)
}

/// Scans an in-memory relation in batches.
pub struct BatchMemScan {
    schema: Schema,
    tuples: Vec<Tuple>,
    pos: usize,
    batch_size: usize,
    state: OpState,
}

impl BatchMemScan {
    /// Creates a scan over a relation.
    pub fn new(relation: Relation) -> BatchMemScan {
        BatchMemScan {
            schema: relation.schema().clone(),
            tuples: relation.into_tuples(),
            pos: 0,
            batch_size: DEFAULT_BATCH_SIZE,
            state: OpState::Created,
        }
    }

    /// Overrides the batch size (tests).
    pub fn with_batch_size(mut self, batch_size: usize) -> BatchMemScan {
        self.batch_size = batch_size.max(1);
        self
    }
}

impl BatchOperator for BatchMemScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        if self.pos >= self.tuples.len() {
            return Ok(None);
        }
        let end = (self.pos + self.batch_size).min(self.tuples.len());
        let mut batch = Batch::with_capacity(self.schema.clone(), end - self.pos);
        for t in &self.tuples[self.pos..end] {
            batch.push_tuple(t);
        }
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) -> Result<()> {
        self.state = OpState::Closed;
        Ok(())
    }
}

/// Scans a [`Columns`] relation: each `next_batch` hands out the next
/// stored batch (one copy per column, nothing per row), touching no
/// storage. Any number of scans, on any thread, share the columns.
pub struct BatchColumnsScan {
    columns: Columns,
    next: usize,
    state: OpState,
}

impl BatchColumnsScan {
    /// Creates a scan over `columns`.
    pub fn new(columns: Columns) -> BatchColumnsScan {
        BatchColumnsScan {
            columns,
            next: 0,
            state: OpState::Created,
        }
    }
}

impl BatchOperator for BatchColumnsScan {
    fn schema(&self) -> &Schema {
        self.columns.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.next = 0;
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let batch = self.columns.batches().get(self.next).cloned();
        self.next += usize::from(batch.is_some());
        Ok(batch)
    }

    fn close(&mut self) -> Result<()> {
        self.state = OpState::Closed;
        Ok(())
    }
}

/// Drains `op` into a new record file on the data disk, a batch's
/// records at a time ([`Appender::append_records`]), laid out as
/// [`crate::scan::spool`] lays them out. `cancel` is polled once per batch, `op` is
/// closed on every exit, and a failure leaves no file behind.
pub fn materialize(storage: &StorageRef, op: BoxedBatchOp, cancel: CancelToken) -> Result<FileId> {
    let width = super::record_width(op.schema())?;
    let file = storage.borrow_mut().create_file(StorageManager::DATA_DISK);
    let mut out = Appender::new(file);
    let mut records = Vec::new();
    let drained = drain_batches(op, cancel, |batch| {
        records.clear();
        batch.encode_records(&mut records)?;
        Ok(out.append_records(&mut storage.borrow_mut(), &records, width)?)
    });
    if let Err(e) = drained {
        // The drain's error is the one worth reporting.
        let _ = storage.borrow_mut().delete_file(file);
        return Err(e);
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(schema, (0..n).map(|i| ints(&[i, i * 2])).collect()).unwrap()
    }

    #[test]
    fn scan_produces_all_rows_across_batches() {
        let out = collect_batches(
            Box::new(BatchMemScan::new(rel(3000)).with_batch_size(256)),
            CancelToken::none(),
        )
        .unwrap();
        assert_eq!(out, rel(3000));
    }

    #[test]
    fn scan_can_be_reopened() {
        let mut scan = BatchMemScan::new(rel(3)).with_batch_size(2);
        scan.open().unwrap();
        assert_eq!(scan.next_batch().unwrap().unwrap().len(), 2);
        assert_eq!(scan.next_batch().unwrap().unwrap().len(), 1);
        assert!(scan.next_batch().unwrap().is_none());
        scan.open().unwrap();
        assert_eq!(scan.next_batch().unwrap().unwrap().len(), 2);
        scan.close().unwrap();
    }

    #[test]
    fn next_before_open_is_a_protocol_error() {
        let mut scan = BatchMemScan::new(rel(1));
        assert!(matches!(
            scan.next_batch(),
            Err(crate::ExecError::Protocol(_))
        ));
    }

    #[test]
    fn a_page_decodes_as_its_records_do_one_by_one() {
        use reldiv_rel::{ColumnType, RecordCodec, Value};
        use reldiv_storage::manager::StorageConfig;
        let layouts = [
            Schema::new(vec![Field::int("a"), Field::int("b")]),
            Schema::new(vec![Field::str("s", 8)]),
            Schema::new(vec![
                Field::str("s", 5),
                Field::int("a"),
                Field::str("t", 3),
            ]),
        ];
        for schema in layouts {
            let codec = RecordCodec::new(schema.clone());
            let row = |i: usize| {
                let values = schema.fields().iter().map(|f| match f.ty {
                    ColumnType::Int => Value::Int(i as i64 * 31 - 7),
                    ColumnType::Str(w) => Value::Str(format!("{i:08}")[8 - w..].into()),
                });
                Tuple::new(values.collect())
            };
            let mut sm = StorageManager::new(StorageConfig {
                data_page_size: 1024,
                ..StorageConfig::paper()
            });
            let file = sm.create_file(StorageManager::DATA_DISK);
            let encode = |i| codec.encode(&row(i)).unwrap();
            let rids: Vec<_> = (0..200)
                .map(|i| sm.append(file, &encode(i)).unwrap())
                .collect();
            // Page 0 loses some slots, page 1 all of them.
            let rids = &rids;
            let page_of =
                |first: usize| (0..200).filter(move |&i| rids[i].page == rids[first].page);
            let page0 = page_of(0).count();
            let gone: Vec<usize> = [0, 3, 4, page0 - 1]
                .into_iter()
                .chain(page_of(page0))
                .collect();
            for &i in &gone {
                sm.delete_record(file, rids[i]).unwrap();
            }
            let mut one = Batch::with_capacity(schema.clone(), 0);
            sm.visit_page(file, 0, |_, records| {
                records.for_each(|(_, record)| one.push_record(record).unwrap());
                Ok::<(), ExecError>(())
            })
            .unwrap();
            let want: Vec<Tuple> = page_of(0).filter(|i| !gone.contains(i)).map(row).collect();
            let batch = read_page(&mut sm, file, 0, &schema).unwrap().unwrap();
            assert_eq!(batch.columns()[0].len(), want.len());
            assert_eq!(one.into_tuples(), want);
            assert_eq!(batch.into_tuples(), want);
            // An emptied page is an empty batch; past the last page, none.
            assert!(read_page(&mut sm, file, 1, &schema)
                .unwrap()
                .unwrap()
                .is_empty());
            let pages = sm.page_count(file).unwrap();
            assert!(read_page(&mut sm, file, pages, &schema).unwrap().is_none());
        }
    }

    #[test]
    fn materialize_writes_the_pages_spool_writes_and_cleans_up_on_failure() {
        use crate::scan::load_relation;
        use reldiv_rel::{Tuple, Value};
        use reldiv_storage::manager::StorageConfig;
        let config = StorageConfig {
            buffer_bytes: 32 * 1024,
            ..StorageConfig::paper()
        };
        let (by_tuple, by_batch) = (
            StorageManager::shared(config.clone()),
            StorageManager::shared(config),
        );
        let spooled = load_relation(&by_tuple, &rel(5000)).unwrap();
        let scan = Box::new(BatchMemScan::new(rel(5000)).with_batch_size(700));
        let file = materialize(&by_batch, scan, CancelToken::none()).unwrap();
        {
            let (t, b) = (by_tuple.borrow(), by_batch.borrow());
            assert_eq!(t.page_count(spooled).unwrap(), b.page_count(file).unwrap());
            assert_eq!(t.io_stats(), b.io_stats());
            assert!(b.io_stats().writes > 0);
        }
        let back = BatchFileScan::new(by_batch.clone(), file, rel(1).schema().clone());
        let back = collect_batches(Box::new(back), CancelToken::none()).unwrap();
        assert_eq!(back, rel(5000));

        // A row with no record fails the drain; the file goes with it.
        let schema = Schema::new(vec![Field::str("s", 4)]);
        let mut tuples = vec![Tuple::new(vec![Value::from("ok")]); 3000];
        tuples.push(Tuple::new(vec![Value::from("a\0b")]));
        let bad = Relation::from_tuples(schema, tuples).unwrap();
        let files = by_batch.borrow().file_count();
        let scan = Box::new(BatchMemScan::new(bad));
        let err = materialize(&by_batch, scan, CancelToken::none()).unwrap_err();
        assert!(matches!(err, ExecError::Rel(_)), "{err}");
        let sm = by_batch.borrow();
        assert_eq!((sm.file_count(), sm.pinned_frames()), (files, 0));
    }
}
