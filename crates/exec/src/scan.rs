//! Writing relations to record files: [`spool`] and [`load_relation`].
//! Files are read back by [`crate::batch::scan::BatchFileScan`].

use reldiv_rel::{RecordCodec, Relation, Tuple};
use reldiv_storage::file::Appender;
use reldiv_storage::{DiskId, FileId, StorageManager, StorageRef};

use crate::Result;

/// Spools the tuples `next` yields, in order, into a new record file on
/// `disk` through storage's bulk [`Appender`], and returns the file.
///
/// The loaders write through here. On any failure — of
/// `next`, of a tuple that does not fit `codec`'s schema, or of storage —
/// the half-written file is deleted before the error is returned.
pub fn spool<T: std::borrow::Borrow<Tuple>>(
    storage: &StorageRef,
    disk: DiskId,
    codec: &RecordCodec,
    mut next: impl FnMut() -> Result<Option<T>>,
) -> Result<FileId> {
    let file = storage.borrow_mut().create_file(disk);
    let mut out = Appender::new(file);
    let mut record = Vec::with_capacity(codec.record_width());
    let mut write = || -> Result<()> {
        while let Some(tuple) = next()? {
            record.clear();
            codec.encode_into(std::borrow::Borrow::borrow(&tuple), &mut record)?;
            out.append(&mut storage.borrow_mut(), &record)?;
        }
        Ok(())
    };
    match write() {
        Ok(()) => Ok(file),
        Err(e) => {
            // The write's error is the one worth reporting.
            let _ = storage.borrow_mut().delete_file(file);
            Err(e)
        }
    }
}

/// Loads a relation into a new record file on the data disk, returning the
/// file id. The workload loaders and materializing operators use this.
pub fn load_relation(storage: &StorageRef, relation: &Relation) -> Result<FileId> {
    let codec = RecordCodec::new(relation.schema().clone());
    let mut tuples = relation.tuples().iter();
    spool(storage, StorageManager::DATA_DISK, &codec, || {
        Ok(tuples.next())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::scan::{BatchFileScan, BatchMemScan};
    use crate::batch::BatchToTuple;
    use crate::op::{collect, Operator};
    use crate::ExecError;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Schema;
    use reldiv_storage::manager::StorageConfig;

    fn two_col(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    /// A tuple scan of a record file.
    fn file_scan(storage: StorageRef, file: FileId, schema: Schema) -> BatchToTuple {
        BatchToTuple::new(Box::new(BatchFileScan::new(storage, file, schema)))
    }

    /// A tuple scan of an in-memory relation.
    fn mem_scan(rel: Relation) -> BatchToTuple {
        BatchToTuple::new(Box::new(BatchMemScan::new(rel)))
    }

    #[test]
    fn file_scan_roundtrips_relation() {
        let storage = StorageManager::shared(StorageConfig::large());
        let rel = two_col(&[[1, 2], [3, 4], [5, 6]]);
        let file = load_relation(&storage, &rel).unwrap();
        let scan = file_scan(storage, file, rel.schema().clone());
        let got = collect(Box::new(scan)).unwrap();
        assert_eq!(got, rel);
    }

    #[test]
    fn file_scan_large_relation_spans_pages() {
        let storage = StorageManager::shared(StorageConfig::paper());
        let rows: Vec<[i64; 2]> = (0..5000).map(|i| [i, i * 2]).collect();
        let rel = two_col(&rows);
        let file = load_relation(&storage, &rel).unwrap();
        {
            let mut sm = storage.borrow_mut();
            assert!(sm.page_count(file).unwrap() > 1);
            sm.flush_all().unwrap();
        }
        let scan = file_scan(storage, file, rel.schema().clone());
        let got = collect(Box::new(scan)).unwrap();
        assert_eq!(got.cardinality(), 5000);
        assert_eq!(got, rel);
    }

    #[test]
    fn failed_load_deletes_the_half_written_file() {
        use reldiv_rel::{Tuple, Value};
        let storage = StorageManager::shared(StorageConfig::paper());
        let schema = Schema::new(vec![Field::str("s", 4)]);
        let mut tuples = vec![Tuple::new(vec![Value::from("ok")]); 5000];
        tuples.push(Tuple::new(vec![Value::from("a\0b")]));
        let rel = Relation::from_tuples(schema, tuples).unwrap();
        assert!(matches!(
            load_relation(&storage, &rel),
            Err(ExecError::Rel(_))
        ));
        let sm = storage.borrow();
        assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
    }

    #[test]
    fn mem_scan_produces_all_tuples() {
        let rel = two_col(&[[9, 8], [7, 6]]);
        let got = collect(Box::new(mem_scan(rel.clone()))).unwrap();
        assert_eq!(got, rel);
    }

    #[test]
    fn mem_scan_can_be_reopened() {
        let rel = two_col(&[[1, 1]]);
        let mut scan = mem_scan(rel);
        scan.open().unwrap();
        assert!(scan.next().unwrap().is_some());
        assert!(scan.next().unwrap().is_none());
        scan.open().unwrap(); // rescan from the top
        assert!(scan.next().unwrap().is_some());
        scan.close().unwrap();
    }

    #[test]
    fn next_before_open_is_a_protocol_error() {
        let rel = two_col(&[[1, 1]]);
        let mut scan = mem_scan(rel);
        assert!(matches!(scan.next(), Err(ExecError::Protocol(_))));
        scan.open().unwrap();
        scan.close().unwrap();
        assert!(matches!(scan.next(), Err(ExecError::Protocol(_))));
    }
}
