//! Differential suite for record-file scans: the batch-native
//! [`BatchFileScan`] against the tuple [`FileScan`] against the relation
//! that was loaded, over one table of file shapes and disk faults.
//!
//! For every row of the table the two scans of the same cold file must
//! produce the same outcome — the same rows in file order, or the same
//! typed error — with the same disk transfers and buffer-pool activity,
//! and leave no frame fixed.
//!
//! A second test puts the storage-free scans beside them: the
//! shared-columns [`BatchColumnsScan`] (and its tuple bridge) and the two
//! in-memory scans must produce the rows the file scans produce.

use reldiv_exec::batch::scan::{BatchColumnsScan, BatchFileScan, BatchMemScan};
use reldiv_exec::batch::{BatchOperator, BatchToTuple, DEFAULT_BATCH_SIZE};
use reldiv_exec::scan::{load_relation, FileScan, MemScan};
use reldiv_exec::{collect, collect_batches, drain_batches, CancelToken, ExecError};
use reldiv_rel::schema::Field;
use reldiv_rel::{Columns, Relation, Schema, Tuple, Value};
use reldiv_storage::file::{ScanCursor, EXTENT_PAGES};
use reldiv_storage::manager::{StorageConfig, StorageManager};
use reldiv_storage::{BufferStats, FaultPlan, FileId, IoStats, Rid, StorageError, StorageRef};

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `(a int, b int)`: the paper's 16-byte dividend record.
    Ints,
    /// `(name str(12))`, including empty and full-width strings.
    Strs,
    /// `(id int, name str(6), x int)`.
    Mixed,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The third read of the scan fails once; the buffer manager retries.
    TransientRead,
    /// The file's second page is permanently unreadable.
    BadPage,
    /// The file's second page rots on disk under an unchanged checksum.
    Corrupt,
}

struct Case {
    shape: Shape,
    rows: usize,
    page_size: usize,
    /// Delete every n-th record after loading.
    delete_every: Option<usize>,
    fault: Fault,
}

const fn case(shape: Shape, rows: usize, page_size: usize) -> Case {
    Case {
        shape,
        rows,
        page_size,
        delete_every: None,
        fault: Fault::None,
    }
}

const CASES: &[Case] = &[
    // Empty file, one page, many pages; every page size of the range.
    case(Shape::Ints, 0, 128),
    case(Shape::Ints, 5, 128),
    case(Shape::Ints, 400, 128),
    case(Shape::Ints, 400, 256),
    case(Shape::Ints, 3000, 1024),
    case(Shape::Ints, 5000, 8192),
    case(Shape::Strs, 300, 128),
    case(Shape::Strs, 300, 1024),
    case(Shape::Mixed, 300, 128),
    case(Shape::Mixed, 3000, 8192),
    // Deleted slots, down to pages with no live record left.
    Case {
        delete_every: Some(3),
        ..case(Shape::Mixed, 300, 256)
    },
    Case {
        delete_every: Some(1),
        ..case(Shape::Ints, 40, 128)
    },
    // Faults, through both scans.
    Case {
        fault: Fault::TransientRead,
        ..case(Shape::Ints, 400, 128)
    },
    Case {
        fault: Fault::BadPage,
        ..case(Shape::Ints, 400, 128)
    },
    Case {
        fault: Fault::Corrupt,
        ..case(Shape::Mixed, 300, 256)
    },
];

fn relation(shape: Shape, rows: usize) -> Relation {
    let int = |i: usize, salt: i64| Value::Int((i as i64).wrapping_mul(0x9E37_79B9) ^ salt);
    let name = |i: usize, width: usize| -> Value {
        let s = format!("n{i}é");
        Value::Str(s.chars().take(i % (width / 2)).collect())
    };
    let fields = match shape {
        Shape::Ints => vec![Field::int("a"), Field::int("b")],
        Shape::Strs => vec![Field::str("name", 12)],
        Shape::Mixed => vec![Field::int("id"), Field::str("name", 6), Field::int("x")],
    };
    let row = |i: usize| match shape {
        Shape::Ints => vec![int(i, 0), int(i, -1)],
        Shape::Strs if i % 7 == 0 => vec![Value::from("twelve chars")],
        Shape::Strs => vec![name(i, 12)],
        Shape::Mixed => vec![int(i, 0), name(i, 6), Value::Int(-(i as i64))],
    };
    let tuples = (0..rows).map(|i| Tuple::new(row(i))).collect();
    Relation::from_tuples(Schema::new(fields), tuples).unwrap()
}

/// What one cold scan did: its outcome and what it cost.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<Relation, ExecError>,
    io: IoStats,
    pool: BufferStats,
}

fn cold_scan(
    storage: &StorageRef,
    plan: Option<&FaultPlan>,
    scan: impl FnOnce() -> Result<Relation, ExecError>,
) -> Observed {
    {
        let mut sm = storage.borrow_mut();
        sm.clear_faults();
        sm.evict_all().unwrap();
        sm.reset_stats();
        if let Some(plan) = plan {
            sm.inject_faults(plan);
        }
    }
    let outcome = scan();
    let sm = storage.borrow();
    assert_eq!(sm.pinned_frames(), 0, "a scan left a frame fixed");
    Observed {
        outcome,
        io: sm.io_stats(),
        pool: sm.buffer_stats(),
    }
}

/// RIDs of the file's records, in file order.
fn rids(sm: &mut StorageManager, file: FileId) -> Vec<Rid> {
    let mut cursor = ScanCursor::new(file);
    let mut out = Vec::new();
    while let Some((rid, _)) = cursor.next(sm).unwrap() {
        out.push(rid);
    }
    out
}

#[test]
fn batch_and_tuple_file_scans_agree() {
    for (n, c) in CASES.iter().enumerate() {
        let label = format!(
            "case {n}: {:?} x{} on {} B pages, delete {:?}, {:?}",
            c.shape, c.rows, c.page_size, c.delete_every, c.fault
        );
        // Four frames: any file past four pages is evicted behind the scan.
        let storage = StorageManager::shared(StorageConfig {
            data_page_size: c.page_size,
            run_page_size: 128,
            buffer_bytes: 4 * c.page_size,
            work_memory_bytes: 1 << 20,
        });
        let loaded = relation(c.shape, c.rows);
        let schema = loaded.schema().clone();
        let file = load_relation(&storage, &loaded).unwrap();

        let mut plan = None;
        let mut expected = loaded.tuples().to_vec();
        {
            let mut sm = storage.borrow_mut();
            let rids = rids(&mut sm, file);
            assert_eq!(rids.len(), c.rows, "{label}");
            if let Some(every) = c.delete_every {
                for i in (0..c.rows).rev().filter(|i| i % every == 0) {
                    sm.delete_record(file, rids[i]).unwrap();
                    expected.remove(i);
                }
            }
            if c.rows >= 400 {
                assert!(sm.page_count(file).unwrap() > EXTENT_PAGES, "{label}");
            }
            let second_page = rids.iter().map(|r| r.page).find(|&p| p != rids[0].page);
            match c.fault {
                Fault::None => {}
                Fault::TransientRead => plan = Some(FaultPlan::seeded(1).with_read_failure_at(2)),
                Fault::BadPage => {
                    let page = second_page.expect("a second page").page;
                    plan = Some(FaultPlan::seeded(1).with_bad_page(page));
                }
                Fault::Corrupt => {
                    sm.evict_all().unwrap();
                    sm.corrupt_page(second_page.expect("a second page"))
                        .unwrap();
                }
            }
        }
        let expected = Relation::from_tuples(schema.clone(), expected).unwrap();

        let by_tuple = cold_scan(&storage, plan.as_ref(), || {
            collect(Box::new(FileScan::new(
                storage.clone(),
                file,
                schema.clone(),
            )))
        });
        match c.fault {
            Fault::None => assert_eq!(by_tuple.outcome.as_ref(), Ok(&expected), "{label}"),
            Fault::TransientRead => {
                assert_eq!(by_tuple.outcome.as_ref(), Ok(&expected), "{label}");
                assert_eq!(by_tuple.pool.read_retries, 1, "{label}");
            }
            Fault::BadPage => assert!(
                matches!(
                    by_tuple.outcome,
                    Err(ExecError::Storage(StorageError::Permanent {
                        op: "read",
                        ..
                    }))
                ),
                "{label}: {:?}",
                by_tuple.outcome
            ),
            Fault::Corrupt => assert!(
                matches!(
                    by_tuple.outcome,
                    Err(ExecError::Storage(StorageError::ChecksumMismatch { .. }))
                ),
                "{label}: {:?}",
                by_tuple.outcome
            ),
        }
        if c.fault == Fault::None {
            let pages = storage.borrow().page_count(file).unwrap();
            assert_eq!(by_tuple.io.reads, pages, "{label}: one read per page");
            assert_eq!(by_tuple.pool.misses, pages, "{label}");
            assert_eq!(by_tuple.pool.hits, 0, "{label}: each page fixed once");
        }

        let by_batch = cold_scan(&storage, plan.as_ref(), || {
            let scan = BatchFileScan::new(storage.clone(), file, schema.clone());
            collect_batches(Box::new(scan), CancelToken::none())
        });
        assert_eq!(by_batch, by_tuple, "{label}");
        if c.fault == Fault::None {
            // A batch per page that still holds a record.
            let mut pages: Vec<_> = rids(&mut storage.borrow_mut(), file)
                .iter()
                .map(|rid| rid.page)
                .collect();
            pages.dedup();
            let mut batches = 0;
            let scan = Box::new(BatchFileScan::new(storage.clone(), file, schema.clone()));
            drain_batches(scan, CancelToken::none(), |_| {
                batches += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(batches, pages.len(), "{label}");
        }
    }
}

#[test]
fn shared_columns_scan_agrees_with_the_file_and_memory_scans() {
    // The empty relation, a partial batch, exact multiples of the batch
    // size, and a tail.
    let sizes = [0, 5, DEFAULT_BATCH_SIZE, 2 * DEFAULT_BATCH_SIZE, 3000];
    for shape in [Shape::Ints, Shape::Strs, Shape::Mixed] {
        for rows in sizes {
            let label = format!("{shape:?} x{rows}");
            let loaded = relation(shape, rows);
            let schema = loaded.schema().clone();
            let storage = StorageManager::shared(StorageConfig::large());
            let file = load_relation(&storage, &loaded).unwrap();
            let columns = Columns::from_tuples(schema.clone(), loaded.tuples()).unwrap();
            let none = CancelToken::none();

            let by_file = FileScan::new(storage.clone(), file, schema.clone());
            assert_eq!(collect(Box::new(by_file)).unwrap(), loaded, "{label}");
            let by_batch_file = BatchFileScan::new(storage.clone(), file, schema.clone());
            let by_batch_file = collect_batches(Box::new(by_batch_file), none).unwrap();
            assert_eq!(by_batch_file, loaded, "{label}");
            let by_mem = collect(Box::new(MemScan::new(loaded.clone()))).unwrap();
            assert_eq!(by_mem, loaded, "{label}");
            let by_batch_mem = Box::new(BatchMemScan::new(loaded.clone()));
            assert_eq!(
                collect_batches(by_batch_mem, none).unwrap(),
                loaded,
                "{label}"
            );

            // The shared columns: same rows, same order, no storage.
            storage.borrow_mut().reset_stats();
            let scan = Box::new(BatchColumnsScan::new(columns.clone()));
            assert_eq!(collect_batches(scan, none).unwrap(), loaded, "{label}");
            let bridged = BatchToTuple::new(Box::new(BatchColumnsScan::new(columns.clone())));
            assert_eq!(collect(Box::new(bridged)).unwrap(), loaded, "{label}");
            assert_eq!(storage.borrow().io_stats(), IoStats::default(), "{label}");

            // Re-openable, and two scans of one relation do not disturb
            // each other; each hands out the stored batches as they are.
            let mut a = BatchColumnsScan::new(columns.clone());
            let mut b = BatchColumnsScan::new(columns.clone());
            assert!(matches!(a.next_batch(), Err(ExecError::Protocol(_))));
            for _ in 0..2 {
                a.open().unwrap();
                b.open().unwrap();
                for stored in columns.batches() {
                    for scan in [&mut a, &mut b] {
                        let batch = scan.next_batch().unwrap().expect("one per stored batch");
                        assert_eq!(batch.len(), stored.len(), "{label}");
                        assert_eq!(batch.tuple(0), stored.tuple(0), "{label}");
                    }
                }
                assert!(a.next_batch().unwrap().is_none(), "{label}");
                assert!(b.next_batch().unwrap().is_none(), "{label}");
            }
            a.close().unwrap();
            assert!(matches!(a.next_batch(), Err(ExecError::Protocol(_))));
        }
    }
}
