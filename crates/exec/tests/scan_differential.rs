//! Differential suite for record-file scans: the batch-native
//! [`BatchFileScan`] and its tuple bridge ([`BatchToTuple`], what a
//! source's tuple scan is) against the relation that was loaded and
//! against what the tuple-at-a-time file scan did, recorded, over one
//! table of file shapes and disk faults.
//!
//! For every row of the table the two scans of the same cold file must
//! produce the recorded outcome — the same rows in file order, or the same
//! typed error — with the recorded disk transfers and buffer-pool
//! activity, and leave no frame fixed.
//!
//! A second test puts the storage-free scans beside them: the
//! shared-columns [`BatchColumnsScan`] (and its tuple bridge) and the
//! in-memory scan must produce the rows the file scans produce.

use reldiv_exec::batch::scan::{BatchColumnsScan, BatchFileScan, BatchMemScan};
use reldiv_exec::batch::{BatchOperator, BatchToTuple, DEFAULT_BATCH_SIZE};
use reldiv_exec::scan::load_relation;
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

/// What the tuple-at-a-time file scan did on each row of [`CASES`], cold:
/// its rows (count and digest; `None` where the case's fault fails it),
/// its transfers `[reads, writes, seeks, bytes]`, and the pool's `[hits,
/// misses, evictions, writebacks, peak bytes, read retries, write
/// retries]`. Recorded before the batch scan replaced it.
type Recorded = (Option<(usize, u64)>, [u64; 4], [u64; 7]);

const RECORDED: [Recorded; 15] = [
    (
        Some((0, 0xcbf29ce484222325)),
        [0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ),
    (
        Some((5, 0x189ceca21f815dbd)),
        [1, 0, 1, 128],
        [0, 1, 0, 0, 128, 0, 0],
    ),
    (
        Some((400, 0x7b29f0bf0f691c4b)),
        [67, 0, 1, 8576],
        [0, 67, 63, 0, 512, 0, 0],
    ),
    (
        Some((400, 0x7b29f0bf0f691c4b)),
        [34, 0, 1, 8704],
        [0, 34, 30, 0, 1024, 0, 0],
    ),
    (
        Some((3000, 0xc969d10fa4739661)),
        [60, 0, 1, 61440],
        [0, 60, 56, 0, 4096, 0, 0],
    ),
    (
        Some((5000, 0x4e508b6be510505b)),
        [13, 0, 1, 106496],
        [0, 13, 9, 0, 32768, 0, 0],
    ),
    (
        Some((300, 0xefda66af7dd0c729)),
        [43, 0, 1, 5504],
        [0, 43, 39, 0, 512, 0, 0],
    ),
    (
        Some((300, 0xefda66af7dd0c729)),
        [5, 0, 1, 5120],
        [0, 5, 1, 0, 4096, 0, 0],
    ),
    (
        Some((300, 0x72ddba31daf7bfb1)),
        [75, 0, 1, 9600],
        [0, 75, 71, 0, 512, 0, 0],
    ),
    (
        Some((3000, 0x03916c2b2e017303)),
        [10, 0, 1, 81920],
        [0, 10, 6, 0, 32768, 0, 0],
    ),
    (
        Some((200, 0x6bd8b5fb00a5bf32)),
        [34, 0, 1, 8704],
        [0, 34, 30, 0, 1024, 0, 0],
    ),
    (
        Some((0, 0xcbf29ce484222325)),
        [7, 0, 1, 896],
        [0, 7, 3, 0, 512, 0, 0],
    ),
    (
        Some((400, 0x7b29f0bf0f691c4b)),
        [67, 0, 1, 8576],
        [0, 67, 63, 0, 512, 1, 0],
    ),
    (None, [1, 0, 1, 128], [0, 2, 0, 0, 128, 0, 0]),
    (None, [2, 0, 1, 512], [0, 2, 0, 0, 256, 0, 0]),
];

/// FNV-1a over the rows' text, one line each.
fn digest(rel: &Relation) -> u64 {
    let text = rel
        .tuples()
        .iter()
        .map(|t| format!("{t}\n"))
        .collect::<String>();
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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

impl Observed {
    fn recorded(&self) -> Recorded {
        let rows = self
            .outcome
            .as_ref()
            .ok()
            .map(|r| (r.cardinality(), digest(r)));
        let (io, p) = (self.io, self.pool);
        (
            rows,
            [io.reads, io.writes, io.seeks, io.bytes],
            [
                p.hits,
                p.misses,
                p.evictions,
                p.writebacks,
                p.peak_bytes as u64,
                p.read_retries,
                p.write_retries,
            ],
        )
    }
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
            let scan = BatchFileScan::new(storage.clone(), file, schema.clone());
            collect(Box::new(BatchToTuple::new(Box::new(scan))))
        });
        assert_eq!(by_tuple.recorded(), RECORDED[n], "{label}");
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

            let by_file = BatchFileScan::new(storage.clone(), file, schema.clone());
            let by_file = BatchToTuple::new(Box::new(by_file));
            assert_eq!(collect(Box::new(by_file)).unwrap(), loaded, "{label}");
            let by_batch_file = BatchFileScan::new(storage.clone(), file, schema.clone());
            let by_batch_file = collect_batches(Box::new(by_batch_file), none).unwrap();
            assert_eq!(by_batch_file, loaded, "{label}");
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
