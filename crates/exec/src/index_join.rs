//! Index join and index semi-join over a B+-tree.
//!
//! The paper lists the join options for the aggregate division plans as
//! "typically merge join, index join, or their semi-join versions if they
//! exist" (Section 2.2.1). This operator probes a B+-tree index on the
//! inner relation for every outer tuple; matched RIDs are fetched from
//! the inner's record file (Inner mode) or merely tested for existence
//! (LeftSemi mode — no fetch at all, just the index probe).
//!
//! Keys use the order-preserving [`reldiv_rel::codec::index_key`]
//! encoding, so the same index also serves range scans.

use reldiv_rel::codec::index_key;
use reldiv_rel::{RecordCodec, Schema, Tuple};
use reldiv_storage::btree::BTree;
use reldiv_storage::{FileId, StorageRef};

use crate::merge_join::JoinMode;
use crate::op::{BoxedOp, OpState, Operator};
use crate::{ExecError, Result};

/// The indexed inner relation: a B+-tree mapping the join key to RIDs in
/// a record file.
pub struct IndexedRelation {
    /// Index over `key_columns` of the inner relation.
    pub index: BTree,
    /// The record file holding the inner tuples.
    pub file: FileId,
    /// Schema of the inner relation.
    pub schema: Schema,
    /// Inner columns the index keys are built from.
    pub key_columns: Vec<usize>,
}

/// Builds a B+-tree index over `key_columns` of every record in `file`.
pub fn build_index(
    storage: &StorageRef,
    file: FileId,
    schema: Schema,
    key_columns: Vec<usize>,
) -> Result<IndexedRelation> {
    let codec = RecordCodec::new(schema.clone());
    let mut sm = storage.borrow_mut();
    let disk = sm.file_disk(file)?;
    let mut index = BTree::create(&mut sm, disk)?;
    let mut cursor = reldiv_storage::file::ScanCursor::new(file);
    while let Some((rid, record)) = cursor.next(&mut sm)? {
        let t = codec.decode(record)?;
        index.insert(&mut sm, &index_key(&t, &key_columns), rid)?;
    }
    Ok(IndexedRelation {
        index,
        file,
        schema,
        key_columns,
    })
}

/// Index (semi-)join: probes the inner's index with each outer tuple.
pub struct IndexJoin {
    outer: BoxedOp,
    inner: IndexedRelation,
    outer_keys: Vec<usize>,
    mode: JoinMode,
    storage: StorageRef,
    codec: RecordCodec,
    schema: Schema,
    state: OpState,
    /// Pending joined tuples for the current outer (Inner mode).
    pending: Vec<Tuple>,
}

impl IndexJoin {
    /// Creates an index join of `outer` against the indexed `inner`.
    pub fn new(
        storage: StorageRef,
        outer: BoxedOp,
        inner: IndexedRelation,
        outer_keys: Vec<usize>,
        mode: JoinMode,
    ) -> Result<Self> {
        if outer_keys.len() != inner.key_columns.len() {
            return Err(ExecError::Plan(
                "index join: key lists differ in length".into(),
            ));
        }
        if outer_keys.iter().any(|&k| k >= outer.schema().arity()) {
            return Err(ExecError::Plan("index join: outer key out of range".into()));
        }
        let schema = match mode {
            JoinMode::Inner => {
                let mut fields = outer.schema().fields().to_vec();
                fields.extend(inner.schema.fields().iter().cloned());
                Schema::new(fields)
            }
            JoinMode::LeftSemi => outer.schema().clone(),
        };
        Ok(IndexJoin {
            codec: RecordCodec::new(inner.schema.clone()),
            outer,
            inner,
            outer_keys,
            mode,
            storage,
            schema,
            state: OpState::Created,
            pending: Vec::new(),
        })
    }
}

impl Operator for IndexJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        self.pending.clear();
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(outer) = self.outer.next()? else {
                return Ok(None);
            };
            // The index key is built from the outer's join columns but
            // must look exactly like an inner key: index_key is value-
            // based, so matching values produce matching bytes.
            let key = index_key(&outer, &self.outer_keys);
            let mut sm = self.storage.borrow_mut();
            let rids = self.inner.index.search(&mut sm, &key)?;
            match self.mode {
                JoinMode::LeftSemi => {
                    if !rids.is_empty() {
                        drop(sm);
                        return Ok(Some(outer));
                    }
                }
                JoinMode::Inner => {
                    for rid in rids {
                        let record = sm.get(rid)?;
                        let inner_tuple = self.codec.decode(&record)?;
                        let mut vals = outer.clone().into_values();
                        vals.extend(inner_tuple.into_values());
                        self.pending.push(Tuple::new(vals));
                    }
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.outer.close()?;
        self.pending.clear();
        self.state = OpState::Closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::{load_relation, MemScan};
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::manager::{StorageConfig, StorageManager};

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn indexed(storage: &StorageRef, relation: &Relation, keys: Vec<usize>) -> IndexedRelation {
        let file = load_relation(storage, relation).unwrap();
        build_index(storage, file, relation.schema().clone(), keys).unwrap()
    }

    #[test]
    fn semi_join_probes_without_fetching() {
        let storage = StorageManager::shared(StorageConfig::large());
        let courses = rel(&["cno"], &[&[10], &[20]]);
        let inner = indexed(&storage, &courses, vec![0]);
        let transcript = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let j = IndexJoin::new(
            storage,
            Box::new(MemScan::new(transcript)),
            inner,
            vec![1],
            JoinMode::LeftSemi,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.cardinality(), 3, "the course-30 tuple is dropped");
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn inner_join_fetches_all_matches() {
        let storage = StorageManager::shared(StorageConfig::large());
        let inner_rel = rel(&["k", "x"], &[&[1, 100], &[1, 101], &[2, 200]]);
        let inner = indexed(&storage, &inner_rel, vec![0]);
        let outer = rel(&["k", "y"], &[&[1, 7], &[2, 8], &[3, 9]]);
        let j = IndexJoin::new(
            storage,
            Box::new(MemScan::new(outer)),
            inner,
            vec![0],
            JoinMode::Inner,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // k=1 matches 2 inners, k=2 matches 1, k=3 matches none.
        assert_eq!(out.cardinality(), 3);
        assert_eq!(out.schema().arity(), 4);
    }

    #[test]
    fn large_index_join_matches_hash_join() {
        let storage = StorageManager::shared(StorageConfig::large());
        let inner_rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i % 50, i]).collect();
        let inner_refs: Vec<&[i64]> = inner_rows.iter().map(|r| r.as_slice()).collect();
        let inner_rel = rel(&["k", "x"], &inner_refs);
        let outer_rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 80, i]).collect();
        let outer_refs: Vec<&[i64]> = outer_rows.iter().map(|r| r.as_slice()).collect();
        let outer_rel = rel(&["k", "y"], &outer_refs);

        let inner = indexed(&storage, &inner_rel, vec![0]);
        let ij = IndexJoin::new(
            storage,
            Box::new(MemScan::new(outer_rel.clone())),
            inner,
            vec![0],
            JoinMode::Inner,
        )
        .unwrap();
        let via_index = collect(Box::new(ij)).unwrap();

        let hj = crate::hash_join::HashJoin::new(
            Box::new(MemScan::new(outer_rel)),
            Box::new(MemScan::new(inner_rel)),
            vec![0],
            vec![0],
            JoinMode::Inner,
        )
        .unwrap()
        .with_pool(reldiv_storage::MemoryPool::unbounded());
        let via_hash = collect(Box::new(hj)).unwrap();
        assert_eq!(via_index.bag_counts(), via_hash.bag_counts());
    }

    #[test]
    fn mismatched_keys_are_a_plan_error() {
        let storage = StorageManager::shared(StorageConfig::large());
        let inner = indexed(&storage, &rel(&["k"], &[&[1]]), vec![0]);
        let outer = MemScan::new(rel(&["k"], &[&[1]]));
        assert!(matches!(
            IndexJoin::new(storage, Box::new(outer), inner, vec![0, 0], JoinMode::Inner),
            Err(ExecError::Plan(_))
        ));
    }
}
