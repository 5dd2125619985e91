//! The relation catalog: named, versioned relations.
//!
//! Every `register` (create *or* update) installs a new immutable
//! [`RelationVersion`] under a globally monotonic version number. Queries
//! pin the `Arc` of the version they were admitted with, so a query and
//! a concurrent update never race: the query computes over the version
//! it resolved, and the result cache keys on exact versions, making a
//! stale quotient unrepresentable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use reldiv_rel::{Columns, Schema};

use crate::error::{Result, ServiceError};

/// One immutable version of a named relation.
#[derive(Debug)]
pub struct RelationVersion {
    /// The catalog name.
    pub name: String,
    /// Globally monotonic version number (no two versions of any
    /// relation share one).
    pub version: u64,
    /// The rows, as the columns every pinned query on every worker
    /// scans in place.
    pub rows: Columns,
}

impl RelationVersion {
    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    /// Cardinality of this version.
    pub fn cardinality(&self) -> usize {
        self.rows.cardinality()
    }
}

/// The catalog: name → current [`RelationVersion`].
#[derive(Debug, Default)]
pub struct Catalog {
    relations: RwLock<HashMap<String, Arc<RelationVersion>>>,
    next_version: AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Installs `rows` under `name`, replacing any current version;
    /// returns the new version number.
    pub fn register(&self, name: &str, rows: Columns) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(RelationVersion {
            name: name.to_owned(),
            version,
            rows,
        });
        self.relations.write().insert(name.to_owned(), entry);
        version
    }

    /// Removes `name` from the catalog. Pinned queries against the old
    /// version still complete.
    pub fn drop_relation(&self, name: &str) -> Result<()> {
        match self.relations.write().remove(name) {
            Some(_) => Ok(()),
            None => Err(ServiceError::UnknownRelation(name.to_owned())),
        }
    }

    /// Removes every relation whose name satisfies `stale`; returns the
    /// names removed. Pinned queries still complete.
    pub fn drop_where(&self, stale: impl Fn(&str) -> bool) -> Vec<String> {
        let mut relations = self.relations.write();
        let names: Vec<String> = relations.keys().filter(|n| stale(n)).cloned().collect();
        for name in &names {
            relations.remove(name);
        }
        names
    }

    /// Pins the current version of `name`.
    pub fn get(&self, name: &str) -> Result<Arc<RelationVersion>> {
        self.relations
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownRelation(name.to_owned()))
    }

    /// `(name, version, cardinality)` for every relation, sorted by name.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let mut out: Vec<(String, u64, usize)> = self
            .relations
            .read()
            .values()
            .map(|r| (r.name.clone(), r.version, r.cardinality()))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Tuple;

    fn rel(rows: &[[i64; 2]]) -> Columns {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let tuples: Vec<Tuple> = rows.iter().map(|r| ints(r)).collect();
        Columns::from_tuples(schema, &tuples).unwrap()
    }

    fn first(version: &RelationVersion) -> Tuple {
        version.rows.tuples().next().unwrap()
    }

    #[test]
    fn register_bumps_versions_monotonically() {
        let c = Catalog::new();
        let v1 = c.register("r", rel(&[[1, 2]]));
        let v2 = c.register("s", rel(&[[3, 4]]));
        let v3 = c.register("r", rel(&[[5, 6]]));
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(c.get("r").unwrap().version, v3);
        assert_eq!(first(&c.get("r").unwrap()), ints(&[5, 6]));
    }

    #[test]
    fn pinned_versions_survive_update_and_drop() {
        let c = Catalog::new();
        c.register("r", rel(&[[1, 2]]));
        let pinned = c.get("r").unwrap();
        c.register("r", rel(&[[9, 9]]));
        c.drop_relation("r").unwrap();
        assert_eq!(first(&pinned), ints(&[1, 2]));
        assert!(matches!(c.get("r"), Err(ServiceError::UnknownRelation(_))));
    }

    #[test]
    fn list_reports_names_versions_cardinalities() {
        let c = Catalog::new();
        c.register("b", rel(&[[1, 2], [3, 4]]));
        c.register("a", rel(&[[1, 2]]));
        let l = c.list();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].0, "a");
        assert_eq!(l[1].2, 2);
    }
}
