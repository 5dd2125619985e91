//! Composable query plans over the division engine.
//!
//! The paper's algorithms never run in isolation: its motivating query
//! ("students who have taken all courses whose title contains
//! 'database'") divides a base relation by a *selected, projected*
//! subset of another, and Section 5 stresses that the inputs to a
//! division are typically intermediate results of larger plans. This
//! crate supplies that surrounding machinery:
//!
//! * a small s-expression **plan language** ([`parse()`]) with
//!   a canonical printer (parse → print → parse is the identity);
//! * a **validator** ([`bind`]) that resolves names
//!   against a catalog, type-checks, and annotates every node with the
//!   cardinality and duplicate-freeness facts the cost model needs;
//! * a **lowering executor** ([`execute`]) that turns the
//!   bound tree into `reldiv-exec` batch operators — the one engine plans
//!   run on — choosing each division's algorithm with the Section 4 cost
//!   model (or a plan hint), and reports every choice it made;
//! * a brute-force **reference interpreter**
//!   ([`evaluate`]) serving as the correctness
//!   oracle for all of the above.
//!
//! The example from the paper, in plan text:
//!
//! ```text
//! (divide (on course-no)
//!   (scan transcript)
//!   (project (course-no)
//!     (filter (contains title "database") (scan courses))))
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod error;
pub mod lower;
pub mod parse;
pub mod reference;
pub mod validate;

use std::collections::HashMap;

use reldiv_core::api::Source;
use reldiv_rel::{Relation, Schema};

pub use ast::{AlgorithmHint, Cmp, ColRef, DivideHints, Lit, Plan, Pred, Tri};
pub use error::{PlanError, Result};
pub use lower::{execute, DivisionChoice, ExecOptions, PlanOutput, SourceProvider};
pub use parse::parse;
pub use reference::{canonical_bytes, evaluate, RelationSource};
pub use validate::{bind, Bound, BoundNode, CatalogSource};

/// An in-memory catalog of named relations, usable as the
/// [`CatalogSource`] for validation, the [`SourceProvider`] for
/// execution, and the [`RelationSource`] for the reference oracle.
#[derive(Debug, Default, Clone)]
pub struct MemCatalog {
    relations: HashMap<String, Relation>,
}

impl MemCatalog {
    /// An empty catalog.
    pub fn new() -> MemCatalog {
        MemCatalog::default()
    }

    /// Adds (or replaces) a relation.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.insert(name.into(), relation);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }
}

impl CatalogSource for MemCatalog {
    fn lookup(&self, name: &str) -> Option<(Schema, u64)> {
        self.relations
            .get(name)
            .map(|r| (r.schema().clone(), r.cardinality() as u64))
    }
}

impl SourceProvider for MemCatalog {
    fn source(&mut self, name: &str) -> Result<Source> {
        self.relations
            .get(name)
            .map(Source::from_relation)
            .ok_or_else(|| PlanError::Validate(format!("unknown relation {name:?}")))
    }
}

impl RelationSource for MemCatalog {
    fn relation(&self, name: &str) -> Option<Relation> {
        self.relations.get(name).cloned()
    }
}

/// Parses, validates, and executes a plan over an in-memory catalog in
/// one call — the convenience entry point for tests and the CLI.
pub fn run_plan(text: &str, catalog: &MemCatalog, opts: &ExecOptions) -> Result<PlanOutput> {
    let plan = parse(text)?;
    let bound = bind(&plan, catalog)?;
    let mut provider = catalog.clone();
    execute(&bound, &mut provider, opts)
}
