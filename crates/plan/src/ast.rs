//! The logical plan language: abstract syntax and the canonical printer.
//!
//! Plans are written as s-expressions (see `docs/PLANS.md` for the
//! grammar). The printer emits the *canonical* form — one line, single
//! spaces, option groups in a fixed order — and the parser accepts any
//! whitespace and any option-group order, so `parse ∘ print` is the
//! identity on syntax trees (property-tested in `parse.rs`).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::Algorithm;

/// A column reference: by name (resolved against the input schema,
/// leftmost match wins) or by position (`#3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColRef {
    /// Reference by field name.
    Name(String),
    /// Reference by zero-based position.
    Index(usize),
}

impl ColRef {
    fn print_into(&self, out: &mut String) {
        match self {
            ColRef::Name(n) => out.push_str(n),
            ColRef::Index(i) => {
                let _ = write!(out, "#{i}");
            }
        }
    }
}

/// A literal value in a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// String literal (double-quoted in the text form).
    Str(String),
}

impl Lit {
    fn print_into(&self, out: &mut String) {
        match self {
            Lit::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Lit::Str(s) => print_quoted(s, out),
        }
    }
}

/// Prints a double-quoted string literal with escapes.
pub(crate) fn print_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// The operator's source token.
    pub fn token(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    /// Parses an operator token.
    pub fn from_token(tok: &str) -> Option<Cmp> {
        Some(match tok {
            "=" => Cmp::Eq,
            "!=" => Cmp::Ne,
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            _ => return None,
        })
    }

    /// Applies the comparison to an ordering of `left` vs `right`.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (Cmp::Eq, Equal)
                | (Cmp::Ne, Less | Greater)
                | (Cmp::Lt, Less)
                | (Cmp::Le, Less | Equal)
                | (Cmp::Gt, Greater)
                | (Cmp::Ge, Greater | Equal)
        )
    }
}

/// A selection predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `(<cmp> col lit)` — compare a column against a literal.
    Compare {
        /// The column compared.
        col: ColRef,
        /// The comparison operator.
        cmp: Cmp,
        /// The literal compared against.
        value: Lit,
    },
    /// `(contains col "needle")` — case-insensitive substring match on a
    /// string column (the paper's "title contains 'database'" selection).
    Contains {
        /// The string column searched.
        col: ColRef,
        /// The needle, matched case-insensitively.
        needle: String,
    },
}

impl Pred {
    fn print_into(&self, out: &mut String) {
        match self {
            Pred::Compare { col, cmp, value } => {
                out.push('(');
                out.push_str(cmp.token());
                out.push(' ');
                col.print_into(out);
                out.push(' ');
                value.print_into(out);
                out.push(')');
            }
            Pred::Contains { col, needle } => {
                out.push_str("(contains ");
                col.print_into(out);
                out.push(' ');
                print_quoted(needle, out);
                out.push(')');
            }
        }
    }
}

/// An explicit division-algorithm hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmHint {
    /// Let the Section 4 cost model choose (the default).
    #[default]
    Auto,
    /// Naive sorted-merge division.
    Naive,
    /// Sort-based aggregation, no semi-join.
    SortAgg,
    /// Sort-based aggregation with merge semi-join.
    SortAggJoin,
    /// Hash-based aggregation, no semi-join.
    HashAgg,
    /// Hash-based aggregation with hash semi-join.
    HashAggJoin,
    /// Hash-division (standard).
    HashDiv,
    /// Hash-division with early-out.
    HashDivEarly,
    /// Hash-division, counter-only.
    HashDivCounter,
}

impl AlgorithmHint {
    /// The hint's source token.
    pub fn token(self) -> &'static str {
        match self {
            AlgorithmHint::Auto => "auto",
            AlgorithmHint::Naive => "naive",
            AlgorithmHint::SortAgg => "sort-agg",
            AlgorithmHint::SortAggJoin => "sort-agg-join",
            AlgorithmHint::HashAgg => "hash-agg",
            AlgorithmHint::HashAggJoin => "hash-agg-join",
            AlgorithmHint::HashDiv => "hash-div",
            AlgorithmHint::HashDivEarly => "hash-div-early",
            AlgorithmHint::HashDivCounter => "hash-div-counter",
        }
    }

    /// Parses a hint token.
    pub fn from_token(tok: &str) -> Option<AlgorithmHint> {
        Some(match tok {
            "auto" => AlgorithmHint::Auto,
            "naive" => AlgorithmHint::Naive,
            "sort-agg" => AlgorithmHint::SortAgg,
            "sort-agg-join" => AlgorithmHint::SortAggJoin,
            "hash-agg" => AlgorithmHint::HashAgg,
            "hash-agg-join" => AlgorithmHint::HashAggJoin,
            "hash-div" => AlgorithmHint::HashDiv,
            "hash-div-early" => AlgorithmHint::HashDivEarly,
            "hash-div-counter" => AlgorithmHint::HashDivCounter,
            _ => return None,
        })
    }

    /// The forced algorithm, or `None` for `Auto`.
    pub fn algorithm(self) -> Option<Algorithm> {
        Some(match self {
            AlgorithmHint::Auto => return None,
            AlgorithmHint::Naive => Algorithm::Naive,
            AlgorithmHint::SortAgg => Algorithm::SortAggregation { join: false },
            AlgorithmHint::SortAggJoin => Algorithm::SortAggregation { join: true },
            AlgorithmHint::HashAgg => Algorithm::HashAggregation { join: false },
            AlgorithmHint::HashAggJoin => Algorithm::HashAggregation { join: true },
            AlgorithmHint::HashDiv => Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            AlgorithmHint::HashDivEarly => Algorithm::HashDivision {
                mode: HashDivisionMode::EarlyOut,
            },
            AlgorithmHint::HashDivCounter => Algorithm::HashDivision {
                mode: HashDivisionMode::CounterOnly,
            },
        })
    }
}

impl From<Algorithm> for AlgorithmHint {
    /// The hint that pins `algorithm` (the inverse of
    /// [`AlgorithmHint::algorithm`]).
    fn from(algorithm: Algorithm) -> AlgorithmHint {
        use HashDivisionMode::*;
        match algorithm {
            Algorithm::Naive => AlgorithmHint::Naive,
            Algorithm::SortAggregation { join: false } => AlgorithmHint::SortAgg,
            Algorithm::SortAggregation { join: true } => AlgorithmHint::SortAggJoin,
            Algorithm::HashAggregation { join: false } => AlgorithmHint::HashAgg,
            Algorithm::HashAggregation { join: true } => AlgorithmHint::HashAggJoin,
            Algorithm::HashDivision { mode: Standard } => AlgorithmHint::HashDiv,
            Algorithm::HashDivision { mode: EarlyOut } => AlgorithmHint::HashDivEarly,
            Algorithm::HashDivision { mode: CounterOnly } => AlgorithmHint::HashDivCounter,
        }
    }
}

/// A three-valued property hint: derive it, or assert it either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tri {
    /// Derive the property from the plan (the default).
    #[default]
    Auto,
    /// Assert the property holds.
    Yes,
    /// Assert the property does not hold.
    No,
}

impl Tri {
    /// The hint's source token.
    pub fn token(self) -> &'static str {
        match self {
            Tri::Auto => "auto",
            Tri::Yes => "yes",
            Tri::No => "no",
        }
    }

    /// Parses a hint token.
    pub fn from_token(tok: &str) -> Option<Tri> {
        Some(match tok {
            "auto" => Tri::Auto,
            "yes" => Tri::Yes,
            "no" => Tri::No,
            _ => return None,
        })
    }
}

/// Per-division planner hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DivideHints {
    /// Force a specific algorithm instead of the cost model's choice.
    pub algorithm: AlgorithmHint,
    /// Whether the dividend may reference divisor-attribute values absent
    /// from the divisor (Section 5.2's *restricted divisor*). `Auto` is
    /// conservative (`yes`); `no` asserts referential integrity and
    /// unlocks the no-join aggregation plans.
    pub restricted: Tri,
    /// Whether both division inputs are duplicate-free. `Auto` derives it
    /// from the plan shape (`distinct`/`group-count` outputs are
    /// duplicate-free, scans are not).
    pub unique: Tri,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// `(scan name)` — read a catalog relation.
    Scan {
        /// The catalog name.
        relation: String,
    },
    /// `(filter pred input)` — selection.
    Filter {
        /// The predicate.
        pred: Pred,
        /// The input plan.
        input: Box<Plan>,
    },
    /// `(project (col ...) input)` — projection (bag semantics, no
    /// duplicate elimination; compose with `distinct` for sets).
    Project {
        /// The columns kept, in output order.
        columns: Vec<ColRef>,
        /// The input plan.
        input: Box<Plan>,
    },
    /// `(distinct input)` — duplicate elimination over all columns.
    Distinct {
        /// The input plan.
        input: Box<Plan>,
    },
    /// `(join (on (l r) ...) left right)` — inner equi-join; the output
    /// schema is the left fields followed by the right fields.
    Join {
        /// Join key pairs: `(left column, right column)`.
        on: Vec<(ColRef, ColRef)>,
        /// The left (probe) input.
        left: Box<Plan>,
        /// The right (build) input.
        right: Box<Plan>,
    },
    /// `(group-count (key ...) input)` — grouped `COUNT(*)`; appends an
    /// integer `count` column after the group keys.
    GroupCount {
        /// The grouping columns.
        keys: Vec<ColRef>,
        /// The input plan.
        input: Box<Plan>,
    },
    /// `(having-count cmp n input)` — filter grouped rows by their
    /// trailing `count` column, then project the count away (SQL's
    /// `HAVING COUNT(*) cmp n`).
    HavingCount {
        /// The comparison applied to the count.
        cmp: Cmp,
        /// The literal compared against.
        target: i64,
        /// The input plan (must end in an integer `count` column).
        input: Box<Plan>,
    },
    /// `(divide (on col ...) [(quotient col ...)] [hints] dividend
    /// divisor)` — relational division. `on` names the dividend columns
    /// matched positionally against the divisor's columns; `quotient`
    /// defaults to every other dividend column, in schema order.
    Divide {
        /// Dividend columns matched against the divisor, in divisor
        /// column order.
        on: Vec<ColRef>,
        /// Quotient columns; `None` means all non-`on` columns.
        quotient: Option<Vec<ColRef>>,
        /// Planner hints.
        hints: DivideHints,
        /// The dividend plan.
        dividend: Box<Plan>,
        /// The divisor plan.
        divisor: Box<Plan>,
    },
}

impl Plan {
    /// Renders the canonical text form.
    pub fn print(&self) -> String {
        let mut out = String::new();
        self.print_into(&mut out);
        out
    }

    fn print_cols(cols: &[ColRef], out: &mut String) {
        out.push('(');
        for (i, c) in cols.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            c.print_into(out);
        }
        out.push(')');
    }

    fn print_into(&self, out: &mut String) {
        match self {
            Plan::Scan { relation } => {
                let _ = write!(out, "(scan {relation})");
            }
            Plan::Filter { pred, input } => {
                out.push_str("(filter ");
                pred.print_into(out);
                out.push(' ');
                input.print_into(out);
                out.push(')');
            }
            Plan::Project { columns, input } => {
                out.push_str("(project ");
                Self::print_cols(columns, out);
                out.push(' ');
                input.print_into(out);
                out.push(')');
            }
            Plan::Distinct { input } => {
                out.push_str("(distinct ");
                input.print_into(out);
                out.push(')');
            }
            Plan::Join { on, left, right } => {
                out.push_str("(join (on");
                for (l, r) in on {
                    out.push_str(" (");
                    l.print_into(out);
                    out.push(' ');
                    r.print_into(out);
                    out.push(')');
                }
                out.push_str(") ");
                left.print_into(out);
                out.push(' ');
                right.print_into(out);
                out.push(')');
            }
            Plan::GroupCount { keys, input } => {
                out.push_str("(group-count ");
                Self::print_cols(keys, out);
                out.push(' ');
                input.print_into(out);
                out.push(')');
            }
            Plan::HavingCount { cmp, target, input } => {
                let _ = write!(out, "(having-count {} {target} ", cmp.token());
                input.print_into(out);
                out.push(')');
            }
            Plan::Divide {
                on,
                quotient,
                hints,
                dividend,
                divisor,
            } => {
                out.push_str("(divide (on");
                for c in on {
                    out.push(' ');
                    c.print_into(out);
                }
                out.push(')');
                if let Some(q) = quotient {
                    out.push_str(" (quotient");
                    for c in q {
                        out.push(' ');
                        c.print_into(out);
                    }
                    out.push(')');
                }
                if hints.algorithm != AlgorithmHint::Auto {
                    let _ = write!(out, " (algorithm {})", hints.algorithm.token());
                }
                if hints.restricted != Tri::Auto {
                    let _ = write!(out, " (restricted {})", hints.restricted.token());
                }
                if hints.unique != Tri::Auto {
                    let _ = write!(out, " (unique {})", hints.unique.token());
                }
                out.push(' ');
                dividend.print_into(out);
                out.push(' ');
                divisor.print_into(out);
                out.push(')');
            }
        }
    }

    /// Collects every catalog relation the plan scans, deduplicated and
    /// sorted (the set a service must pin before executing).
    pub fn relations(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_relations(&mut set);
        set.into_iter().collect()
    }

    fn collect_relations(&self, out: &mut BTreeSet<String>) {
        match self {
            Plan::Scan { relation } => {
                out.insert(relation.clone());
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCount { input, .. } => input.collect_relations(out),
            Plan::Join { left, right, .. } => {
                left.collect_relations(out);
                right.collect_relations(out);
            }
            Plan::Divide {
                dividend, divisor, ..
            } => {
                dividend.collect_relations(out);
                divisor.collect_relations(out);
            }
        }
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCount { input, .. } => input.node_count(),
            Plan::Join { left, right, .. } => left.node_count() + right.node_count(),
            Plan::Divide {
                dividend, divisor, ..
            } => dividend.node_count() + divisor.node_count(),
        }
    }
}
