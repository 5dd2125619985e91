//! Tuples and the key-subset operations every algorithm is built from.
//!
//! The paper's operators receive compiled comparison and hashing functions
//! "by means of pointers to the function entry points"; here the same role
//! is played by attribute-index slices (`keys: &[usize]`). All comparison
//! and hashing entry points increment the [`crate::counters`] so runs can be
//! priced with the paper's Table 1 cost units.

use std::cmp::Ordering;
use std::hash::Hasher;

use crate::counters;
use crate::value::Value;

/// A row of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `index`; panics if out of range (operators validate
    /// attribute indices against schemas at plan-construction time).
    pub fn value(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Projects the tuple onto the columns at `indices`, in that order.
    ///
    /// This is the "project dividend tuple into quotient tuple" step of the
    /// hash-division algorithm (Figure 1) and the projection operator of the
    /// execution engine.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Compares two tuples on the attribute subsets `self_keys` /
    /// `other_keys` (pairwise, lexicographically). Counts one `Comp`.
    ///
    /// The two key lists may differ, which is how a dividend tuple is
    /// matched against a divisor tuple: the dividend's divisor-attribute
    /// columns against all of the divisor's columns.
    pub fn cmp_on(&self, self_keys: &[usize], other: &Tuple, other_keys: &[usize]) -> Ordering {
        counters::count_comparisons(1);
        debug_assert_eq!(self_keys.len(), other_keys.len());
        for (&a, &b) in self_keys.iter().zip(other_keys) {
            let ord = self.values[a].total_cmp(&other.values[b]);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Equality on attribute subsets. Counts one `Comp`.
    pub fn eq_on(&self, self_keys: &[usize], other: &Tuple, other_keys: &[usize]) -> bool {
        self.cmp_on(self_keys, other, other_keys) == Ordering::Equal
    }

    /// Compares two tuples of the same schema on the same key list.
    pub fn cmp_keys(&self, other: &Tuple, keys: &[usize]) -> Ordering {
        self.cmp_on(keys, other, keys)
    }

    /// Hashes the attribute subset at `keys`. Counts one `Hash`.
    ///
    /// Uses an FNV-1a style fold over the tagged value encoding; a fixed,
    /// dependency-free function keeps hash-table layouts identical across
    /// runs and platforms, which matters for deterministic cost accounting.
    pub fn hash_on(&self, keys: &[usize]) -> u64 {
        counters::count_hashes(1);
        let mut h = Fnv1a::new();
        for &k in keys {
            self.values[k].hash_into(&mut h);
        }
        h.finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a tuple of integer values; the workhorse of tests and workloads.
pub fn ints(values: &[i64]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Value::Int(v)).collect())
}

/// Deterministic FNV-1a hasher used for all tuple hashing.
///
/// Crate-visible so the columnar kernels in [`crate::column`] fold the
/// exact same byte stream per row — hash-table layouts (and therefore
/// output orders) are identical between the tuple and batch paths.
pub(crate) struct Fnv1a(pub(crate) u64);

impl Fnv1a {
    pub(crate) const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    pub(crate) const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;

    #[test]
    fn project_selects_and_reorders() {
        let t = ints(&[10, 20, 30]);
        assert_eq!(t.project(&[2, 0]), ints(&[30, 10]));
        assert_eq!(t.project(&[]), ints(&[]));
    }

    #[test]
    fn cmp_on_is_lexicographic_over_keys() {
        let a = ints(&[1, 5]);
        let b = ints(&[1, 7]);
        assert_eq!(a.cmp_keys(&b, &[0]), Ordering::Equal);
        assert_eq!(a.cmp_keys(&b, &[0, 1]), Ordering::Less);
        assert_eq!(b.cmp_keys(&a, &[1, 0]), Ordering::Greater);
    }

    #[test]
    fn cmp_on_matches_dividend_against_divisor_columns() {
        // Dividend (student-id, course-no) vs divisor (course-no): the
        // dividend's column 1 is compared against the divisor's column 0.
        let dividend = ints(&[42, 7]);
        let divisor = ints(&[7]);
        assert!(dividend.eq_on(&[1], &divisor, &[0]));
        assert!(!dividend.eq_on(&[0], &divisor, &[0]));
    }

    #[test]
    fn hash_on_agrees_for_equal_keys_and_counts_ops() {
        counters::reset();
        let a = ints(&[1, 2, 99]);
        let b = ints(&[1, 2, -5]);
        assert_eq!(a.hash_on(&[0, 1]), b.hash_on(&[0, 1]));
        assert_ne!(a.hash_on(&[0, 2]), b.hash_on(&[0, 2]));
        let snap = counters::snapshot();
        assert_eq!(snap.hashes, 4);
    }

    #[test]
    fn hash_on_differs_for_key_order() {
        let a = ints(&[1, 2]);
        // (1,2) hashed as [0,1] vs [1,0] sees different byte streams.
        assert_ne!(a.hash_on(&[0, 1]), a.hash_on(&[1, 0]));
    }

    #[test]
    fn comparisons_are_counted() {
        counters::reset();
        let a = ints(&[1]);
        let b = ints(&[2]);
        let _ = a.cmp_keys(&b, &[0]);
        let _ = a.eq_on(&[0], &b, &[0]);
        assert_eq!(counters::snapshot().comparisons, 2);
    }

    #[test]
    fn display_renders_parenthesized_row() {
        let t = Tuple::new(vec![Value::Int(1), Value::from("db")]);
        assert_eq!(t.to_string(), "(1, db)");
    }

    #[test]
    fn mixed_type_tuples_compare_totally() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::from("1")]);
        assert_eq!(a.cmp_keys(&b, &[0]), Ordering::Less);
        assert_eq!(b.cmp_keys(&a, &[0]), Ordering::Greater);
    }
}
