//! Columnar batches and the packed-key kernels of the vectorized path.
//!
//! A [`Batch`] holds up to a fixed number of rows of one schema in
//! column-major [`ColumnVec`]s. The batch operators in `reldiv-exec`
//! process whole batches at a time, paying one virtual call, one cancel
//! poll, and one profile-span update per batch instead of per tuple.
//!
//! The kernels here are **bit-identical** to the tuple-at-a-time entry
//! points on [`Tuple`]:
//!
//! * [`Batch::hash_rows`] folds exactly the byte stream of
//!   [`Tuple::hash_on`] (the tagged FNV-1a encoding of each key value),
//!   so hash-table bucket layouts — and therefore output orders — are
//!   identical between the two execution paths;
//! * [`Batch::row_eq_tuple`] applies the same total order as
//!   [`Tuple::eq_on`].
//!
//! Abstract-operation accounting is bulk but equal in total: hashing a
//! batch of `n` rows counts `n` `Hash` operations, the same as `n` calls
//! to `hash_on`; each row-vs-tuple equality counts one `Comp`.
//!
//! [`Columns`] is a whole relation in this form: `Arc`-shared batches a
//! catalog can hold once and every scan on every thread can read in
//! place.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::codec;
use crate::counters;
use crate::error::RelError;
use crate::relation::Relation;
use crate::schema::{ColumnType, Schema};
use crate::tuple::{Fnv1a, Tuple};
use crate::value::Value;

/// One column of a [`Batch`], in row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnVec {
    /// A column of 64-bit integers.
    Int(Vec<i64>),
    /// A column of strings.
    Str(Vec<String>),
}

impl ColumnVec {
    /// An empty column of the given type, with room for `capacity` rows.
    pub fn with_capacity(ty: ColumnType, capacity: usize) -> ColumnVec {
        match ty {
            ColumnType::Int => ColumnVec::Int(Vec::with_capacity(capacity)),
            ColumnType::Str(_) => ColumnVec::Str(Vec::with_capacity(capacity)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`, cloned out of the column.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[row]),
            ColumnVec::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Appends a value; panics on a type mismatch (batch construction
    /// sites validate against the schema).
    pub fn push(&mut self, value: &Value) {
        match (self, value) {
            (ColumnVec::Int(v), Value::Int(i)) => v.push(*i),
            (ColumnVec::Str(v), Value::Str(s)) => v.push(s.clone()),
            (col, value) => panic!(
                "column/value type mismatch: {} into {} column",
                value.type_name(),
                match col {
                    ColumnVec::Int(_) => "Int",
                    ColumnVec::Str(_) => "Str",
                }
            ),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            ColumnVec::Int(v) => v.truncate(len),
            ColumnVec::Str(v) => v.truncate(len),
        }
    }

    fn push_from(&mut self, other: &ColumnVec, row: usize) {
        match (self, other) {
            (ColumnVec::Int(dst), ColumnVec::Int(src)) => dst.push(src[row]),
            (ColumnVec::Str(dst), ColumnVec::Str(src)) => dst.push(src[row].clone()),
            _ => panic!("column type mismatch in push_from"),
        }
    }
}

/// A fixed-capacity columnar chunk of rows sharing one schema.
///
/// The unit of work of the vectorized execution path: operators consume
/// and produce batches, and the hash/compare kernels below run over a
/// batch's key columns in tight per-column loops.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Schema,
    columns: Vec<ColumnVec>,
    len: usize,
}

impl Batch {
    /// An empty batch for `schema`, with per-column room for `capacity`
    /// rows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::with_capacity(f.ty, capacity))
            .collect();
        Batch {
            schema,
            columns,
            len: 0,
        }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// The column at `index`.
    pub fn column(&self, index: usize) -> &ColumnVec {
        &self.columns[index]
    }

    /// Appends one row from a tuple; the tuple must conform to the
    /// batch's schema.
    #[inline]
    pub fn push_tuple(&mut self, tuple: &Tuple) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        for (col, value) in self.columns.iter_mut().zip(tuple.values()) {
            col.push(value);
        }
        self.len += 1;
    }

    /// Appends one row decoded from a fixed-width record of the batch's
    /// schema, straight into the columns — [`crate::RecordCodec::decode`]
    /// without the intermediate tuple, and with its validation: a
    /// truncated record or a string field that is not UTF-8 is an error
    /// and leaves the batch unchanged.
    pub fn push_record(&mut self, record: &[u8]) -> crate::Result<()> {
        codec::check_width(&self.schema, record)?;
        let mut at = 0;
        let mut invalid = None;
        for (col, field) in self.columns.iter_mut().zip(self.schema.fields()) {
            let width = field.ty.width();
            let raw = &record[at..at + width];
            at += width;
            match col {
                ColumnVec::Int(v) => v.push(i64::from_le_bytes(
                    raw.try_into().expect("an Int field is 8 bytes wide"),
                )),
                ColumnVec::Str(v) => match codec::str_field(raw) {
                    Ok(s) => v.push(s.to_owned()),
                    Err(e) => {
                        invalid = Some(e);
                        break;
                    }
                },
            }
        }
        if let Some(e) = invalid {
            // Drop what the earlier columns took of this row.
            for col in &mut self.columns {
                col.truncate(self.len);
            }
            return Err(e);
        }
        self.len += 1;
        Ok(())
    }

    /// Appends one row per record — [`Batch::push_record`] a column at a
    /// time. Every record's width and every string field's UTF-8 are
    /// checked first, so an error leaves the batch unchanged; then each
    /// column is filled in one loop over the records.
    pub fn push_records<'r>(
        &mut self,
        records: impl Iterator<Item = &'r [u8]>,
    ) -> crate::Result<()> {
        let width = self.schema.record_width();
        let mut at = 0;
        let fields = self.schema.fields().iter().map(|f| {
            let field = (at, f.ty);
            at += f.ty.width();
            field
        });
        let fields: Vec<(usize, ColumnType)> = fields.collect();
        let mut checked: Vec<&[u8]> = Vec::with_capacity(records.size_hint().0);
        for record in records {
            if record.len() < width {
                codec::check_width(&self.schema, record)?;
            }
            for &(at, ty) in &fields {
                if let ColumnType::Str(w) = ty {
                    codec::str_field(&record[at..at + w])?;
                }
            }
            checked.push(&record[..width]);
        }
        for (col, &(at, ty)) in self.columns.iter_mut().zip(&fields) {
            match col {
                ColumnVec::Int(v) => v.extend(checked.iter().map(|record| {
                    i64::from_le_bytes(record[at..at + 8].try_into().expect("8 bytes"))
                })),
                ColumnVec::Str(v) => v.extend(checked.iter().map(|record| {
                    let s = codec::str_field(&record[at..at + ty.width()]);
                    s.expect("checked above").to_owned()
                })),
            }
        }
        self.len += checked.len();
        Ok(())
    }

    /// Appends every row as a fixed-width record of the batch's schema,
    /// back to back — [`crate::RecordCodec::encode_into`] a column at a
    /// time, with its checks (column type, declared string width, no
    /// embedded NUL). On an error `out` is left as it was.
    pub fn encode_records(&self, out: &mut Vec<u8>) -> crate::Result<()> {
        let (base, width) = (out.len(), self.schema.record_width());
        out.resize(base + self.len * width, 0);
        let mut at = base;
        let mut invalid = None;
        for (i, (col, field)) in self.columns.iter().zip(self.schema.fields()).enumerate() {
            match (col, field.ty) {
                (ColumnVec::Int(vs), ColumnType::Int) => {
                    for (row, v) in vs.iter().enumerate() {
                        out[at + row * width..][..8].copy_from_slice(&v.to_le_bytes());
                    }
                }
                (ColumnVec::Str(vs), ColumnType::Str(w)) => {
                    for (row, s) in vs.iter().enumerate() {
                        if s.len() > w {
                            let (column, len) = (i, s.len());
                            invalid = Some(RelError::StringTooLong {
                                column,
                                width: w,
                                len,
                            });
                        } else if s.as_bytes().contains(&0) {
                            invalid = Some(codec::embedded_nul(i));
                        } else {
                            out[at + row * width..][..s.len()].copy_from_slice(s.as_bytes());
                        }
                    }
                }
                _ => unreachable!("a batch's columns have its schema's types"),
            }
            at += field.ty.width();
        }
        invalid.map_or(Ok(()), |e| {
            out.truncate(base);
            Err(e)
        })
    }

    /// The batch under `schema` — its own fields and more — with
    /// `columns` appended.
    pub fn widen(mut self, schema: Schema, columns: impl IntoIterator<Item = ColumnVec>) -> Batch {
        let own = self.columns.len();
        self.columns.extend(columns);
        assert_eq!(schema.arity(), self.columns.len());
        for (column, field) in self.columns[own..].iter().zip(&schema.fields()[own..]) {
            assert_eq!(
                matches!(column, ColumnVec::Int(_)),
                field.ty == ColumnType::Int
            );
            assert_eq!(column.len(), self.len);
        }
        self.schema = schema;
        self
    }

    /// Appends row `row` of `other`; the schemas must have identical
    /// column types (checked per column in debug builds).
    #[inline]
    pub fn push_row_from(&mut self, other: &Batch, row: usize) {
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.push_from(src, row);
        }
        self.len += 1;
    }

    /// Appends row `row` of `other` projected onto `keys`, in that order;
    /// the projected columns must have this batch's column types.
    #[inline]
    pub fn push_projected(&mut self, other: &Batch, keys: &[usize], row: usize) {
        debug_assert_eq!(keys.len(), self.columns.len());
        for (dst, &k) in self.columns.iter_mut().zip(keys) {
            dst.push_from(&other.columns[k], row);
        }
        self.len += 1;
    }

    /// Materializes row `row` as a [`Tuple`].
    #[inline]
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Materializes row `row` projected onto `keys`, in that order —
    /// the batch analogue of [`Tuple::project`].
    #[inline]
    pub fn tuple_projected(&self, keys: &[usize], row: usize) -> Tuple {
        Tuple::new(keys.iter().map(|&k| self.columns[k].value(row)).collect())
    }

    /// Drains the batch into tuples, in row order.
    pub fn into_tuples(self) -> Vec<Tuple> {
        (0..self.len).map(|row| self.tuple(row)).collect()
    }

    /// A new batch with the columns at `keys`, in that order (row count
    /// unchanged). Fails if an index is out of range.
    pub fn project(&self, keys: &[usize]) -> crate::Result<Batch> {
        let schema = self.schema.project(keys)?;
        let columns = keys.iter().map(|&k| self.columns[k].clone()).collect();
        Ok(Batch {
            schema,
            columns,
            len: self.len,
        })
    }

    /// The batch cut into batches of `rows` rows (the last may be short;
    /// no rows, no batch): its columns split, not rebuilt row by row.
    pub fn into_chunks(self, rows: usize) -> Vec<Batch> {
        let rows = rows.max(1);
        if self.len <= rows {
            return (self.len > 0).then_some(self).into_iter().collect();
        }
        let lens = (0..self.len)
            .step_by(rows)
            .map(|at| rows.min(self.len - at));
        let mut out: Vec<Batch> = lens
            .map(|len| Batch {
                schema: self.schema.clone(),
                columns: Vec::with_capacity(self.columns.len()),
                len,
            })
            .collect();
        for column in self.columns {
            match column {
                ColumnVec::Int(v) => {
                    for (batch, chunk) in out.iter_mut().zip(v.chunks(rows)) {
                        batch.columns.push(ColumnVec::Int(chunk.to_vec()));
                    }
                }
                ColumnVec::Str(v) => {
                    let mut values = v.into_iter();
                    for batch in &mut out {
                        let chunk = values.by_ref().take(batch.len).collect();
                        batch.columns.push(ColumnVec::Str(chunk));
                    }
                }
            }
        }
        out
    }

    /// The columns, in schema order.
    pub fn into_columns(self) -> Vec<ColumnVec> {
        self.columns
    }

    /// A new batch keeping only the rows at `rows`, in that order.
    pub fn gather(&self, rows: &[usize]) -> Batch {
        let mut out = Batch::with_capacity(self.schema.clone(), rows.len());
        for &row in rows {
            out.push_row_from(self, row);
        }
        out
    }

    /// The packed-key hash kernel: FNV-1a over the tagged encoding of
    /// the key columns, one output per row.
    ///
    /// Byte-for-byte the stream [`Tuple::hash_on`] folds, so the two
    /// paths agree on every hash value. Counts one `Hash` per row (in
    /// bulk).
    pub fn hash_rows(&self, keys: &[usize]) -> Vec<u64> {
        counters::count_hashes(self.len as u64);
        self.hash_rows_uncounted(keys)
    }

    /// [`Batch::hash_rows`] counting nothing, for a caller that counts one
    /// `Hash` per row as it uses the row's hash — so that rows it never
    /// gets to, when it stops midway, are not counted.
    pub fn hash_rows_uncounted(&self, keys: &[usize]) -> Vec<u64> {
        self.hash_kernel(keys, self.len, |i| i)
    }

    /// [`Batch::hash_rows`] over the rows at `rows` only, in that order:
    /// one output, and one `Hash`, per selected row.
    pub fn hash_rows_at(&self, keys: &[usize], rows: &[usize]) -> Vec<u64> {
        counters::count_hashes(rows.len() as u64);
        self.hash_kernel(keys, rows.len(), |i| rows[i])
    }

    /// The one hash kernel, over a row selection: output `i` hashes row
    /// `row(i)`, for `i < n`, a key column at a time. Counts nothing.
    #[inline]
    fn hash_kernel(&self, keys: &[usize], n: usize, row: impl Fn(usize) -> usize) -> Vec<u64> {
        let mut states = vec![Fnv1a::OFFSET; n];
        for &k in keys {
            match &self.columns[k] {
                ColumnVec::Int(vs) => fold_ints(&mut states, |i| vs[row(i)]),
                ColumnVec::Str(vs) => {
                    for (i, state) in states.iter_mut().enumerate() {
                        // Value::hash_into: tag byte 1, then str::hash
                        // (bytes plus a 0xff terminator).
                        let mut fnv = Fnv1a(*state);
                        fnv.write_u8(1);
                        vs[row(i)].as_str().hash(&mut fnv);
                        *state = fnv.finish();
                    }
                }
            }
        }
        states
    }

    /// Equality of row `row` on `keys` against `other` on `other_keys`,
    /// with the same cross-type total order as [`Tuple::eq_on`]. Counts
    /// one `Comp`.
    #[inline]
    pub fn row_eq_tuple(
        &self,
        keys: &[usize],
        row: usize,
        other: &Tuple,
        other_keys: &[usize],
    ) -> bool {
        counters::count_comparisons(1);
        debug_assert_eq!(keys.len(), other_keys.len());
        for (&a, &b) in keys.iter().zip(other_keys) {
            let equal = match (&self.columns[a], other.value(b)) {
                (ColumnVec::Int(vs), Value::Int(o)) => vs[row] == *o,
                (ColumnVec::Str(vs), Value::Str(o)) => vs[row] == *o,
                _ => false,
            };
            if !equal {
                return false;
            }
        }
        true
    }

    /// Orders row `row` on `keys` against row `other_row` of `other` on
    /// `other_keys`, as [`Tuple::cmp_on`] orders the same rows as tuples.
    /// Counts one `Comp`.
    #[inline]
    pub fn cmp_rows(
        &self,
        keys: &[usize],
        row: usize,
        other: &Batch,
        other_keys: &[usize],
        other_row: usize,
    ) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        counters::count_comparisons(1);
        debug_assert_eq!(keys.len(), other_keys.len());
        for (&a, &b) in keys.iter().zip(other_keys) {
            let ord = match (&self.columns[a], &other.columns[b]) {
                (ColumnVec::Int(x), ColumnVec::Int(y)) => x[row].cmp(&y[other_row]),
                (ColumnVec::Str(x), ColumnVec::Str(y)) => x[row].cmp(&y[other_row]),
                (ColumnVec::Int(_), ColumnVec::Str(_)) => Ordering::Less,
                (ColumnVec::Str(_), ColumnVec::Int(_)) => Ordering::Greater,
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Folds an `Int` key value into every state as `Value::hash_into` does —
/// tag byte 0, whose XOR is a no-op, so one multiply; then `i64::hash`'s
/// native-endian bytes — state `i` taking `value(i)`. Four rows go at a
/// time, in four independent FNV-1a chains whose multiplies overlap.
#[inline]
fn fold_ints(states: &mut [u64], value: impl Fn(usize) -> i64) {
    const PRIME: u64 = Fnv1a::PRIME;
    let fold = |h: u64, byte: u8| (h ^ u64::from(byte)).wrapping_mul(PRIME);
    let quads = states.len() / 4 * 4;
    for (q, lanes) in states[..quads].chunks_exact_mut(4).enumerate() {
        let bytes: [[u8; 8]; 4] = std::array::from_fn(|l| value(4 * q + l).to_ne_bytes());
        let mut h: [u64; 4] = std::array::from_fn(|l| lanes[l].wrapping_mul(PRIME));
        for b in 0..8 {
            for (h, bytes) in h.iter_mut().zip(&bytes) {
                *h = fold(*h, bytes[b]);
            }
        }
        lanes.copy_from_slice(&h);
    }
    for (i, state) in states.iter_mut().enumerate().skip(quads) {
        let bytes = value(i).to_ne_bytes();
        *state = bytes.into_iter().fold(state.wrapping_mul(PRIME), fold);
    }
}

/// Rows per batch of a [`Columns`] relation, and of the batches the
/// vectorized scans produce. The paper prices per-tuple hash/compare
/// work; 1024 rows amortize the per-call overheads to noise while a
/// batch of the paper's 8–16 byte records stays comfortably inside L1.
pub const BATCH_ROWS: usize = 1024;

/// A relation held as columns: a schema plus its rows as shared,
/// immutable, non-empty [`Batch`]es in row order.
///
/// `Send + Sync` and cheap to clone, so one copy serves a catalog and
/// every query on every thread. [`Columns::from_tuples`] and
/// [`Columns::from_records`] validate: each of their rows has a
/// fixed-width record, so the relation can be written to a file later.
#[derive(Debug, Clone)]
pub struct Columns {
    schema: Schema,
    batches: Arc<[Batch]>,
}

impl Columns {
    /// Wraps batches an operator produced, as they are (empty ones are
    /// dropped); their column types must be `schema`'s.
    pub fn from_batches(schema: Schema, mut batches: Vec<Batch>) -> Columns {
        batches.retain(|b| !b.is_empty());
        Columns {
            schema,
            batches: batches.into(),
        }
    }

    /// Converts tuples, [`BATCH_ROWS`] to a batch, checking each as
    /// [`crate::RecordCodec::encode`] would: arity, types, string widths,
    /// no embedded NUL.
    pub fn from_tuples<T: Borrow<Tuple>>(schema: Schema, tuples: &[T]) -> crate::Result<Columns> {
        (tuples.iter()).try_for_each(|t| codec::check_tuple(&schema, t.borrow()))?;
        Ok(Columns::chunked(schema, tuples))
    }

    /// Converts a relation, [`BATCH_ROWS`] to a batch. Its tuples already
    /// have its schema's types and widths; a string no record can hold (an
    /// embedded NUL) is kept, to fail where a record is written.
    pub fn from_relation(relation: &Relation) -> Columns {
        Columns::chunked(relation.schema().clone(), relation.tuples())
    }

    /// `tuples` as they are, [`BATCH_ROWS`] to a batch.
    fn chunked<T: Borrow<Tuple>>(schema: Schema, tuples: &[T]) -> Columns {
        let batches = tuples.chunks(BATCH_ROWS).map(|chunk| {
            let mut batch = Batch::with_capacity(schema.clone(), chunk.len());
            chunk.iter().for_each(|t| batch.push_tuple(t.borrow()));
            batch
        });
        Columns::from_batches(schema.clone(), batches.collect())
    }

    /// Decodes back-to-back fixed-width records, [`BATCH_ROWS`] to a
    /// batch, through the validating [`Batch::push_records`].
    pub fn from_records(schema: Schema, records: &[u8]) -> crate::Result<Columns> {
        let width = schema.record_width().max(1);
        let mut batches = Vec::with_capacity(records.len().div_ceil(width * BATCH_ROWS));
        for chunk in records.chunks(width * BATCH_ROWS) {
            let mut batch = Batch::with_capacity(schema.clone(), chunk.len() / width);
            batch.push_records(chunk.chunks(width))?;
            batches.push(batch);
        }
        Ok(Columns::from_batches(schema, batches))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tuple cardinality.
    pub fn cardinality(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }

    /// The batches holding the rows, in row order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The rows as tuples, in row order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.batches
            .iter()
            .flat_map(|b| (0..b.len()).map(move |row| b.tuple(row)))
    }
}

/// Equal schemas and equal rows in order, however the rows are cut into
/// batches.
impl PartialEq for Columns {
    fn eq(&self, other: &Columns) -> bool {
        self.schema == other.schema && self.tuples().eq(other.tuples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::tuple::ints;

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Field::int("id"),
            Field::str("name", 12),
            Field::int("score"),
        ])
    }

    fn mixed_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::from("ann"), Value::Int(-7)]),
            Tuple::new(vec![Value::Int(2), Value::from(""), Value::Int(0)]),
            Tuple::new(vec![Value::Int(-3), Value::from("barb"), Value::Int(99)]),
        ]
    }

    fn batch_of(schema: Schema, rows: &[Tuple]) -> Batch {
        let mut b = Batch::with_capacity(schema, rows.len());
        for t in rows {
            b.push_tuple(t);
        }
        b
    }

    #[test]
    fn kernel_hashes_equal_tuple_hash_on() {
        // The load-bearing identity: the vectorized hash kernel must
        // reproduce Tuple::hash_on bit-for-bit on every key subset, so
        // batch-built hash tables lay out identically.
        let rows = mixed_rows();
        let batch = batch_of(mixed_schema(), &rows);
        for keys in [
            vec![0usize],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 0],
            vec![0, 1, 2],
            vec![2, 1],
        ] {
            let kernel = batch.hash_rows(&keys);
            for (row, t) in rows.iter().enumerate() {
                assert_eq!(kernel[row], t.hash_on(&keys), "keys {keys:?} row {row}");
            }
        }
        // The Int kernel folds four rows at a time: every remainder of
        // four, the extreme values alone and beside a Str column, and
        // selections that end mid-quad must all hash as `hash_on` does.
        let extremes = [i64::MIN, -1, 0, 1, i64::MAX];
        let schema = Schema::new(vec![Field::int("a"), Field::str("s", 4), Field::int("b")]);
        for len in 0..10 {
            let rows: Vec<Tuple> = (0..len)
                .map(|i| {
                    let (a, b) = (extremes[i % 5], extremes[(i * 3 + 1) % 5]);
                    Tuple::new(vec![
                        Value::Int(a),
                        Value::Str("x".repeat(i % 3)),
                        Value::Int(b),
                    ])
                })
                .collect();
            let batch = batch_of(schema.clone(), &rows);
            for keys in [vec![0usize], vec![2, 0], vec![0, 1], vec![1, 2, 0]] {
                let want: Vec<u64> = rows.iter().map(|t| t.hash_on(&keys)).collect();
                assert_eq!(batch.hash_rows(&keys), want, "{len} rows on {keys:?}");
                let rows_at: Vec<usize> = (0..len).rev().step_by(2).collect();
                let at: Vec<u64> = rows_at.iter().map(|&row| want[row]).collect();
                assert_eq!(batch.hash_rows_at(&keys, &rows_at), at, "{rows_at:?}");
            }
        }
        let rows = [1, 5, 2, 7, 0, 3, 9];
        let many: Vec<Tuple> = (0..10)
            .map(|i| ints(&[extremes[i % 5], i as i64]))
            .collect();
        let batch = batch_of(Schema::new(vec![Field::int("a"), Field::int("b")]), &many);
        let want: Vec<u64> = rows.iter().map(|&row| many[row].hash_on(&[0, 1])).collect();
        assert_eq!(batch.hash_rows_at(&[0, 1], &rows), want);
    }

    #[test]
    fn bulk_hash_counts_one_hash_per_row() {
        let rows = mixed_rows();
        let batch = batch_of(mixed_schema(), &rows);
        counters::reset();
        let all = batch.hash_rows(&[0, 1]);
        assert_eq!(counters::snapshot().hashes, rows.len() as u64);
        // A selection hashes its rows alike, counting only them.
        counters::reset();
        assert_eq!(batch.hash_rows_at(&[0, 1], &[2, 0]), vec![all[2], all[0]]);
        assert_eq!(counters::snapshot().hashes, 2);
        assert_eq!(batch.hash_rows_uncounted(&[0, 1]), all);
        assert_eq!(counters::snapshot().hashes, 2);
    }

    #[test]
    fn row_eq_tuple_matches_eq_on_and_counts_one_comp() {
        let rows = mixed_rows();
        let batch = batch_of(mixed_schema(), &rows);
        let probe = Tuple::new(vec![Value::from("ann"), Value::Int(1)]);
        counters::reset();
        assert!(batch.row_eq_tuple(&[1, 0], 0, &probe, &[0, 1]));
        assert!(!batch.row_eq_tuple(&[1, 0], 1, &probe, &[0, 1]));
        assert_eq!(counters::snapshot().comparisons, 2);
        // Cross-type mismatch is inequality, never a panic.
        assert!(!batch.row_eq_tuple(&[0], 0, &Tuple::new(vec![Value::from("1")]), &[0]));
    }

    #[test]
    fn round_trip_through_tuples() {
        let rows = mixed_rows();
        let batch = batch_of(mixed_schema(), &rows);
        assert_eq!(batch.len(), 3);
        for (row, t) in rows.iter().enumerate() {
            assert_eq!(&batch.tuple(row), t);
        }
        assert_eq!(batch.clone().into_tuples(), rows);
    }

    #[test]
    fn push_record_decodes_like_the_codec_and_validates_like_it() {
        let codec = crate::RecordCodec::new(mixed_schema());
        let mut batch = Batch::with_capacity(mixed_schema(), 4);
        for t in mixed_rows() {
            batch.push_record(&codec.encode(&t).unwrap()).unwrap();
        }
        assert_eq!(batch.clone().into_tuples(), mixed_rows());

        let good = codec.encode(&mixed_rows()[0]).unwrap();
        let mut not_utf8 = good.clone();
        not_utf8[8] = 0xFF; // first byte of the name field
        for bad in [&good[..good.len() - 1], &not_utf8[..]] {
            let theirs = codec.decode(bad).unwrap_err();
            assert_eq!(batch.push_record(bad).unwrap_err(), theirs);
        }
        // A rejected record leaves no half-row behind.
        assert_eq!(batch.len(), 3);
        assert!(batch.columns().iter().all(|c| c.len() == 3));
        batch.push_record(&good).unwrap();
        assert_eq!(batch.tuple(3), mixed_rows()[0]);
    }

    #[test]
    fn push_records_decodes_as_push_record_does_or_changes_nothing() {
        let layouts = [
            Schema::new(vec![Field::int("a"), Field::int("b")]),
            Schema::new(vec![Field::str("s", 8)]),
            mixed_schema(),
        ];
        for schema in layouts {
            let codec = crate::RecordCodec::new(schema.clone());
            let rows: Vec<Tuple> = (0..300i64)
                .map(|i| {
                    let values = schema.fields().iter().map(|f| match f.ty {
                        ColumnType::Int => Value::Int(i * 7 - 100),
                        ColumnType::Str(w) => Value::Str(format!("{i:05}")[..w.min(5)].into()),
                    });
                    Tuple::new(values.collect())
                })
                .collect();
            let mut records = Vec::new();
            rows.iter()
                .for_each(|t| codec.encode_into(t, &mut records).unwrap());
            let width = schema.record_width();
            let mut one = Batch::with_capacity(schema.clone(), 0);
            for record in records.chunks(width) {
                one.push_record(record).unwrap();
            }
            let mut run = Batch::with_capacity(schema.clone(), 0);
            run.push_records(records.chunks(width)).unwrap();
            assert_eq!(run.clone().into_tuples(), rows);
            assert_eq!(one.into_tuples(), rows);
            run.push_records([].iter().copied()).unwrap();
            assert_eq!(run.len(), 300);

            // A truncated record, or (with a string field) one that is not
            // UTF-8, in the middle of a run: the run's error, and no row.
            let mut bad = records.clone();
            bad.truncate(150 * width + width - 1);
            let mut bad_runs = vec![bad];
            if let Some(at) = schema.fields().iter().position(|f| f.ty != ColumnType::Int) {
                let mut not_utf8 = records.clone();
                let offset: usize = schema.fields()[..at].iter().map(|f| f.ty.width()).sum();
                not_utf8[150 * width + offset] = 0xFF;
                bad_runs.push(not_utf8);
            }
            for bad in bad_runs {
                let theirs = codec.decode(bad[150 * width..].chunks(width).next().unwrap());
                let err = run.push_records(bad.chunks(width)).unwrap_err();
                assert_eq!(Err(err), theirs.map(|_| ()));
                assert_eq!(run.len(), 300);
                assert!(run.columns().iter().all(|c| c.len() == 300));
            }
        }
    }

    #[test]
    fn encode_records_writes_and_refuses_what_the_codec_does() {
        let codec = crate::RecordCodec::new(mixed_schema());
        let batch = batch_of(mixed_schema(), &mixed_rows());
        let mut ours = vec![0xAA];
        batch.encode_records(&mut ours).unwrap();
        let mut theirs = vec![0xAA];
        for t in mixed_rows() {
            codec.encode_into(&t, &mut theirs).unwrap();
        }
        assert_eq!(ours, theirs);

        let row = |name: &str| Tuple::new(vec![Value::Int(1), Value::from(name), Value::Int(2)]);
        for bad in [row("a\0b"), row("thirteen chars")] {
            let batch = batch_of(mixed_schema(), &[row("fine"), bad.clone()]);
            let err = batch.encode_records(&mut ours).unwrap_err();
            assert_eq!(err, codec.encode(&bad).unwrap_err());
            assert_eq!(ours, theirs, "a refused batch leaves nothing behind");
        }
    }

    #[test]
    fn cmp_rows_orders_like_cmp_on_and_counts_one_comp() {
        let rows = mixed_rows();
        let (a, b) = (
            batch_of(mixed_schema(), &rows),
            batch_of(mixed_schema(), &rows[1..]),
        );
        for keys in [vec![0usize], vec![1], vec![1, 2], vec![2, 0]] {
            for (i, x) in rows.iter().enumerate() {
                for (j, y) in rows[1..].iter().enumerate() {
                    counters::reset();
                    let got = a.cmp_rows(&keys, i, &b, &keys, j);
                    assert_eq!(counters::snapshot().comparisons, 1);
                    assert_eq!(got, x.cmp_on(&keys, y, &keys), "{x} vs {y} on {keys:?}");
                }
            }
        }
        // Different key lists on the two sides, as a join compares.
        assert_eq!(
            a.cmp_rows(&[0], 0, &b, &[2], 0),
            rows[0].cmp_on(&[0], &rows[1], &[2])
        );
    }

    #[test]
    fn project_and_gather_select_columns_and_rows() {
        let batch = batch_of(mixed_schema(), &mixed_rows());
        let projected = batch.project(&[2, 0]).unwrap();
        assert_eq!(projected.schema().fields()[0].name, "score");
        assert_eq!(projected.tuple(0), ints(&[-7, 1]));
        assert!(batch.project(&[9]).is_err());
        let gathered = batch.gather(&[2, 0]);
        assert_eq!(gathered.len(), 2);
        assert_eq!(gathered.tuple(0), batch.tuple(2));
        assert_eq!(gathered.tuple(1), batch.tuple(0));
    }

    #[test]
    fn tuple_projected_matches_tuple_project() {
        let rows = mixed_rows();
        let batch = batch_of(mixed_schema(), &rows);
        let mut pushed = Batch::with_capacity(mixed_schema().project(&[2, 1]).unwrap(), 0);
        for (row, t) in rows.iter().enumerate() {
            assert_eq!(batch.tuple_projected(&[2, 1], row), t.project(&[2, 1]));
            pushed.push_projected(&batch, &[2, 1], row);
            assert_eq!(pushed.tuple(row), t.project(&[2, 1]));
        }
    }
    fn numbered(n: usize) -> Vec<Tuple> {
        let name = |i: usize| Value::Str("é".repeat(i % 7));
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64), name(i), Value::Int(-1)]))
            .collect()
    }

    #[test]
    fn columns_hold_rows_in_batch_rows_chunks_from_tuples_and_from_records() {
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<Columns>();
        let codec = crate::RecordCodec::new(mixed_schema());
        // The empty relation, a partial batch, exact multiples, a tail.
        for n in [0, 5, BATCH_ROWS, 2 * BATCH_ROWS, 2 * BATCH_ROWS + 452] {
            let rows = numbered(n);
            let mut records = Vec::new();
            for t in &rows {
                codec.encode_into(t, &mut records).unwrap();
            }
            let from_tuples = Columns::from_tuples(mixed_schema(), &rows).unwrap();
            let from_records = Columns::from_records(mixed_schema(), &records).unwrap();
            for columns in [from_tuples, from_records] {
                assert_eq!(columns.cardinality(), n);
                assert_eq!(columns.tuples().collect::<Vec<_>>(), rows);
                let sizes: Vec<usize> = columns.batches().iter().map(Batch::len).collect();
                assert_eq!(sizes.len(), n.div_ceil(BATCH_ROWS));
                let full = |&len: &usize| len == BATCH_ROWS;
                assert!(sizes.iter().rev().skip(1).all(full), "{sizes:?}");
            }
        }
    }

    #[test]
    fn columns_refuse_what_the_record_codec_refuses() {
        let codec = crate::RecordCodec::new(mixed_schema());
        let row = |name: &str| Tuple::new(vec![Value::Int(1), Value::from(name), Value::Int(2)]);
        for bad in [
            row("a\0b"),
            row("thirteen chars"),
            ints(&[1, 2, 3]),
            ints(&[1]),
        ] {
            let rows = [row("fine"), bad.clone()];
            let ours = Columns::from_tuples(mixed_schema(), &rows).unwrap_err();
            assert_eq!(ours, codec.encode(&bad).unwrap_err());
        }
        let mut records = codec.encode(&row("fine")).unwrap();
        records.extend_from_slice(&codec.encode(&row("fine")).unwrap()[..20]);
        assert!(Columns::from_records(mixed_schema(), &records).is_err());
        records.truncate(28);
        records[8] = 0xFF;
        assert!(Columns::from_records(mixed_schema(), &records).is_err());
    }

    #[test]
    fn columns_keep_an_operators_batches_as_they_are() {
        let rows = numbered(10);
        let empty = Batch::with_capacity(mixed_schema(), 0);
        let batches = vec![
            batch_of(mixed_schema(), &rows[..3]),
            empty.clone(),
            batch_of(mixed_schema(), &rows[3..]),
            empty,
        ];
        let columns = Columns::from_batches(mixed_schema(), batches);
        let sizes: Vec<usize> = columns.batches().iter().map(Batch::len).collect();
        assert_eq!(sizes, [3, 7]);
        assert_eq!(columns.tuples().collect::<Vec<_>>(), rows);
    }
}
