//! Columnar batches and per-node projections.
//!
//! A [`Batch`] is a fixed-capacity columnar chunk: one
//! [`ColumnVector`] per projected column plus an explicit row count
//! (explicit because a projection can legally be empty — `COUNT(*)`
//! needs no column data, only row counts). Batches flow between
//! operators instead of materialised `Vec<Row>` intermediates, so joins
//! touch only the bytes of the columns that downstream nodes actually
//! reference.
//!
//! A [`Projection`] is the ordered set of bound columns a plan node's
//! output carries. The pipeline builder computes one per node from the
//! query graph (see [`crate::operator`]); ordering is always *leaf order,
//! then column-id order within a relation*, which makes the full
//! (unprojected) case bit-identical to the row engine's [`Layout`].
//!
//! [`Layout`]: crate::row::Layout

use crate::ops::join::Side;
use crate::ops::kernel::Pairs;
use hfqo_catalog::{Catalog, ColumnType};
use hfqo_query::{BoundColumn, QueryGraph};
use hfqo_storage::{ColumnVector, Value};

/// Target number of rows per batch. Large enough to amortise per-batch
/// dispatch, small enough that a working set of a few batches stays in
/// cache.
pub const BATCH_CAPACITY: usize = 1024;

/// The ordered set of `(relation, column)` pairs a plan node outputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Projection {
    cols: Vec<BoundColumn>,
}

impl Projection {
    /// A projection over the given columns (caller fixes the order).
    pub fn new(cols: Vec<BoundColumn>) -> Self {
        Self { cols }
    }

    /// The projected columns, in output order.
    pub fn columns(&self) -> &[BoundColumn] {
        &self.cols
    }

    /// Number of projected columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The output slot of a bound column, if projected.
    #[inline]
    pub fn slot(&self, col: BoundColumn) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// The storage types of the projected columns.
    pub fn column_types(&self, graph: &QueryGraph, catalog: &Catalog) -> Vec<ColumnType> {
        self.cols
            .iter()
            .map(|c| {
                catalog
                    .table(graph.relation(c.rel).table)
                    .ok()
                    .and_then(|t| t.column(c.column))
                    .map(|col| col.ty())
                    // Unknown columns cannot be read; Int keeps the chunk
                    // well-formed until validation rejects the plan.
                    .unwrap_or(ColumnType::Int)
            })
            .collect()
    }
}

/// A fixed-capacity columnar chunk.
#[derive(Debug, Clone)]
pub struct Batch {
    cols: Vec<ColumnVector>,
    rows: usize,
}

impl Batch {
    /// An empty batch with one column vector per type.
    pub fn new(types: &[ColumnType]) -> Self {
        Self {
            cols: types
                .iter()
                .map(|&t| ColumnVector::with_capacity(t, BATCH_CAPACITY))
                .collect(),
            rows: 0,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether the batch reached [`BATCH_CAPACITY`].
    #[inline]
    pub fn is_full(&self) -> bool {
        self.rows >= BATCH_CAPACITY
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The column vector at `slot`.
    #[inline]
    pub fn column(&self, slot: usize) -> &ColumnVector {
        &self.cols[slot]
    }

    /// The column vectors, in slot order.
    #[inline]
    pub fn columns(&self) -> &[ColumnVector] {
        &self.cols
    }

    /// The value at (`slot`, `row`).
    #[inline]
    pub fn value_at(&self, slot: usize, row: usize) -> Value {
        self.cols[slot].get(row)
    }

    /// Appends one row of owned values (used by aggregation output,
    /// whose values are computed rather than gathered).
    pub fn push_values(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, v) in self.cols.iter_mut().zip(row) {
            let ok = col.push(v);
            debug_assert!(ok, "aggregate output value fits its column type");
        }
        self.rows += 1;
    }

    /// Appends rows of the source columns selected by `row_ids`,
    /// column-wise (the scan's vectorised gather). `src` yields one
    /// source column per output slot, in slot order.
    pub fn gather_rows_from<'a>(
        &mut self,
        src: impl Iterator<Item = &'a ColumnVector>,
        row_ids: &[u32],
    ) {
        let mut gathered = 0;
        for (dst, s) in self.cols.iter_mut().zip(src) {
            s.gather_into(row_ids, dst);
            gathered += 1;
        }
        debug_assert_eq!(gathered, self.cols.len());
        self.rows += row_ids.len();
    }

    /// Appends one joined row per pair `(left_rows[i], right_rows[i])`,
    /// column-wise — the join's vectorised emission; see
    /// [`gather_pairs`].
    pub(crate) fn gather_pairs_from(
        &mut self,
        out_map: &[Side],
        left: &[ColumnVector],
        right: &[ColumnVector],
        left_rows: &[u32],
        right_rows: &[u32],
    ) {
        gather_pairs(&mut self.cols, out_map, left, right, left_rows, right_rows);
        self.rows += left_rows.len();
    }

    /// Appends the rows named by an ascending selection vector,
    /// column-wise — the filtered scan's bulk gather. Dense selections
    /// (long contiguous spans of survivors) take the span-copy path,
    /// sparse ones the per-row gather; see
    /// [`ColumnVector::append_selected`]. Row order is the selection
    /// order, so results are identical to a per-row gather.
    pub fn append_selected_from<'a>(
        &mut self,
        src: impl Iterator<Item = &'a ColumnVector>,
        sel: &[u32],
    ) {
        // Span detection runs once for the whole batch, not per column.
        let spans = hfqo_storage::coalesce_spans(sel);
        let mut copied = 0;
        for (dst, s) in self.cols.iter_mut().zip(src) {
            match &spans {
                Some(spans) => {
                    for &(start, len) in spans {
                        dst.append_range(s, start, len);
                    }
                }
                None => s.gather_into(sel, dst),
            }
            copied += 1;
        }
        debug_assert_eq!(copied, self.cols.len());
        self.rows += sel.len();
    }

    /// Appends the contiguous source range `start .. start + len`
    /// column-wise (the unfiltered scan's fast path — a `memcpy` for
    /// fixed-width columns instead of a per-row gather). `src` yields
    /// one source column per output slot, in slot order.
    pub fn append_range_from<'a>(
        &mut self,
        src: impl Iterator<Item = &'a ColumnVector>,
        start: usize,
        len: usize,
    ) {
        let mut copied = 0;
        for (dst, s) in self.cols.iter_mut().zip(src) {
            dst.append_range(s, start, len);
            copied += 1;
        }
        debug_assert_eq!(copied, self.cols.len());
        self.rows += len;
    }

    /// Bumps the row count without touching columns — only meaningful
    /// for zero-width batches (e.g. a `COUNT(*)` pipeline).
    pub fn push_empty_rows(&mut self, n: usize) {
        debug_assert!(self.cols.is_empty(), "only for zero-width batches");
        self.rows += n;
    }

    /// Materialises row `row` into a `Vec<Value>` (the facade's output
    /// conversion; not used between operators).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(row)).collect()
    }

    /// Appends every row to `out`, materialised column-wise: each
    /// column's values are exported in one monomorphic pass
    /// ([`ColumnVector::values_onto`]) instead of a per-cell dispatch.
    /// Row order and contents are identical to pushing
    /// [`Batch::row_values`] per row — the facade's bulk output path.
    pub fn export_rows(&self, out: &mut Vec<Vec<Value>>) {
        let base = out.len();
        out.resize_with(base + self.rows, || Vec::with_capacity(self.cols.len()));
        for col in &self.cols {
            col.values_onto(&mut out[base..]);
        }
    }
}

/// Appends one joined row per pair `(left_rows[i], right_rows[i])` onto
/// `dst`, column-wise: output slot `k` gathers from `left` or `right` as
/// `out_map[k]` says, at that side's row of each pair. Row order is the
/// pair order. Shared by the serial join and the parallel join stages.
pub(crate) fn gather_pairs(
    dst: &mut [ColumnVector],
    out_map: &[Side],
    left: &[ColumnVector],
    right: &[ColumnVector],
    left_rows: &[u32],
    right_rows: &[u32],
) {
    debug_assert_eq!(left_rows.len(), right_rows.len());
    debug_assert_eq!(out_map.len(), dst.len());
    for (dst, side) in dst.iter_mut().zip(out_map) {
        match side {
            Side::Left(s) => left[*s].gather_into(left_rows, dst),
            Side::Right(s) => right[*s].gather_into(right_rows, dst),
        }
    }
}

/// Accumulates rows into capacity-bounded batches.
#[derive(Debug)]
pub struct BatchBuilder {
    types: Vec<ColumnType>,
    current: Batch,
    done: std::collections::VecDeque<Batch>,
}

impl BatchBuilder {
    /// A builder producing batches with the given column types.
    pub fn new(types: Vec<ColumnType>) -> Self {
        let current = Batch::new(&types);
        Self {
            types,
            current,
            done: std::collections::VecDeque::new(),
        }
    }

    /// The batch currently being filled.
    #[inline]
    pub fn current_mut(&mut self) -> &mut Batch {
        &mut self.current
    }

    /// Seals the current batch if it reached capacity.
    #[inline]
    pub fn spill_if_full(&mut self) {
        if self.current.is_full() {
            let full = std::mem::replace(&mut self.current, Batch::new(&self.types));
            self.done.push_back(full);
        }
    }

    /// Appends the joined rows of `pairs` (see
    /// [`Batch::gather_pairs_from`]) and clears them, sealing batches at
    /// capacity exactly where a row-at-a-time append would.
    pub(crate) fn take_pairs(
        &mut self,
        out_map: &[Side],
        left: &[ColumnVector],
        right: &[ColumnVector],
        pairs: &mut Pairs,
    ) {
        let mut at = 0;
        while at < pairs.len() {
            let end = pairs.len().min(at + BATCH_CAPACITY - self.current.rows);
            self.current.gather_pairs_from(
                out_map,
                left,
                right,
                &pairs.probe[at..end],
                &pairs.build[at..end],
            );
            self.spill_if_full();
            at = end;
        }
        pairs.clear();
    }

    /// Pops the next completed batch, if any.
    pub fn pop(&mut self) -> Option<Batch> {
        self.done.pop_front()
    }

    /// Whether at least one completed batch is queued.
    pub fn has_ready(&self) -> bool {
        !self.done.is_empty()
    }

    /// Seals the (possibly partial) current batch; call when input is
    /// exhausted.
    pub fn flush(&mut self) {
        if !self.current.is_empty() {
            let partial = std::mem::replace(&mut self.current, Batch::new(&self.types));
            self.done.push_back(partial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_catalog::{Column, ColumnId, TableSchema};
    use hfqo_query::{RelId, Relation};

    fn graph_and_catalog() -> (QueryGraph, Catalog) {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(TableSchema::new(
                "t",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("b", ColumnType::Text),
                ],
            ))
            .unwrap();
        let graph = QueryGraph::new(
            vec![Relation {
                table: t,
                alias: "t".into(),
            }],
            vec![],
            vec![],
            vec![],
            vec![],
        );
        (graph, cat)
    }

    #[test]
    fn projection_slots_and_types() {
        let (graph, cat) = graph_and_catalog();
        let a = BoundColumn::new(RelId(0), ColumnId(0));
        let b = BoundColumn::new(RelId(0), ColumnId(1));
        let p = Projection::new(vec![b, a]);
        assert_eq!(p.width(), 2);
        assert_eq!(p.slot(b), Some(0));
        assert_eq!(p.slot(a), Some(1));
        assert_eq!(
            p.column_types(&graph, &cat),
            vec![ColumnType::Text, ColumnType::Int]
        );
        assert_eq!(p.slot(BoundColumn::new(RelId(1), ColumnId(0))), None);
    }

    #[test]
    fn batch_push_and_read_back() {
        let mut b = Batch::new(&[ColumnType::Int, ColumnType::Text]);
        b.push_values(&[Value::Int(1), Value::str("x")]);
        b.push_values(&[Value::Null, Value::str("y")]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.value_at(1, 1), Value::str("y"));
        assert!(b.value_at(0, 1).is_null());
        assert_eq!(b.row_values(0), vec![Value::Int(1), Value::str("x")]);
    }

    #[test]
    fn zero_width_batches_count_rows() {
        let mut b = Batch::new(&[]);
        b.push_empty_rows(5);
        b.push_empty_rows(2);
        assert_eq!(b.rows(), 7);
        assert!(b.row_values(3).is_empty());
    }

    #[test]
    fn builder_seals_at_capacity() {
        let mut builder = BatchBuilder::new(vec![ColumnType::Int]);
        for i in 0..(BATCH_CAPACITY + 10) {
            builder.current_mut().push_values(&[Value::Int(i as i64)]);
            builder.spill_if_full();
        }
        assert!(builder.has_ready());
        let first = builder.pop().unwrap();
        assert_eq!(first.rows(), BATCH_CAPACITY);
        assert!(builder.pop().is_none());
        builder.flush();
        let rest = builder.pop().unwrap();
        assert_eq!(rest.rows(), 10);
        assert_eq!(rest.value_at(0, 0), Value::Int(BATCH_CAPACITY as i64));
    }

    #[test]
    fn gather_rows_is_columnwise() {
        let mut src_a = ColumnVector::new(ColumnType::Int);
        let mut src_b = ColumnVector::new(ColumnType::Text);
        for i in 0..4 {
            src_a.push(&Value::Int(i));
            src_b.push(&Value::str(format!("s{i}")));
        }
        let mut b = Batch::new(&[ColumnType::Int, ColumnType::Text]);
        b.gather_rows_from([&src_a, &src_b].into_iter(), &[3, 1]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row_values(0), vec![Value::Int(3), Value::str("s3")]);
        assert_eq!(b.row_values(1), vec![Value::Int(1), Value::str("s1")]);
    }
}
