//! Vectorized join operators: nested loops, hash, and sort-merge.
//!
//! All three share one [`JoinOp`] shell that owns the two child
//! pipelines, the resolved join conditions (slots into the children's
//! projections), and the output gather map. The build side (always the
//! *right* child, matching the row engine) is drained into unbounded
//! [`Materialized`] columns; the probe side streams batch-by-batch.
//!
//! Probing runs through the `ops/kernel.rs` functions: a
//! nested loop selects, per probe row, the matching rows of each window
//! of up to `PAIR_FLUSH` inner rows; a hash or merge join refines each
//! candidate list by its remaining conditions. Matches collect as
//! `(probe row, build row)` pair vectors, flushed through one
//! column-wise gather per output column whenever they reach
//! `PAIR_FLUSH` pairs. Each window is charged in one bulk charge — its
//! pair checks and its matches — after it is compared and before its
//! pairs are gathered. A join's
//! peak footprint is the build side, one probe batch, the output of that
//! probe batch, and pair vectors under two batches long — not the full
//! cross product of inputs.

use crate::batch::{Batch, BatchBuilder, Projection};
use crate::error::ExecError;
use crate::operator::{ColSet, Materialized, Operator};
use crate::ops::kernel::{refine, select, Pairs, PAIR_FLUSH};
use crate::ops::{first_eq, hash_residual, resolve_conds, Budget, SlotCond};
use hfqo_catalog::Catalog;
use hfqo_query::{JoinAlgo, QueryError, QueryGraph};
use hfqo_storage::Value;
use std::collections::HashMap;

/// Where a join output column is gathered from: a slot of the left
/// (probe) input or a slot of the right (build) input.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    Left(usize),
    Right(usize),
}

/// A join's output projection: the children's projected columns
/// restricted to `required`, left columns first — identical slot order
/// to the row engine's concatenated layout when everything is required.
/// Returns the output columns and, per slot, which input it gathers
/// from. Shared by [`JoinOp`] and the parallel join stages so the two
/// evaluators cannot disagree on output shape.
pub(crate) fn join_output(
    l_proj: &Projection,
    r_proj: &Projection,
    required: &ColSet,
) -> (Projection, Vec<Side>) {
    let mut out_cols = Vec::new();
    let mut out_map = Vec::new();
    for (slot, &col) in l_proj.columns().iter().enumerate() {
        if required.contains(col) {
            out_cols.push(col);
            out_map.push(Side::Left(slot));
        }
    }
    for (slot, &col) in r_proj.columns().iter().enumerate() {
        if required.contains(col) {
            out_cols.push(col);
            out_map.push(Side::Right(slot));
        }
    }
    (Projection::new(out_cols), out_map)
}

/// The hash table keyed either on raw `i64`s (the fast path when both
/// key columns are integer-typed — no `Value` materialisation per probe)
/// or on [`Value`]s (everything else). Cross-type numeric keys never
/// match in either representation, exactly like the row engine's
/// `HashMap<&Value>` (`Int` and `Float` hash differently by design; the
/// binder type-checks join keys).
enum KeyTable {
    Int(HashMap<i64, Vec<u32>>),
    Any(HashMap<Value, Vec<u32>>),
}

enum State {
    /// Before `open`.
    Unopened,
    /// Hash join: right side materialised and hashed, probing left.
    Hash {
        build: Materialized,
        table: KeyTable,
        key: SlotCond,
        /// The conditions a candidate must still pass.
        residual: Vec<SlotCond>,
    },
    /// Nested loops: right side materialised, streaming left.
    Nested {
        inner: Materialized,
    },
    /// Sort-merge: both sides materialised, sorted cursors advancing.
    Merge {
        left: Materialized,
        right: Materialized,
        li: Vec<u32>,
        ri: Vec<u32>,
        i: usize,
        j: usize,
        key: SlotCond,
    },
    Closed,
}

/// Vectorized join of two child pipelines.
pub struct JoinOp<'a> {
    algo: JoinAlgo,
    projection: Projection,
    out_map: Vec<Side>,
    conds: Vec<SlotCond>,
    left: Box<dyn Operator + 'a>,
    right: Box<dyn Operator + 'a>,
    builder: BatchBuilder,
    state: State,
    input_done: bool,
    /// Kernel scratch: the current window's matches.
    sel: Vec<u32>,
    /// Matched pairs awaiting their gather into `builder`.
    pairs: Pairs,
}

impl<'a> JoinOp<'a> {
    /// Assembles a join over two built child pipelines. The output
    /// projection is the children's projected columns restricted to
    /// `required`, left columns first — identical slot order to the row
    /// engine's concatenated layout when everything is required.
    pub fn new(
        graph: &QueryGraph,
        catalog: &Catalog,
        algo: JoinAlgo,
        conds: &[usize],
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        required: &ColSet,
    ) -> Result<Self, ExecError> {
        let l_proj = left
            .projection()
            .ok_or_else(|| QueryError::InvalidPlan("join over aggregate output".into()))?;
        let r_proj = right
            .projection()
            .ok_or_else(|| QueryError::InvalidPlan("join over aggregate output".into()))?;

        let slot_conds = resolve_conds(graph, conds, |c| l_proj.slot(c), |c| r_proj.slot(c))?;
        let (projection, out_map) = join_output(l_proj, r_proj, required);
        let out_types = projection.column_types(graph, catalog);

        Ok(Self {
            algo,
            projection,
            out_map,
            conds: slot_conds,
            left,
            right,
            builder: BatchBuilder::new(out_types),
            state: State::Unopened,
            input_done: false,
            sel: Vec::new(),
            pairs: Pairs::default(),
        })
    }

    /// Joins one probe batch against the hash table: one unit per probe
    /// row, one per candidate, one per emitted row, each charged before
    /// the rows it pays for are gathered.
    fn probe_hash(&mut self, batch: &Batch, budget: &mut Budget) -> Result<(), ExecError> {
        let State::Hash {
            build,
            table,
            key,
            residual,
        } = &self.state
        else {
            unreachable!("probe_hash outside hash state");
        };
        budget.charge_rows(batch.rows() as u64)?;
        let probe = batch.columns();
        let (sel, pairs) = (&mut self.sel, &mut self.pairs);
        for row in 0..batch.rows() {
            let candidates = match table {
                KeyTable::Int(t) => probe[key.l_slot].int_at(row).and_then(|k| t.get(&k)),
                KeyTable::Any(t) => {
                    let k = batch.value_at(key.l_slot, row);
                    if k.is_null() {
                        None
                    } else {
                        t.get(&k)
                    }
                }
            };
            for window in candidates.map_or(&[][..], Vec::as_slice).chunks(PAIR_FLUSH) {
                let matched = refine(residual, probe, row, &build.cols, window, sel);
                budget.charge_rows((window.len() + matched.len()) as u64)?;
                pairs.push_run(row, matched);
                if pairs.is_full() {
                    self.builder
                        .take_pairs(&self.out_map, probe, &build.cols, pairs);
                }
            }
        }
        self.builder
            .take_pairs(&self.out_map, probe, &build.cols, pairs);
        Ok(())
    }

    /// Joins one probe batch against the materialised inner side with
    /// nested loops: per probe row and window of inner rows, one unit per
    /// pair checked, then one per emitted row, each charged before the
    /// rows it pays for are gathered.
    fn probe_nested(&mut self, batch: &Batch, budget: &mut Budget) -> Result<(), ExecError> {
        let State::Nested { inner } = &self.state else {
            unreachable!("probe_nested outside nested state");
        };
        let probe = batch.columns();
        let (sel, pairs) = (&mut self.sel, &mut self.pairs);
        for row in 0..batch.rows() {
            for start in (0..inner.rows).step_by(PAIR_FLUSH) {
                let window = start..inner.rows.min(start + PAIR_FLUSH);
                let checked = window.len();
                select(&self.conds, probe, row, &inner.cols, window, sel);
                budget.charge_rows((checked + sel.len()) as u64)?;
                pairs.push_run(row, sel);
                if pairs.is_full() {
                    self.builder
                        .take_pairs(&self.out_map, probe, &inner.cols, pairs);
                }
            }
        }
        self.builder
            .take_pairs(&self.out_map, probe, &inner.cols, pairs);
        Ok(())
    }

    /// Advances the merge until at least one output batch is ready or the
    /// cursors are exhausted. Charge pattern matches the row engine: one
    /// unit per cursor comparison, one per pair in each equal block.
    fn advance_merge(&mut self, budget: &mut Budget) -> Result<(), ExecError> {
        loop {
            if self.builder.has_ready() {
                return Ok(());
            }
            let State::Merge {
                left,
                right,
                li,
                ri,
                i,
                j,
                key,
            } = &mut self.state
            else {
                unreachable!("advance_merge outside merge state");
            };
            if *i >= li.len() || *j >= ri.len() {
                self.input_done = true;
                self.builder.flush();
                return Ok(());
            }
            budget.charge(1)?;
            let (l_row0, r_row0) = (li[*i] as usize, ri[*j] as usize);
            let lcol = &left.cols[key.l_slot];
            let rcol = &right.cols[key.r_slot];
            match lcol.total_cmp_at(l_row0, rcol, r_row0) {
                std::cmp::Ordering::Less => *i += 1,
                std::cmp::Ordering::Greater => *j += 1,
                std::cmp::Ordering::Equal => {
                    let i_end = (*i..li.len())
                        .take_while(|&x| lcol.total_cmp_at(li[x] as usize, lcol, l_row0).is_eq())
                        .last()
                        .unwrap_or(*i)
                        + 1;
                    let j_end = (*j..ri.len())
                        .take_while(|&x| rcol.total_cmp_at(ri[x] as usize, rcol, r_row0).is_eq())
                        .last()
                        .unwrap_or(*j)
                        + 1;
                    let (block_i, block_j) = (*i..i_end, *j..j_end);
                    *i = i_end;
                    *j = j_end;
                    // Reborrow immutably for emission.
                    let State::Merge {
                        left,
                        right,
                        li,
                        ri,
                        ..
                    } = &self.state
                    else {
                        unreachable!();
                    };
                    let (sel, pairs) = (&mut self.sel, &mut self.pairs);
                    for &l_row in &li[block_i] {
                        for window in ri[block_j.clone()].chunks(PAIR_FLUSH) {
                            let matched = refine(
                                &self.conds,
                                &left.cols,
                                l_row as usize,
                                &right.cols,
                                window,
                                sel,
                            );
                            budget.charge_rows((window.len() + matched.len()) as u64)?;
                            pairs.push_run(l_row as usize, matched);
                            if pairs.is_full() {
                                self.builder.take_pairs(
                                    &self.out_map,
                                    &left.cols,
                                    &right.cols,
                                    pairs,
                                );
                            }
                        }
                    }
                    self.builder
                        .take_pairs(&self.out_map, &left.cols, &right.cols, pairs);
                }
            }
        }
    }
}

impl JoinOp<'_> {
    /// Builds blocking state for the configured algorithm. Split out of
    /// `open` so the borrow of `graph`/`catalog` is not needed there.
    fn build_state(&mut self, budget: &mut Budget) -> Result<(), ExecError> {
        match self.algo {
            JoinAlgo::Hash => {
                let key = first_eq(&self.conds).ok_or_else(|| {
                    QueryError::InvalidPlan("hash join requires an equality condition".into())
                })?;
                let r_width = self
                    .right
                    .projection()
                    .expect("checked at construction")
                    .width();
                let build = Materialized::drain(self.right.as_mut(), r_width, budget)?;
                let int_keyed = build
                    .cols
                    .get(key.r_slot)
                    .is_some_and(|c| c.ty() == hfqo_catalog::ColumnType::Int);
                let table = if int_keyed {
                    let mut t: HashMap<i64, Vec<u32>> = HashMap::new();
                    for row in 0..build.rows {
                        budget.charge(1)?;
                        if let Some(k) = build.cols[key.r_slot].int_at(row) {
                            t.entry(k).or_default().push(row as u32);
                        }
                    }
                    KeyTable::Int(t)
                } else {
                    let mut t: HashMap<Value, Vec<u32>> = HashMap::new();
                    for row in 0..build.rows {
                        budget.charge(1)?;
                        let k = build.value_at(key.r_slot, row);
                        if !k.is_null() {
                            t.entry(k).or_default().push(row as u32);
                        }
                    }
                    KeyTable::Any(t)
                };
                self.state = State::Hash {
                    build,
                    table,
                    key,
                    residual: hash_residual(&self.conds, int_keyed),
                };
            }
            JoinAlgo::NestedLoop => {
                let r_width = self
                    .right
                    .projection()
                    .expect("checked at construction")
                    .width();
                let inner = Materialized::drain(self.right.as_mut(), r_width, budget)?;
                self.state = State::Nested { inner };
            }
            JoinAlgo::Merge => {
                let key = first_eq(&self.conds).ok_or_else(|| {
                    QueryError::InvalidPlan("merge join requires an equality condition".into())
                })?;
                let l_width = self
                    .left
                    .projection()
                    .expect("checked at construction")
                    .width();
                let r_width = self
                    .right
                    .projection()
                    .expect("checked at construction")
                    .width();
                let left = Materialized::drain(self.left.as_mut(), l_width, budget)?;
                let right = Materialized::drain(self.right.as_mut(), r_width, budget)?;
                let mut li: Vec<u32> = (0..left.rows as u32)
                    .filter(|&r| !left.cols[key.l_slot].is_null(r as usize))
                    .collect();
                let mut ri: Vec<u32> = (0..right.rows as u32)
                    .filter(|&r| !right.cols[key.r_slot].is_null(r as usize))
                    .collect();
                let sort_work = (li.len() + ri.len()) as u64;
                budget.charge(sort_work.max(1))?;
                // An input that produced no batches has no columns at
                // all (`Materialized::drain` infers types from the
                // first batch), so only touch the key columns on the
                // sides that actually have rows to sort.
                if !li.is_empty() {
                    let lcol = &left.cols[key.l_slot];
                    li.sort_by(|&a, &b| lcol.total_cmp_at(a as usize, lcol, b as usize));
                }
                if !ri.is_empty() {
                    let rcol = &right.cols[key.r_slot];
                    ri.sort_by(|&a, &b| rcol.total_cmp_at(a as usize, rcol, b as usize));
                }
                self.state = State::Merge {
                    left,
                    right,
                    li,
                    ri,
                    i: 0,
                    j: 0,
                    key,
                };
            }
        }
        Ok(())
    }
}

impl Operator for JoinOp<'_> {
    fn projection(&self) -> Option<&Projection> {
        Some(&self.projection)
    }

    fn open(&mut self, budget: &mut Budget) -> Result<(), ExecError> {
        self.left.open(budget)?;
        self.right.open(budget)?;
        self.input_done = false;
        self.build_state(budget)
    }

    fn next_batch(&mut self, budget: &mut Budget) -> Result<Option<Batch>, ExecError> {
        loop {
            if let Some(ready) = self.builder.pop() {
                return Ok(Some(ready));
            }
            if self.input_done {
                return Ok(None);
            }
            match self.algo {
                JoinAlgo::Merge => self.advance_merge(budget)?,
                JoinAlgo::Hash | JoinAlgo::NestedLoop => match self.left.next_batch(budget)? {
                    None => {
                        self.input_done = true;
                        self.builder.flush();
                    }
                    Some(batch) => {
                        if matches!(self.algo, JoinAlgo::Hash) {
                            self.probe_hash(&batch, budget)?;
                        } else {
                            self.probe_nested(&batch, budget)?;
                        }
                    }
                },
            }
        }
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.state = State::Closed;
    }
}
