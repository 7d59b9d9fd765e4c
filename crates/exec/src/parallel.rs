//! Morsel-driven parallel plan evaluation.
//!
//! When [`ExecConfig::threads`] exceeds 1, [`crate::execute`] dispatches
//! here instead of pulling the serial operator pipeline. The plan tree
//! is evaluated stage by stage — scans, join builds and probes, and
//! aggregation each fan out over a team of `threads` workers pulling
//! fixed-size **morsels** (row ranges) from a shared atomic dispenser —
//! and every stage's output is reassembled in morsel order before the
//! next stage starts.
//!
//! ## Determinism contract
//!
//! The parallel evaluator is *bit-identical* to the serial engine at any
//! thread count and any morsel size, which the equivalence suite
//! asserts. Three mechanisms make that hold:
//!
//! * **Order-preserving reassembly.** Workers tag each morsel's output
//!   with the morsel index; the stage concatenates them in index order,
//!   so the row stream entering the next stage equals the serial
//!   engine's. Join candidate lists are likewise merged in build-row
//!   order, so probes emit matches in the serial order.
//! * **Partitioned state instead of shared state.** Hash-join builds and
//!   grouped aggregation split their keys across partitions by a
//!   deterministic hash (`DefaultHasher` with its fixed default keys).
//!   Each partition is built and folded by exactly one worker, with
//!   partition-local row lists that preserve global input order — a
//!   group's accumulator folds its rows in the same order as the serial
//!   engine, so even float `SUM`/`AVG` bits match. No worker ever
//!   writes state another worker reads.
//! * **Charge-total equality.** Workers accumulate work charges locally
//!   and flush them to one shared atomic counter (every
//!   `FLUSH_EVERY` units and at worker exit), so the final total
//!   equals the serial engine's charge total exactly: `u64` addition is
//!   commutative, and the join and aggregate stages call the serial
//!   operators' kernels (`ops/kernel.rs`) with the same windows
//!   and the same bulk charges (`Charger::charge` where the serial
//!   path calls `Budget::charge_rows`). A plan aborts with
//!   `BudgetExceeded` under the parallel evaluator iff it aborts under
//!   the serial one; only the `work_done` overshoot reported on abort
//!   may differ.
//!
//! Sort-merge joins sort their two sides concurrently (same stable sort,
//! same comparator as the serial engine) but advance the merge cursors
//! serially — the merge loop is inherently sequential and its charge
//! pattern (one unit per cursor comparison) depends on the traversal.
//! Global (non-`GROUP BY`) aggregates also fold serially, through the
//! serial operator's column-wise fold: float accumulation is not
//! associative, and a tree reduction would change result bits.
//!
//! [`ExecConfig::threads`]: crate::ExecConfig::threads

use crate::batch::{gather_pairs, Projection};
use crate::error::ExecError;
use crate::executor::ExecConfig;
use crate::operator::{aggregate_inputs, scan_projection, ColSet};
use crate::ops::agg::{Acc, AggSpec};
use crate::ops::join::{join_output, Side};
use crate::ops::kernel::{fold_global, refine, select, Pairs, PAIR_FLUSH};
use crate::ops::scan::ScanSpec;
use crate::ops::{first_eq, hash_residual, resolve_conds, SlotCond};
use crate::row::Row;
use hfqo_catalog::ColumnType;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PlanNode, QueryError, QueryGraph, RelId};
use hfqo_storage::{ColumnVector, Database, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

/// How many locally-accumulated work units a worker buffers before
/// flushing to the shared budget counter. Bounds both atomic contention
/// (one `fetch_add` per `FLUSH_EVERY` units) and how far a worker can
/// run past an exhausted budget before noticing.
const FLUSH_EVERY: u64 = 4096;

/// The per-query work counter shared by all workers.
struct SharedBudget {
    used: AtomicU64,
    limit: u64,
}

impl SharedBudget {
    fn new(limit: u64) -> Self {
        Self {
            used: AtomicU64::new(0),
            limit,
        }
    }

    /// Adds `n` units; fails when the post-add total exceeds the limit.
    fn add(&self, n: u64) -> Result<(), ExecError> {
        if n == 0 {
            return Ok(());
        }
        // Relaxed: a commutative sum — every interleaving of the
        // fetch_adds yields the same total, and the scope join orders
        // the final read; no other memory piggybacks on this counter.
        let total = self.used.fetch_add(n, AtomicOrdering::Relaxed) + n;
        if total > self.limit {
            Err(ExecError::BudgetExceeded {
                work_done: total,
                budget: self.limit,
            })
        } else {
            Ok(())
        }
    }

    fn used(&self) -> u64 {
        // Relaxed: read after the worker-scope join, which already
        // ordered every flush.
        self.used.load(AtomicOrdering::Relaxed)
    }
}

/// Worker-local charge accumulator. Once the shared counter passes the
/// limit it can only grow, so every worker's next flush also fails —
/// an exhausted budget stops the whole team within one flush window.
struct Charger<'a> {
    shared: &'a SharedBudget,
    pending: u64,
}

impl<'a> Charger<'a> {
    fn new(shared: &'a SharedBudget) -> Self {
        Self { shared, pending: 0 }
    }

    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.pending += n;
        if self.pending >= FLUSH_EVERY {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Pushes pending charges to the shared counter. Must be called at
    /// worker exit so success leaves the shared total equal to the
    /// serial engine's.
    fn flush(&mut self) -> Result<(), ExecError> {
        self.shared.add(std::mem::take(&mut self.pending))
    }
}

/// The shared morsel dispenser: workers claim fixed-size row ranges
/// with one atomic increment, so work distribution balances itself
/// without a scheduler.
struct Morsels {
    next: AtomicUsize,
    count: usize,
    size: usize,
    total: usize,
}

impl Morsels {
    fn new(total: usize, size: usize) -> Self {
        let size = size.max(1);
        Self {
            next: AtomicUsize::new(0),
            count: total.div_ceil(size),
            size,
            total,
        }
    }

    /// Worker-team size for this dispenser: spawning more workers than
    /// morsels only creates threads with nothing to claim.
    fn team(&self, threads: usize) -> usize {
        threads.min(self.count.max(1))
    }

    /// Claims the next unclaimed morsel: its index and row range.
    fn claim(&self) -> Option<(usize, Range<usize>)> {
        // Relaxed: the RMW's atomicity alone makes every index unique,
        // which is the entire claim protocol; the claimed rows are
        // read-only input published before the workers were spawned.
        let idx = self.next.fetch_add(1, AtomicOrdering::Relaxed);
        if idx >= self.count {
            return None;
        }
        let start = idx * self.size;
        Some((idx, start..(start + self.size).min(self.total)))
    }
}

/// Runs `work` on `threads` scoped workers and collects their results
/// in worker order; the lowest-indexed failure wins.
fn run_workers<T, F>(threads: usize, work: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    if threads <= 1 {
        return Ok(vec![work(0)?]);
    }
    let results: Vec<Result<T, ExecError>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Rows produced by one unit of parallel work — a morsel's output, or a
/// whole stage's after reassembly. The row count is tracked separately
/// because zero-width outputs (pure counting pipelines) exist.
struct Chunk {
    cols: Vec<ColumnVector>,
    rows: usize,
}

impl Chunk {
    fn empty(types: &[ColumnType]) -> Self {
        Self {
            cols: types.iter().map(|&t| ColumnVector::new(t)).collect(),
            rows: 0,
        }
    }

    /// Appends the joined rows of `pairs` column-wise, like the serial
    /// join's emission, and clears them.
    fn take_pairs(
        &mut self,
        out_map: &[Side],
        left: &[ColumnVector],
        right: &[ColumnVector],
        pairs: &mut Pairs,
    ) {
        gather_pairs(
            &mut self.cols,
            out_map,
            left,
            right,
            &pairs.probe,
            &pairs.build,
        );
        self.rows += pairs.len();
        pairs.clear();
    }
}

/// Concatenates indexed chunks in index order — the reassembly step
/// that makes every parallel stage order-preserving.
fn concat_indexed(types: &[ColumnType], mut chunks: Vec<(usize, Chunk)>) -> Chunk {
    chunks.sort_by_key(|&(idx, _)| idx);
    let mut out = Chunk::empty(types);
    for (_, ch) in chunks {
        out.rows += ch.rows;
        for (dst, src) in out.cols.iter_mut().zip(&ch.cols) {
            dst.append_column(src);
        }
    }
    out
}

/// A fully-evaluated plan node: its projection and materialised rows.
struct NodeOut {
    proj: Projection,
    types: Vec<ColumnType>,
    data: Chunk,
}

struct Ctx<'a> {
    db: &'a Database,
    graph: &'a QueryGraph,
    threads: usize,
    morsel_rows: usize,
    budget: &'a SharedBudget,
}

/// Evaluates `root` with the morsel-driven parallel engine and
/// materialises the output rows. Results, row order, and the work total
/// are identical to the serial pipeline in [`crate::execute`].
pub(crate) fn execute_materialized(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    required: &ColSet,
    config: ExecConfig,
) -> Result<(Vec<Row>, u64), ExecError> {
    let budget = SharedBudget::new(config.work_budget);
    // Worker teams never exceed the machine's parallelism: extra
    // threads on an oversubscribed core only add scheduling overhead,
    // and results are identical at any team size by construction.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ctx = Ctx {
        db,
        graph,
        threads: config.threads.clamp(1, hw),
        morsel_rows: config.morsel_rows.max(1),
        budget: &budget,
    };
    let out = match root {
        PlanNode::Aggregate { algo, input } => {
            let child = eval_node(&ctx, input, &aggregate_inputs(graph))?;
            eval_aggregate(&ctx, *algo, &child)?
        }
        node => eval_node(&ctx, node, required)?.data,
    };
    // Column-wise export, like the serial facade's `Batch::export_rows`.
    let mut rows: Vec<Row> = Vec::new();
    rows.resize_with(out.rows, || Vec::with_capacity(out.cols.len()));
    for col in &out.cols {
        col.values_onto(&mut rows);
    }
    Ok((rows, budget.used()))
}

fn eval_node(ctx: &Ctx<'_>, node: &PlanNode, required: &ColSet) -> Result<NodeOut, ExecError> {
    match node {
        PlanNode::Scan { rel, path } => eval_scan(ctx, *rel, path, required),
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            // Children must additionally carry this join's condition
            // columns, exactly like the serial pipeline builder.
            let mut cond_cols = Vec::new();
            for &c in conds.iter() {
                let edge = ctx.graph.joins().get(c).ok_or_else(|| {
                    QueryError::InvalidPlan(format!("join cond #{c} out of range"))
                })?;
                cond_cols.push(edge.left);
                cond_cols.push(edge.right);
            }
            let child_required = required.with(cond_cols);
            let left = eval_node(ctx, left, &child_required)?;
            let right = eval_node(ctx, right, &child_required)?;
            eval_join(ctx, *algo, conds, &left, &right, required)
        }
        PlanNode::Aggregate { .. } => {
            Err(QueryError::InvalidPlan("aggregate below the plan root".into()).into())
        }
    }
}

/// Parallel scan: workers claim morsels of the visit range, filter and
/// gather locally, and the outputs reassemble in morsel order (= table
/// order). Charges one unit per visited row plus one per emitted row,
/// like the serial scan.
fn eval_scan(
    ctx: &Ctx<'_>,
    rel: RelId,
    path: &AccessPath,
    required: &ColSet,
) -> Result<NodeOut, ExecError> {
    let proj = scan_projection(ctx.graph, ctx.db, rel, required);
    let spec = ScanSpec::new(ctx.db, ctx.graph, rel, path, &proj)?;
    let types = proj.column_types(ctx.graph, ctx.db.catalog());
    let morsels = Morsels::new(spec.visit_count(), ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let mut rid_buf: Vec<u32> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?; // visited rows
            let mut chunk = Chunk::empty(&types);
            if spec.is_plain_seq() {
                // Unfiltered sequential morsels copy contiguous column
                // ranges — no row-id gather.
                chunk.rows = range.len();
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    dst.append_range(src, range.start, range.len());
                }
            } else {
                // Same kernels as the serial scan: one selection vector
                // per morsel, then a column-wise bulk gather.
                rid_buf.clear();
                spec.filter_visits(range.start, range.len(), &mut rid_buf);
                chunk.rows = rid_buf.len();
                let spans = hfqo_storage::coalesce_spans(&rid_buf);
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    match &spans {
                        Some(spans) => {
                            for &(start, len) in spans {
                                dst.append_range(src, start, len);
                            }
                        }
                        None => src.gather_into(&rid_buf, dst),
                    }
                }
            }
            charger.charge(chunk.rows as u64)?; // emitted rows
            out.push((idx, chunk));
        }
        charger.flush()?;
        Ok(out)
    })?;
    let data = concat_indexed(&types, chunks.into_iter().flatten().collect());
    Ok(NodeOut { proj, types, data })
}

fn eval_join(
    ctx: &Ctx<'_>,
    algo: JoinAlgo,
    conds: &[usize],
    left: &NodeOut,
    right: &NodeOut,
    required: &ColSet,
) -> Result<NodeOut, ExecError> {
    let slot_conds = resolve_conds(
        ctx.graph,
        conds,
        |c| left.proj.slot(c),
        |c| right.proj.slot(c),
    )?;
    let (proj, out_map) = join_output(&left.proj, &right.proj, required);
    let types = proj.column_types(ctx.graph, ctx.db.catalog());
    let data = match algo {
        JoinAlgo::Hash => hash_join(ctx, &slot_conds, &out_map, &types, left, right)?,
        JoinAlgo::NestedLoop => nested_join(ctx, &slot_conds, &out_map, &types, left, right)?,
        JoinAlgo::Merge => merge_join(ctx, &slot_conds, &out_map, &types, left, right)?,
    };
    Ok(NodeOut { proj, types, data })
}

/// Deterministic partition of a key: `DefaultHasher` is keyed with
/// fixed constants, so the same key lands in the same partition on
/// every run at every thread count.
#[inline]
fn partition_of<T: Hash + ?Sized>(key: &T, mask: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

/// One partition's hash table — the same integer fast path / `Value`
/// fallback split as the serial [`crate::ops::join`] key table.
enum PartTable {
    Int(HashMap<i64, Vec<u32>>),
    Any(HashMap<Value, Vec<u32>>),
}

/// Radix-partitioned hash join. Build rows are partitioned by key hash
/// in parallel (charging one unit per build row, NULL keys charged but
/// excluded, matching the serial build); each partition's table is then
/// built by one worker from a row list that preserves build order, so
/// every key's candidate list is in ascending build-row order — the
/// serial insertion order. Probe morsels look up their partition's
/// table without touching shared state and emit in probe order.
fn hash_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let key = first_eq(conds).ok_or_else(|| {
        QueryError::InvalidPlan("hash join requires an equality condition".into())
    })?;
    let parts = (ctx.threads * 4).next_power_of_two();
    let mask = parts - 1;
    let int_keyed = right.types.get(key.r_slot) == Some(&ColumnType::Int);
    let build_col = &right.data.cols[key.r_slot];

    // Build partition pass.
    let morsels = Morsels::new(right.data.rows, ctx.morsel_rows);
    let parted = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?; // one per build row
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for row in range {
                if int_keyed {
                    if let Some(k) = build_col.int_at(row) {
                        buckets[partition_of(&k, mask)].push(row as u32);
                    }
                } else {
                    let k = build_col.get(row);
                    if !k.is_null() {
                        buckets[partition_of(&k, mask)].push(row as u32);
                    }
                }
            }
            out.push((idx, buckets));
        }
        charger.flush()?;
        Ok(out)
    })?;
    // Merge per-morsel buckets in morsel order: each partition's row
    // list stays ascending, so candidate lists match the serial table.
    let mut flat: Vec<(usize, Vec<Vec<u32>>)> = parted.into_iter().flatten().collect();
    flat.sort_by_key(|&(idx, _)| idx);
    let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (_, buckets) in flat {
        for (p, rows) in buckets.into_iter().enumerate() {
            partitions[p].extend(rows);
        }
    }

    // Per-partition table build — charge-free (the build was charged in
    // the partition pass), one worker per partition.
    let jobs = Morsels::new(parts, 1);
    let built = run_workers(ctx.threads.min(parts), |_w| {
        let mut out: Vec<(usize, PartTable)> = Vec::new();
        while let Some((p, _)) = jobs.claim() {
            let table = if int_keyed {
                let mut t: HashMap<i64, Vec<u32>> = HashMap::new();
                for &row in &partitions[p] {
                    if let Some(k) = build_col.int_at(row as usize) {
                        t.entry(k).or_default().push(row);
                    }
                }
                PartTable::Int(t)
            } else {
                let mut t: HashMap<Value, Vec<u32>> = HashMap::new();
                for &row in &partitions[p] {
                    t.entry(build_col.get(row as usize)).or_default().push(row);
                }
                PartTable::Any(t)
            };
            out.push((p, table));
        }
        Ok(out)
    })?;
    let mut slots: Vec<Option<PartTable>> = (0..parts).map(|_| None).collect();
    for (p, t) in built.into_iter().flatten() {
        slots[p] = Some(t);
    }
    let tables: Vec<PartTable> = slots
        .into_iter()
        .map(|t| t.expect("every partition built exactly once"))
        .collect();

    // Probe pass: one unit per probe row, one per candidate, one per
    // emitted row — the serial probe charges, through the same kernels.
    let residual = hash_residual(conds, int_keyed);
    let (probe, build) = (&left.data.cols, &right.data.cols);
    let probe_col = &probe[key.l_slot];
    let morsels = Morsels::new(left.data.rows, ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let (mut sel, mut pairs) = (Vec::new(), Pairs::default());
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?;
            let mut chunk = Chunk::empty(types);
            for row in range {
                let candidates = if int_keyed {
                    probe_col
                        .int_at(row)
                        .and_then(|k| match &tables[partition_of(&k, mask)] {
                            PartTable::Int(t) => t.get(&k),
                            PartTable::Any(_) => unreachable!("int-keyed build"),
                        })
                } else {
                    let k = probe_col.get(row);
                    if k.is_null() {
                        None
                    } else {
                        match &tables[partition_of(&k, mask)] {
                            PartTable::Any(t) => t.get(&k),
                            PartTable::Int(_) => unreachable!("value-keyed build"),
                        }
                    }
                };
                for window in candidates.map_or(&[][..], Vec::as_slice).chunks(PAIR_FLUSH) {
                    let matched = refine(&residual, probe, row, build, window, &mut sel);
                    charger.charge((window.len() + matched.len()) as u64)?;
                    pairs.push_run(row, matched);
                    if pairs.is_full() {
                        chunk.take_pairs(out_map, probe, build, &mut pairs);
                    }
                }
            }
            chunk.take_pairs(out_map, probe, build, &mut pairs);
            out.push((idx, chunk));
        }
        charger.flush()?;
        Ok(out)
    })?;
    Ok(concat_indexed(
        types,
        chunks.into_iter().flatten().collect(),
    ))
}

/// Parallel nested-loop join: probe morsels against the fully
/// materialised inner side, through the serial kernels. One unit per
/// (probe, inner) pair, one per emitted row.
fn nested_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let (probe, inner) = (&left.data.cols, &right.data.cols);
    let inner_rows = right.data.rows;
    let morsels = Morsels::new(left.data.rows, ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let (mut sel, mut pairs) = (Vec::new(), Pairs::default());
        while let Some((idx, range)) = morsels.claim() {
            let mut chunk = Chunk::empty(types);
            for row in range {
                for start in (0..inner_rows).step_by(PAIR_FLUSH) {
                    let window = start..inner_rows.min(start + PAIR_FLUSH);
                    let checked = window.len();
                    select(conds, probe, row, inner, window, &mut sel);
                    charger.charge((checked + sel.len()) as u64)?;
                    pairs.push_run(row, &sel);
                    if pairs.is_full() {
                        chunk.take_pairs(out_map, probe, inner, &mut pairs);
                    }
                }
            }
            chunk.take_pairs(out_map, probe, inner, &mut pairs);
            out.push((idx, chunk));
        }
        charger.flush()?;
        Ok(out)
    })?;
    Ok(concat_indexed(
        types,
        chunks.into_iter().flatten().collect(),
    ))
}

/// Sort-merge join: the two key sorts run concurrently (same stable
/// sort and comparator as the serial engine, so the permutations are
/// identical); the merge itself advances serially because its charge
/// pattern — one unit per cursor comparison — depends on the traversal.
fn merge_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let key = first_eq(conds).ok_or_else(|| {
        QueryError::InvalidPlan("merge join requires an equality condition".into())
    })?;
    let lcol = &left.data.cols[key.l_slot];
    let rcol = &right.data.cols[key.r_slot];
    let mut li: Vec<u32> = (0..left.data.rows as u32)
        .filter(|&r| !lcol.is_null(r as usize))
        .collect();
    let mut ri: Vec<u32> = (0..right.data.rows as u32)
        .filter(|&r| !rcol.is_null(r as usize))
        .collect();
    ctx.budget.add(((li.len() + ri.len()) as u64).max(1))?;
    {
        let (li_ref, ri_ref) = (&mut li, &mut ri);
        let mut sort_left =
            move || li_ref.sort_by(|&a, &b| lcol.total_cmp_at(a as usize, lcol, b as usize));
        let mut sort_right =
            move || ri_ref.sort_by(|&a, &b| rcol.total_cmp_at(a as usize, rcol, b as usize));
        if ctx.threads > 1 {
            std::thread::scope(|s| {
                s.spawn(sort_left);
                sort_right();
            });
        } else {
            sort_left();
            sort_right();
        }
    }

    let (lcols, rcols) = (&left.data.cols, &right.data.cols);
    let mut chunk = Chunk::empty(types);
    let mut charger = Charger::new(ctx.budget);
    let (mut sel, mut pairs) = (Vec::new(), Pairs::default());
    let (mut i, mut j) = (0usize, 0usize);
    while i < li.len() && j < ri.len() {
        charger.charge(1)?;
        let (l_row0, r_row0) = (li[i] as usize, ri[j] as usize);
        match lcol.total_cmp_at(l_row0, rcol, r_row0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = (i..li.len())
                    .take_while(|&x| lcol.total_cmp_at(li[x] as usize, lcol, l_row0).is_eq())
                    .last()
                    .unwrap_or(i)
                    + 1;
                let j_end = (j..ri.len())
                    .take_while(|&x| rcol.total_cmp_at(ri[x] as usize, rcol, r_row0).is_eq())
                    .last()
                    .unwrap_or(j)
                    + 1;
                for &l_row in &li[i..i_end] {
                    for window in ri[j..j_end].chunks(PAIR_FLUSH) {
                        let matched = refine(conds, lcols, l_row as usize, rcols, window, &mut sel);
                        charger.charge((window.len() + matched.len()) as u64)?;
                        pairs.push_run(l_row as usize, matched);
                        if pairs.is_full() {
                            chunk.take_pairs(out_map, lcols, rcols, &mut pairs);
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    chunk.take_pairs(out_map, lcols, rcols, &mut pairs);
    charger.flush()?;
    Ok(chunk)
}

/// Parallel aggregation. Grouped inputs are partitioned by key hash
/// (order-preserving within each partition, one unit per input row) and
/// folded partition-by-partition — a group's rows land wholly in one
/// partition, so every accumulator folds in global input order and
/// float sums are bit-identical to the serial engine. Global aggregates
/// fold serially for the same reason.
fn eval_aggregate(ctx: &Ctx<'_>, algo: AggAlgo, child: &NodeOut) -> Result<Chunk, ExecError> {
    let spec = AggSpec::resolve(ctx.graph, ctx.db.catalog(), &child.proj)?;
    let input_rows = child.data.rows;

    let mut out_rows: Vec<Vec<Value>> = if spec.key_slots.is_empty() {
        ctx.budget.add(input_rows as u64)?;
        let mut accs = spec.new_accs();
        fold_global(&mut accs, &spec.agg_slots, &child.data.cols, input_rows)?;
        // An aggregate over zero rows with no GROUP BY still yields one
        // row (SQL semantics: COUNT(*) = 0) — `new_accs` covers it.
        vec![accs.into_iter().map(Acc::finish).collect()]
    } else {
        let parts = (ctx.threads * 4).next_power_of_two();
        let mask = parts - 1;
        let key_cols: Vec<&ColumnVector> = spec
            .key_slots
            .iter()
            .map(|&s| &child.data.cols[s])
            .collect();

        // Partition pass (one unit per input row, the serial grouping
        // charge).
        let morsels = Morsels::new(input_rows, ctx.morsel_rows);
        let parted = run_workers(morsels.team(ctx.threads), |_w| {
            let mut charger = Charger::new(ctx.budget);
            let mut out: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
            while let Some((idx, range)) = morsels.claim() {
                charger.charge(range.len() as u64)?;
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for row in range {
                    let mut h = DefaultHasher::new();
                    for col in &key_cols {
                        col.get(row).hash(&mut h);
                    }
                    buckets[(h.finish() as usize) & mask].push(row as u32);
                }
                out.push((idx, buckets));
            }
            charger.flush()?;
            Ok(out)
        })?;
        let mut flat: Vec<(usize, Vec<Vec<u32>>)> = parted.into_iter().flatten().collect();
        flat.sort_by_key(|&(idx, _)| idx);
        let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (_, buckets) in flat {
            for (p, rows) in buckets.into_iter().enumerate() {
                partitions[p].extend(rows);
            }
        }

        // Fold pass: disjoint key sets per partition, no accumulator
        // merging, charge-free (the input rows were charged above).
        let jobs = Morsels::new(parts, 1);
        let folded = run_workers(ctx.threads.min(parts), |_w| {
            let mut out: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
            while let Some((p, _)) = jobs.claim() {
                let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
                for &row in &partitions[p] {
                    let row = row as usize;
                    let k: Vec<Value> = spec
                        .key_slots
                        .iter()
                        .map(|&s| child.data.cols[s].get(row))
                        .collect();
                    let accs = groups.entry(k).or_insert_with(|| spec.new_accs());
                    for (acc, slot) in accs.iter_mut().zip(&spec.agg_slots) {
                        let v = slot.map(|s| child.data.cols[s].get(row));
                        acc.update(v.as_ref())?;
                    }
                }
                let rows: Vec<Vec<Value>> = groups
                    .into_iter()
                    .map(|(mut key, accs)| {
                        key.extend(accs.into_iter().map(Acc::finish));
                        key
                    })
                    .collect();
                out.push((p, rows));
            }
            Ok(out)
        })?;
        let mut flat: Vec<(usize, Vec<Vec<Value>>)> = folded.into_iter().flatten().collect();
        flat.sort_by_key(|&(p, _)| p);
        flat.into_iter().flat_map(|(_, rows)| rows).collect()
    };

    if algo == AggAlgo::Sort {
        // The sort's cost, charged on the input size like the serial
        // engines.
        ctx.budget.add(input_rows as u64)?;
        out_rows.sort();
    }
    ctx.budget.add(out_rows.len() as u64)?;
    let mut chunk = Chunk::empty(&spec.out_types);
    for row in &out_rows {
        for (col, v) in chunk.cols.iter_mut().zip(row) {
            let ok = col.push(v);
            debug_assert!(ok, "aggregate output value fits its column type");
        }
        chunk.rows += 1;
    }
    Ok(chunk)
}
