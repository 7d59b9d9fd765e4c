//! Morsel-driven plan evaluation — the batch engine.
//!
//! Every batch execution runs here at every thread count: [`crate::execute`]
//! and the count path ([`crate::execute_for_stats`], which the
//! true-cardinality oracle uses). The plan tree is evaluated stage by
//! stage — scans, join builds and probes, and aggregation each fan out
//! over a team of up to [`ExecConfig::threads`] workers pulling
//! fixed-size **morsels** (row ranges) from a shared atomic dispenser —
//! and every stage's output is reassembled in morsel order before the
//! next stage starts. A one-worker team runs on the calling thread.
//!
//! Each node's output carries only its **projection** (see
//! [`crate::projection`]): every column for a plain query, the
//! `GROUP BY` keys and aggregate inputs below an aggregate, and none at
//! all on the count path, plus whatever each join needs internally.
//!
//! ## Determinism contract
//!
//! Results, row order, float bits and the work total are the same at
//! any thread count and any morsel size, and the row multiset and work
//! total equal the reference row engine's ([`crate::rowexec`]); the
//! equivalence suite asserts both. Three mechanisms make that hold:
//!
//! * **Order-preserving reassembly.** Workers tag each run of
//!   consecutively claimed morsels with its first morsel index; the
//!   stage concatenates the runs in index order, so the row stream
//!   entering the next stage is in table and probe order. Join
//!   candidate lists are likewise merged in build-row order, so probes
//!   emit matches in build order.
//! * **Partitioned state instead of shared state.** Hash-join builds and
//!   grouped aggregation split their keys across partitions by a
//!   deterministic hash (`DefaultHasher` with its fixed default keys).
//!   Each partition is built and folded by exactly one worker, with
//!   partition-local row lists that preserve global input order — a
//!   group's accumulator folds its rows in input order, so even float
//!   `SUM`/`AVG` bits do not depend on the team size. No worker ever
//!   writes state another worker reads.
//! * **Charge-total equality.** Workers accumulate work charges locally
//!   and flush them to one shared atomic counter (every `FLUSH_EVERY`
//!   units and at worker exit). `u64` addition is commutative, so the
//!   total does not depend on the interleaving, and the join and
//!   aggregate stages charge, through the kernels of `ops/kernel.rs`,
//!   exactly the units the row engine charges. A plan aborts with
//!   `BudgetExceeded` at one thread count iff it aborts at every other.
//!   The `work_done` reported on abort overshoots the budget by less
//!   than `FLUSH_EVERY` plus one morsel; at one thread it is
//!   deterministic (`tests/golden/abort_trip_points.txt` pins it).
//!
//! Sort-merge joins sort their two sides concurrently (the same stable
//! sort and comparator at any team size) but advance the merge cursors
//! serially — the merge loop is inherently sequential and its charge
//! pattern (one unit per cursor comparison) depends on the traversal.
//! Global (non-`GROUP BY`) aggregates also fold serially, through the
//! column-wise fold: float accumulation is not associative, and a tree
//! reduction would change result bits. Aggregates fold only the input
//! rows the budget still pays for before they charge, so an update
//! error on an earlier row wins over the budget trip, as it does row by
//! row in the row engine.
//!
//! [`ExecConfig::threads`]: crate::ExecConfig::threads

use crate::error::ExecError;
use crate::executor::ExecConfig;
use crate::ops::agg::{Acc, AggSpec};
use crate::ops::join::{join_output, Side};
use crate::ops::kernel::{fold_global, gather_pairs, refine, select, Pairs, PAIR_FLUSH};
use crate::ops::scan::ScanSpec;
use crate::ops::{first_eq, hash_residual, resolve_conds, SlotCond};
use crate::projection::{aggregate_inputs, scan_projection, ColSet, Projection};
use crate::row::Row;
use hfqo_catalog::ColumnType;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PlanNode, QueryError, QueryGraph, RelId};
use hfqo_storage::{ColumnVector, Database, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::OnceLock;

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

    /// Units that can still be added without exceeding the limit. Only
    /// meaningful between stages, while no worker is charging.
    fn headroom(&self) -> u64 {
        self.limit.saturating_sub(self.used())
    }

    /// Adds `n` single-unit rows with the trip point and the
    /// `work_done` of adding them one at a time: past the headroom only
    /// the first unpaid row is charged. Called between stages, like
    /// [`SharedBudget::headroom`].
    fn add_rows(&self, n: u64) -> Result<(), ExecError> {
        let headroom = self.headroom();
        self.add(n.min(headroom.saturating_add(1)))
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
    /// worker exit so success leaves the shared total exact.
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
/// in worker order; the lowest-indexed failure wins. One worker runs on
/// the calling thread.
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

/// The machine's available parallelism, read once per process: the
/// lookup reads cgroup files, tens of microseconds that would otherwise
/// be paid by every execution.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Hash partitions for a stage run by `team` workers: one for a
/// one-worker team (nothing to split), otherwise enough that the
/// per-partition builds balance across the team.
fn partition_count(team: usize) -> usize {
    if team <= 1 {
        1
    } else {
        (team * 4).next_power_of_two()
    }
}

/// Rows produced by one unit of parallel work — a run of morsels'
/// output, or a whole stage's after reassembly. The row count is
/// tracked separately because zero-width outputs (pure counting
/// plans) exist.
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

    /// Appends the joined rows of `pairs` column-wise and clears them.
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

/// One worker's output: a chunk per run of consecutively claimed
/// morsels, tagged with the run's first morsel index. A worker that
/// claims every morsel (a one-worker team) produces a single chunk,
/// which reassembly hands on without copying.
struct Runs<'t> {
    types: &'t [ColumnType],
    chunks: Vec<(usize, Chunk)>,
    next: usize,
}

impl<'t> Runs<'t> {
    fn new(types: &'t [ColumnType]) -> Self {
        Self {
            types,
            chunks: Vec::new(),
            next: 0,
        }
    }

    /// The chunk morsel `idx`'s output appends to: the current run's if
    /// `idx` directly follows the worker's previous morsel, else a new
    /// run's.
    fn chunk(&mut self, idx: usize) -> &mut Chunk {
        if self.chunks.is_empty() || idx != self.next {
            self.chunks.push((idx, Chunk::empty(self.types)));
        }
        self.next = idx + 1;
        &mut self.chunks.last_mut().expect("a run was just ensured").1
    }
}

/// Concatenates the workers' runs in morsel order — the reassembly step
/// that makes every stage order-preserving. A lone run is returned as
/// is.
fn concat_runs(types: &[ColumnType], workers: Vec<Runs<'_>>) -> Chunk {
    let mut chunks: Vec<(usize, Chunk)> = workers.into_iter().flat_map(|r| r.chunks).collect();
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk").1;
    }
    chunks.sort_by_key(|&(idx, _)| idx);
    let rows = chunks.iter().map(|(_, ch)| ch.rows).sum();
    let mut out = Chunk {
        cols: types
            .iter()
            .map(|&t| ColumnVector::with_capacity(t, rows))
            .collect(),
        rows,
    };
    for (_, ch) in chunks {
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

/// Evaluates `root`, with `required` the columns a non-aggregate root
/// must carry (an aggregate's input carries its keys and inputs).
/// Returns the root's output and the work total.
fn evaluate(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    required: &ColSet,
    config: ExecConfig,
) -> Result<(Chunk, u64), ExecError> {
    let budget = SharedBudget::new(config.work_budget);
    // Worker teams never exceed the machine's parallelism: extra
    // threads on an oversubscribed core only add scheduling overhead,
    // and results are identical at any team size by construction.
    let ctx = Ctx {
        db,
        graph,
        threads: config.threads.clamp(1, hardware_threads()),
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
    Ok((out, budget.used()))
}

/// Evaluates `root` and materialises its output rows, exported
/// column-wise. Returns the rows and the work total.
pub(crate) fn execute_materialized(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    required: &ColSet,
    config: ExecConfig,
) -> Result<(Vec<Row>, u64), ExecError> {
    let (out, work) = evaluate(db, graph, root, required, config)?;
    let mut rows: Vec<Row> = Vec::new();
    rows.resize_with(out.rows, || Vec::with_capacity(out.cols.len()));
    for col in &out.cols {
        col.values_onto(&mut rows);
    }
    Ok((rows, work))
}

/// Evaluates `root` for its output row count only. Returns the count
/// and the work total, which equals [`execute_materialized`]'s: work
/// charges do not depend on which columns a node carries.
pub(crate) fn count_rows(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    required: &ColSet,
    config: ExecConfig,
) -> Result<(usize, u64), ExecError> {
    let (out, work) = evaluate(db, graph, root, required, config)?;
    Ok((out.rows, work))
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
            // columns; they are dropped again from this node's output
            // unless an ancestor requires them.
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

/// Scan: workers claim morsels of the visit range, filter and gather
/// locally, and the outputs reassemble in morsel order (= visit order).
/// Charges one unit per visited row plus one per emitted row, like the
/// row engine.
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
    let runs = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut runs = Runs::new(&types);
        let mut rid_buf: Vec<u32> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?; // visited rows
            let chunk = runs.chunk(idx);
            let emitted = if spec.is_plain_seq() {
                // Unfiltered sequential morsels copy contiguous column
                // ranges — no row-id gather.
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    dst.append_range(src, range.start, range.len());
                }
                range.len()
            } else {
                // One selection vector per morsel from the predicate
                // kernels, then a column-wise bulk gather.
                rid_buf.clear();
                spec.filter_visits(range.start, range.len(), &mut rid_buf);
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
                rid_buf.len()
            };
            chunk.rows += emitted;
            charger.charge(emitted as u64)?; // emitted rows
        }
        charger.flush()?;
        Ok(runs)
    })?;
    let data = concat_runs(&types, runs);
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
/// every run. A single partition (`mask == 0`) skips the hash.
#[inline]
fn partition_of<T: Hash + ?Sized>(key: &T, mask: usize) -> usize {
    if mask == 0 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

/// One partition's hash table, keyed on raw `i64`s (the fast path when
/// the build key column is integer-typed — no `Value` materialisation
/// per probe) or on [`Value`]s (everything else). Cross-type numeric
/// keys never match in either representation, exactly like the row
/// engine's `HashMap<&Value>` (`Int` and `Float` hash differently by
/// design; the binder type-checks join keys).
enum PartTable {
    Int(HashMap<i64, Vec<u32>>),
    Any(HashMap<Value, Vec<u32>>),
}

/// Merges per-morsel partition buckets in morsel order, so each
/// partition's row list stays ascending.
fn merge_buckets(parts: usize, workers: Vec<Vec<(usize, Vec<Vec<u32>>)>>) -> Vec<Vec<u32>> {
    let mut flat: Vec<(usize, Vec<Vec<u32>>)> = workers.into_iter().flatten().collect();
    flat.sort_by_key(|&(idx, _)| idx);
    let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (_, buckets) in flat {
        for (p, rows) in buckets.into_iter().enumerate() {
            partitions[p].extend(rows);
        }
    }
    partitions
}

/// Radix-partitioned hash join. Build rows (the right input, as in the
/// row engine) are partitioned by key hash (charging one unit per build
/// row, NULL keys charged but excluded); each partition's table is then
/// built by one worker from a row list that preserves build order, so
/// every key's candidate list is in ascending build-row order. Probe
/// morsels look up their partition's table without touching shared
/// state and emit in probe order.
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
    let int_keyed = right.types.get(key.r_slot) == Some(&ColumnType::Int);
    let build_col = &right.data.cols[key.r_slot];

    // Build partition pass.
    let morsels = Morsels::new(right.data.rows, ctx.morsel_rows);
    let team = morsels.team(ctx.threads);
    let parts = partition_count(team);
    let mask = parts - 1;
    let parted = run_workers(team, |_w| {
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
    let partitions = merge_buckets(parts, parted);

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
    // emitted row, each window charged before its pairs are gathered.
    let residual = hash_residual(conds, int_keyed);
    let (probe, build) = (&left.data.cols, &right.data.cols);
    let probe_col = &probe[key.l_slot];
    let morsels = Morsels::new(left.data.rows, ctx.morsel_rows);
    let runs = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut runs = Runs::new(types);
        let (mut sel, mut pairs) = (Vec::new(), Pairs::default());
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?;
            let chunk = runs.chunk(idx);
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
        }
        charger.flush()?;
        Ok(runs)
    })?;
    Ok(concat_runs(types, runs))
}

/// Nested-loop join: probe morsels (the left input) against the fully
/// materialised inner side, per probe row and window of up to
/// `PAIR_FLUSH` inner rows. One unit per (probe, inner) pair checked,
/// one per emitted row.
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
    let runs = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut runs = Runs::new(types);
        let (mut sel, mut pairs) = (Vec::new(), Pairs::default());
        while let Some((idx, range)) = morsels.claim() {
            let chunk = runs.chunk(idx);
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
        }
        charger.flush()?;
        Ok(runs)
    })?;
    Ok(concat_runs(types, runs))
}

/// Sort-merge join: the two key sorts run concurrently on a multi-worker
/// team (the same stable sort and comparator, so the permutations do
/// not depend on it); the merge itself advances serially because its
/// charge pattern — one unit per cursor comparison, then one per pair
/// checked and per row emitted in each equal block — depends on the
/// traversal.
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

/// Aggregation at the plan root. Charges, like the row engine, (for
/// sort aggregation) one unit per input row for the sort, then one per
/// input row, then one per output row.
///
/// Only the input rows the budget still pays for are folded, and they
/// are charged afterwards with [`SharedBudget::add_rows`]: an update
/// error on a paid row wins, and otherwise the charge trips at the
/// first unpaid row, as row by row. Grouped inputs are partitioned by
/// key hash (order-preserving within each partition) and folded
/// partition by partition — a group's rows land wholly in one
/// partition, so every accumulator folds in input order and float sums
/// do not depend on the team size; a failed update reports the lowest
/// failing input row across partitions. Global aggregates fold serially
/// for the same reason.
fn eval_aggregate(ctx: &Ctx<'_>, algo: AggAlgo, child: &NodeOut) -> Result<Chunk, ExecError> {
    let spec = AggSpec::resolve(ctx.graph, ctx.db.catalog(), &child.proj)?;
    let input_rows = child.data.rows;
    if algo == AggAlgo::Sort {
        // The sort's cost, charged up front on the input size like the
        // row engine.
        ctx.budget.add(input_rows as u64)?;
    }
    let paid = ctx.budget.headroom().min(input_rows as u64) as usize;

    let mut out_rows: Vec<Vec<Value>> = if spec.key_slots.is_empty() {
        let mut accs = spec.new_accs();
        fold_global(&mut accs, &spec.agg_slots, &child.data.cols, paid)?;
        // An aggregate over zero rows with no GROUP BY still yields one
        // row (SQL semantics: COUNT(*) = 0) — `new_accs` covers it.
        vec![accs.into_iter().map(Acc::finish).collect()]
    } else {
        let key_cols: Vec<&ColumnVector> = spec
            .key_slots
            .iter()
            .map(|&s| &child.data.cols[s])
            .collect();

        // Partition pass over the paid rows.
        let morsels = Morsels::new(paid, ctx.morsel_rows);
        let team = morsels.team(ctx.threads);
        let parts = partition_count(team);
        let mask = parts - 1;
        let parted = run_workers(team, |_w| {
            let mut out: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
            while let Some((idx, range)) = morsels.claim() {
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for row in range {
                    let p = if mask == 0 {
                        0
                    } else {
                        let mut h = DefaultHasher::new();
                        for col in &key_cols {
                            col.get(row).hash(&mut h);
                        }
                        (h.finish() as usize) & mask
                    };
                    buckets[p].push(row as u32);
                }
                out.push((idx, buckets));
            }
            Ok(out)
        })?;
        let partitions = merge_buckets(parts, parted);

        // Fold pass: disjoint key sets per partition, no accumulator
        // merging. A partition stops at its first failing row (its row
        // list is ascending) and reports that row.
        let jobs = Morsels::new(parts, 1);
        let folded = run_workers(ctx.threads.min(parts), |_w| {
            let mut out: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
            let mut failed: Vec<(u32, ExecError)> = Vec::new();
            while let Some((p, _)) = jobs.claim() {
                let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
                'rows: for &row in &partitions[p] {
                    let r = row as usize;
                    let k: Vec<Value> = key_cols.iter().map(|col| col.get(r)).collect();
                    let accs = groups.entry(k).or_insert_with(|| spec.new_accs());
                    for (acc, slot) in accs.iter_mut().zip(&spec.agg_slots) {
                        let v = slot.map(|s| child.data.cols[s].get(r));
                        if let Err(e) = acc.update(v.as_ref()) {
                            failed.push((row, e));
                            break 'rows;
                        }
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
            Ok((out, failed))
        })?;
        let mut flat: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
        let mut failed: Vec<(u32, ExecError)> = Vec::new();
        for (out, f) in folded {
            flat.extend(out);
            failed.extend(f);
        }
        if let Some((_, e)) = failed.into_iter().min_by_key(|&(row, _)| row) {
            return Err(e);
        }
        flat.sort_by_key(|&(p, _)| p);
        flat.into_iter().flat_map(|(_, rows)| rows).collect()
    };
    ctx.budget.add_rows(input_rows as u64)?;
    if algo == AggAlgo::Sort {
        out_rows.sort();
    }
    ctx.budget.add_rows(out_rows.len() as u64)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::all_columns;
    use hfqo_catalog::{Catalog, Column, ColumnId, TableSchema};
    use hfqo_query::{AggExpr, BoundColumn, JoinEdge, Relation, Selection};
    use hfqo_sql::{AggFunc, CompareOp};

    /// Two tables a(k, v, pad), b(k, w); query joins a.k = b.k with a
    /// selection on a.v and COUNT(*) + SUM(b.w).
    fn setup() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                    Column::new("pad", ColumnType::Text),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("w", ColumnType::Int),
                ],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..10i64 {
            db.table_mut(a)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 3), Value::str("x")])
                .unwrap();
            db.table_mut(b)
                .unwrap()
                .append_row(&[Value::Int(i % 5), Value::Int(i)])
                .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(1)),
                op: CompareOp::Eq,
                value: hfqo_query::Lit::Int(0),
            }],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    column: None,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    column: Some(BoundColumn::new(RelId(1), ColumnId(1))),
                },
            ],
            vec![],
        );
        (db, graph)
    }

    /// Evaluates the hash join a ⋈ b carrying `required`, on one worker.
    /// Returns the node's output and the work charged.
    fn evaluate_join(required: &ColSet) -> (NodeOut, u64) {
        let (db, graph) = setup();
        let join = PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::SeqScan,
            }),
            right: Box::new(PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::SeqScan,
            }),
        };
        let budget = SharedBudget::new(1_000_000);
        let ctx = Ctx {
            db: &db,
            graph: &graph,
            threads: 1,
            morsel_rows: 4096,
            budget: &budget,
        };
        let out = eval_node(&ctx, &join, required).unwrap();
        (out, budget.used())
    }

    fn slots(proj: &Projection) -> Vec<(u32, u32)> {
        proj.columns()
            .iter()
            .map(|c| (c.rel.0, c.column.0))
            .collect()
    }

    #[test]
    fn full_requirement_matches_row_layout_order() {
        let (db, graph) = setup();
        let (out, _) = evaluate_join(&all_columns(&graph, &db));
        // Leaf order (a then b), column-id order within each leaf — the
        // row engine's layout.
        assert_eq!(
            slots(&out.proj),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        );
        assert_eq!(out.data.cols.len(), 5);
    }

    #[test]
    fn aggregate_requirement_prunes_unreferenced_columns() {
        let (_, graph) = setup();
        let (out, _) = evaluate_join(&aggregate_inputs(&graph));
        // Only b.w survives above the join: a.k/b.k are consumed by the
        // join itself, a.v by the scan filter, a.pad by nothing.
        assert_eq!(slots(&out.proj), vec![(1, 1)]);
    }

    #[test]
    fn empty_requirement_yields_zero_width_output() {
        let (out, _) = evaluate_join(&ColSet::new());
        assert_eq!(out.proj.width(), 0);
        assert!(out.data.cols.is_empty());
    }

    #[test]
    fn counts_match_row_semantics() {
        // a.v = 0 keeps a ids {0, 3, 6, 9}; b.k = i % 5 has 2 rows per
        // key in 0..5 → ids 0 and 3 match 2 rows each, 6/9 none.
        let (out, work) = evaluate_join(&ColSet::new());
        assert_eq!(out.data.rows, 4);
        assert!(work > 0);
    }
}
