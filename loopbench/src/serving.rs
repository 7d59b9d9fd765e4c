//! The serving workloads: `job_warm` and `job_adhoc`.
//!
//! Each client is a closed loop over SQL text: `parse_select`,
//! `bind_select`, then `QuerySession::serve_shared`. The plan and
//! execute children of a serve come from what `ServedQuery` carries
//! (`planning_time`, `cache`, `outcome.stats`), so the system itself is
//! not instrumented.

use crate::host::HostSpeed;
use crate::metrics::{self, setups, Measured, Metrics, Outcome, Pass};
use crate::trace::{self, Spans, Totals, Trace, MS, ROOT, US};
use crate::Args;
use hfqo::exec::{execute_rows, ExecConfig, ExecError};
use hfqo::opt::PlannerMethod;
use hfqo::query::{bind_select, template_fingerprint, PhysicalPlan, QueryGraph};
use hfqo::serve::{CacheMetrics, CacheOutcome, QuerySession, ServeError, ServedQuery};
use hfqo::sql::parse_select;
use hfqo::storage::Value;
use hfqo::workload::imdb::{build_imdb, ImdbConfig};
use hfqo::workload::job::generate_job_suite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Data seed shared by both serving workloads: the database and the
/// query texts are fixed, and the workload seed drives the request
/// stream only.
const DATA_SEED: u64 = 21;

/// Threads of the row-engine check after the window.
const GATE_THREADS: usize = 2;

/// Requests a client serves between two host-speed samples, which it
/// takes itself, between requests.
const HOST_EVERY: usize = 16;

/// Requests generated per run; a longer run wraps around.
const STREAM_LEN: usize = 1 << 17;

pub struct Spec {
    name: &'static str,
    /// Closed-loop client threads.
    clients: usize,
    /// `title` rows of the IMDB-like database.
    base_rows: usize,
    /// Suite seeds whose queries form the pool.
    suite_seeds: std::ops::Range<u64>,
    /// Relation counts kept in the pool.
    rels: std::ops::RangeInclusive<usize>,
    /// Keep only the first variant (`1a`, `2a`, …) of each family, so
    /// every pool query has a template of its own.
    one_variant: bool,
    /// Serve every query once during set-up.
    warm: bool,
}

/// 113 JOB-like queries, cache warmed, two clients.
pub const JOB_WARM: Spec = Spec {
    name: "job_warm",
    clients: 2,
    base_rows: 300,
    suite_seeds: DATA_SEED..DATA_SEED + 1,
    rels: 1..=usize::MAX,
    one_variant: false,
    warm: true,
};

/// Ad-hoc 4–9-relation queries, one per template, from many suites: the
/// pool is many times the 128-entry plan cache. One client.
pub const JOB_ADHOC: Spec = Spec {
    name: "job_adhoc",
    clients: 1,
    base_rows: 50,
    suite_seeds: 1000..1060,
    rels: 4..=9,
    one_variant: true,
    warm: false,
};

pub struct World {
    session: QuerySession,
    /// `(sql, bound graph)` per pool query.
    queries: Vec<(String, QueryGraph)>,
}

fn setup(spec: &Spec, host: &mut HostSpeed) -> (World, f64, f64) {
    let t0 = trace::now();
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: spec.base_rows,
        seed: DATA_SEED,
    });
    let t1 = trace::now();
    let queries: Vec<(String, QueryGraph)> = spec
        .suite_seeds
        .clone()
        .flat_map(|s| generate_job_suite(db.catalog(), s))
        .filter(|q| spec.rels.contains(&q.graph.relation_count()))
        .filter(|q| !spec.one_variant || q.label.ends_with('a'))
        .map(|q| (q.sql, q.graph))
        .collect();
    let t2 = trace::now();
    let session = QuerySession::traditional(db, stats);
    if spec.warm {
        for (i, (sql, _)) in queries.iter().enumerate() {
            // Over-budget queries fail here as they will in the window.
            let _ = session.serve(sql);
            if (i + 1) % HOST_EVERY == 0 {
                host.sample();
            }
        }
    }
    let world = World { session, queries };
    (world, trace::secs(t0, t1) * 1e3, trace::secs(t1, t2) * 1e3)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The request stream, a function of the seed alone: pass after pass
/// over the pool, each pass a seeded shuffle.
fn stream(pool: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(STREAM_LEN + pool);
    while out.len() < STREAM_LEN {
        let mut pass: Vec<u32> = (0..pool as u32).collect();
        shuffle(&mut pass, &mut rng);
        out.extend(pass);
    }
    out
}

/// A hash of the rows in sorted order.
pub fn rows_digest(rows: &[Vec<Value>]) -> u64 {
    let mut sorted = rows.to_vec();
    sorted.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sorted.hash(&mut h);
    h.finish()
}

/// One plan a query was served with, and what its first serve returned.
struct Seen {
    plan: PhysicalPlan,
    digest: u64,
    work: u64,
}

struct Rec {
    latency_ms: f64,
    /// `Some(work)` for a successful serve.
    work: Option<u64>,
}

struct ClientLog {
    /// `(stream position, record)`.
    recs: Vec<(usize, Rec)>,
    spans: Spans,
    plans: HashMap<u32, Vec<Seen>>,
    /// First error text per failing query.
    errs: HashMap<u32, String>,
    mismatches: Vec<String>,
    /// Cache counters when the first pass completed (single client).
    after_first_pass: Option<CacheMetrics>,
    /// This client's host-speed samples, per pass.
    host: Vec<HostSpeed>,
}

fn plan_span_name(served: &ServedQuery) -> &'static str {
    match (served.cache, served.method) {
        (CacheOutcome::ExactHit | CacheOutcome::TemplateHit, _) => "serve.probe_hit",
        (_, PlannerMethod::Learned) => "rejoin.plan_miss",
        _ => "opt.plan_miss",
    }
}

/// Records a serve's spans: the plan and execute children are placed
/// from the durations `ServedQuery` reports.
pub fn record_serve(
    spans: &mut Spans,
    parent: u64,
    request: u64,
    start: Instant,
    end: Instant,
    result: &Result<ServedQuery, ServeError>,
) {
    if !spans.enabled() {
        return;
    }
    let id = spans.id();
    match result {
        Ok(served) => {
            let plan_end = start + served.planning_time;
            spans.leaf(id, plan_span_name(served), request, start, plan_end);
            let exec_start = end
                .checked_sub(served.outcome.stats.elapsed)
                .unwrap_or(plan_end)
                .max(plan_end);
            spans.leaf(id, "exec.execute", request, exec_start, end);
        }
        Err(ServeError::Exec(ExecError::BudgetExceeded { .. })) => {
            spans.leaf(id, "exec.abort", request, start, end);
        }
        Err(_) => {}
    }
    spans.record(id, parent, "serve.serve_shared", request, start, end);
}

/// Hands out stream positions until the window's time is up, and then
/// until the pass in progress is complete: every run serves whole passes,
/// so the mix of queries is the same in every run.
struct Window {
    next: AtomicUsize,
    end: AtomicUsize,
    stop_at: Instant,
    origin: Instant,
    /// Requests per pass (the pool size).
    pass: usize,
    traced: bool,
}

impl Window {
    fn claim(&self) -> Option<usize> {
        // Counters only: they order no other memory.
        let pos = self.next.fetch_add(1, Ordering::Relaxed);
        if trace::now() >= self.stop_at {
            self.end
                .fetch_min(pos.div_ceil(self.pass) * self.pass, Ordering::Relaxed);
        }
        (pos < self.end.load(Ordering::Relaxed)).then_some(pos)
    }
}

fn client(spec: &Spec, world: &World, stream: &[u32], window: &Window, tag: u64) -> ClientLog {
    let mut log = ClientLog {
        recs: Vec::new(),
        spans: Spans::new(window.traced, window.origin, tag),
        plans: HashMap::new(),
        errs: HashMap::new(),
        mismatches: Vec::new(),
        after_first_pass: None,
        host: Vec::new(),
    };
    let catalog = world.session.catalog();
    while let Some(pos) = window.claim() {
        let t0 = trace::now();
        let q = stream[pos % stream.len()];
        let sql = &world.queries[q as usize].0;
        let req = pos as u64;
        let root = log.spans.id();
        let stmt = parse_select(sql);
        let t1 = trace::now();
        log.spans.leaf(root, "sql.parse", req, t0, t1);
        let graph = stmt
            .map_err(ServeError::from)
            .and_then(|s| bind_select(&s, catalog).map_err(ServeError::from));
        let t2 = trace::now();
        log.spans.leaf(root, "query.bind", req, t1, t2);
        let result = graph.and_then(|g| world.session.serve_shared(Arc::new(g)));
        let t3 = trace::now();
        record_serve(&mut log.spans, root, req, t2, t3, &result);
        log.spans.record(root, ROOT, "request", req, t0, t3);

        let work = match &result {
            Ok(served) => {
                let digest = rows_digest(&served.outcome.rows);
                let work = served.outcome.stats.work;
                let seen = log.plans.entry(q).or_default();
                match seen.iter().find(|s| s.plan == served.plan) {
                    Some(first) if (first.digest, first.work) != (digest, work) => {
                        log.mismatches.push(format!(
                            "{}: request {pos} returned rows/work ({digest:x}, {work}) \
                             but its first serve on the same plan returned ({:x}, {})",
                            spec.name, first.digest, first.work
                        ))
                    }
                    Some(_) => {}
                    None => seen.push(Seen {
                        plan: served.plan.clone(),
                        digest,
                        work,
                    }),
                }
                Some(work)
            }
            Err(e) => {
                if !matches!(e, ServeError::Exec(ExecError::BudgetExceeded { .. })) {
                    log.mismatches
                        .push(format!("{}: request {pos} failed: {e}", spec.name));
                }
                let text = e.to_string();
                let first = log.errs.entry(q).or_insert_with(|| text.clone());
                if *first != text {
                    log.mismatches.push(format!(
                        "{}: request {pos} failed with `{text}`, its first serve with `{first}`",
                        spec.name
                    ));
                }
                None
            }
        };
        let latency_ms = trace::secs(t0, t3) * 1e3;
        log.recs.push((pos, Rec { latency_ms, work }));
        if log.recs.len() % HOST_EVERY == 0 {
            let pass = pos / window.pass;
            if log.host.len() <= pass {
                log.host.resize_with(pass + 1, HostSpeed::default);
            }
            log.host[pass].sample();
        }
        if spec.clients == 1 && pos + 1 == window.pass {
            log.after_first_pass = Some(world.session.cache_metrics());
        }
    }
    log
}

/// Plan-cache counters between two snapshots.
pub fn cache_deltas(layer: &mut Metrics, before: &CacheMetrics, after: &CacheMetrics) {
    let probes = |m: &CacheMetrics| m.hits + m.replans + m.misses;
    let probed = probes(after) - probes(before);
    let hits = (after.hits - before.hits) as f64;
    let frac = if probed > 0 {
        hits / probed as f64
    } else {
        0.0
    };
    layer.set("serve.cache_hit_frac", frac, "ratio");
    for (name, a, b) in [
        ("serve.cache_misses", after.misses, before.misses),
        ("serve.cache_replans", after.replans, before.replans),
        ("serve.cache_evictions", after.evictions, before.evictions),
        (
            "serve.cache_invalidations",
            after.invalidations,
            before.invalidations,
        ),
        (
            "serve.flight_waits",
            after.flight_waits,
            before.flight_waits,
        ),
    ] {
        layer.set(name, (a - b) as f64, "count");
    }
}

/// One timed window, plus the result checks that follow it.
fn measure(
    spec: &Spec,
    world: &World,
    stream: &[u32],
    seconds: f64,
    traced: bool,
    errors: &mut Vec<String>,
) -> Measured {
    let before = world.session.cache_metrics();
    let origin = trace::now();
    let window = Window {
        next: AtomicUsize::new(0),
        end: AtomicUsize::new(usize::MAX),
        stop_at: origin + std::time::Duration::from_secs_f64(seconds),
        origin,
        pass: world.queries.len(),
        traced,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let window = &window;
                s.spawn(move || client(spec, world, stream, window, c as u64 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = world.session.cache_metrics();

    let mut m = Measured {
        peak_rss_mb: metrics::peak_rss_mb(),
        ..Measured::default()
    };
    let mut host: Vec<HostSpeed> = Vec::new();
    let mut trace = Trace::default();
    let mut recs: Vec<(usize, Rec)> = Vec::new();
    let mut plans: HashMap<u32, Vec<Seen>> = HashMap::new();
    let mut errs: HashMap<u32, String> = HashMap::new();
    let mut after_first_pass = None;
    for log in logs {
        trace.absorb(log.spans);
        recs.extend(log.recs);
        errors.extend(log.mismatches);
        after_first_pass = after_first_pass.or(log.after_first_pass);
        if host.len() < log.host.len() {
            host.resize_with(log.host.len(), HostSpeed::default);
        }
        for (mine, theirs) in host.iter_mut().zip(&log.host) {
            mine.extend(theirs);
        }
        for (q, seen) in log.plans {
            let mine = plans.entry(q).or_default();
            for s in seen {
                match mine.iter().find(|m| m.plan == s.plan) {
                    Some(m) if (m.digest, m.work) != (s.digest, s.work) => errors.push(format!(
                        "{}: query {q} returned different rows/work on one plan in two clients",
                        spec.name
                    )),
                    Some(_) => {}
                    None => mine.push(s),
                }
            }
        }
        for (q, e) in log.errs {
            if errs.get(&q).is_some_and(|first| *first != e) {
                errors.push(format!("{}: query {q} failed differently", spec.name));
            }
            errs.entry(q).or_insert(e);
        }
    }
    recs.sort_by_key(|(pos, _)| *pos);
    check_against_row_engine(spec, world, &plans, errors);

    m.attempted = recs.len() as u64;
    m.failed = recs.iter().filter(|(_, r)| r.work.is_none()).count() as u64;
    // A pass's time is its clients' busy time: the sum of its requests'
    // latencies over the client count. With no pause between requests
    // that is the pass's wall time, less the benchmark's own bookkeeping
    // and host-speed samples.
    host.resize_with(recs.len().div_ceil(window.pass), HostSpeed::default);
    m.passes = recs
        .chunks(window.pass)
        .zip(host)
        .map(|(pass, host)| Pass {
            wall_s: pass.iter().map(|(_, r)| r.latency_ms / 1e3).sum::<f64>() / spec.clients as f64,
            ok_ms: pass
                .iter()
                .filter(|(_, r)| r.work.is_some())
                .map(|(_, r)| r.latency_ms)
                .collect(),
            host,
        })
        .collect();
    // Exact counts over the first pass (the window serves whole passes).
    let head = &recs[..window.pass.min(recs.len())];
    let work: u64 = head.iter().filter_map(|(_, r)| r.work).sum();
    let aborts = head.iter().filter(|(_, r)| r.work.is_none()).count();
    let layer = &mut m.layer;
    layer.set("exec.work", work as f64, "work");
    layer.set("exec.budget_aborts", aborts as f64, "count");
    // With one client the cache state at the end of the first pass is a
    // function of the stream; with more it depends on interleaving, so
    // the counters cover the whole window.
    let cache_end = after_first_pass.unwrap_or(after);
    cache_deltas(layer, &before, &cache_end);
    layer.set(
        "serve_fail_frac",
        m.failed as f64 / m.attempted.max(1) as f64,
        "ratio",
    );

    let totals = trace.totals();
    layer.set("sql.parse_us", trace::mean(&totals, "sql.parse", US), "us");
    layer.set(
        "query.bind_us",
        trace::mean(&totals, "query.bind", US),
        "us",
    );
    let window_work = recs.iter().filter_map(|(_, r)| r.work).sum();
    serve_layers(layer, &totals, window_work);
    m.trace = trace;
    m
}

/// The per-layer times of the spans `record_serve` writes.
pub fn serve_layers(layer: &mut Metrics, totals: &Totals, window_work: u64) {
    for (metric, span, unit_ns, unit) in [
        ("serve.probe_hit_us", "serve.probe_hit", US, "us"),
        ("opt.plan_miss_us", "opt.plan_miss", US, "us"),
        ("rejoin.plan_miss_us", "rejoin.plan_miss", US, "us"),
        ("exec.execute_us", "exec.execute", US, "us"),
        ("exec.abort_ms", "exec.abort", MS, "ms"),
    ] {
        layer.set(metric, trace::mean(totals, span, unit_ns), unit);
    }
    layer.set(
        "serve.serve_us",
        trace::mean_self(totals, "serve.serve_shared", US),
        "us",
    );
    let exec_us = trace::total_ns(totals, "exec.execute") as f64 / US;
    let per_us = if exec_us > 0.0 {
        window_work as f64 / exec_us
    } else {
        0.0
    };
    layer.set("exec.work_per_us", per_us, "work/us");
}

/// Every distinct plan a query was served with must return the same
/// rows and work on the row engine. (A failing query is checked against
/// its own first failure only: the row engine overshoots the budget by a
/// different amount and would materialize gigabytes to show the abort.)
fn check_against_row_engine(
    spec: &Spec,
    world: &World,
    plans: &HashMap<u32, Vec<Seen>>,
    errors: &mut Vec<String>,
) {
    let db = world.session.db();
    let config = ExecConfig::default();
    let jobs: Vec<(u32, &Seen)> = plans
        .iter()
        .flat_map(|(q, seen)| seen.iter().map(move |s| (*q, s)))
        .collect();
    let check = |&(q, s): &(u32, &Seen)| -> Option<String> {
        let graph = &world.queries[q as usize].1;
        match execute_rows(db, graph, &s.plan, config) {
            Ok(out) if (rows_digest(&out.rows), out.stats.work) == (s.digest, s.work) => None,
            Ok(out) => Some(format!(
                "{}: query {q}: served ({:x}, {}) but the row engine returns ({:x}, {})",
                spec.name,
                s.digest,
                s.work,
                rows_digest(&out.rows),
                out.stats.work
            )),
            Err(e) => Some(format!(
                "{}: query {q}: served rows but the row engine fails: {e}",
                spec.name
            )),
        }
    };
    // The row engine is an order of magnitude slower than the served
    // one, so the check uses both cores.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GATE_THREADS)
            .map(|t| {
                let (jobs, check) = (&jobs, &check);
                scope.spawn(move || {
                    jobs.iter()
                        .skip(t)
                        .step_by(GATE_THREADS)
                        .filter_map(check)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            errors.extend(h.join().expect("row-engine check panicked"));
        }
    });
}

pub fn run(spec: Spec, args: &Args) -> Outcome {
    let (world, setup_s, build_db_ms, gen_queries_ms) = setups(|host| setup(&spec, host));
    let stream = stream(world.queries.len(), args.seed);
    let pool_queries = world.queries.len();
    let pool_templates = world
        .queries
        .iter()
        .map(|(_, g)| template_fingerprint(g).0)
        .collect::<HashSet<_>>()
        .len();
    let mut errors = Vec::new();
    let plain = measure(&spec, &world, &stream, args.seconds, false, &mut errors);
    drop(world);
    let traced = args.trace.then(|| {
        let (world, _, _) = setup(&spec, &mut HostSpeed::default());
        measure(&spec, &world, &stream, args.seconds, true, &mut errors)
    });

    let mut table = Metrics::default();
    table.set("serve_p50_ms", plain.p50_ms(), "ms");
    table.set("serve_p99_ms", plain.p99_ms(), "ms");
    table.set("serve_ok_qps", plain.ok_per_s(), "1/s");
    if let Some((v, u)) = plain.layer.get("serve_fail_frac") {
        table.set("serve_fail_frac", v, u);
    }
    table.set("pool_queries", pool_queries as f64, "count");
    table.set("pool_templates", pool_templates as f64, "count");

    let mut exact = vec!["exec.work", "exec.budget_aborts"];
    if spec.clients == 1 {
        exact.extend([
            "serve.cache_hit_frac",
            "serve.cache_misses",
            "serve.cache_replans",
            "serve.cache_evictions",
            "serve.cache_invalidations",
            "serve.flight_waits",
        ]);
    }
    Outcome {
        setup_s,
        build_db_ms,
        gen_queries_ms,
        plain,
        traced,
        table,
        exact,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_stream() {
        let a = stream(113, 7);
        assert_eq!(a, stream(113, 7));
        assert_ne!(a[..113], stream(113, 8)[..113]);
        let mut pass = a[113..226].to_vec();
        pass.sort_unstable();
        assert_eq!(
            pass,
            (0..113).collect::<Vec<u32>>(),
            "a pass is a permutation"
        );
    }

    /// The exact counts of one seed repeat bit for bit. Slow in a debug
    /// build; run the tests with `--release`.
    #[test]
    fn one_seed_repeats_its_exact_counts() {
        let args = Args {
            workload: "job_adhoc".into(),
            seed: 3,
            seconds: 0.01,
            trace: false,
        };
        let a = run(JOB_ADHOC, &args);
        let b = run(JOB_ADHOC, &args);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert!(b.errors.is_empty(), "{:?}", b.errors);
        assert_eq!(a.plain.attempted, 1020, "one whole pass");
        for key in &a.exact {
            assert_eq!(a.plain.layer.get(key), b.plain.layer.get(key), "{key}");
        }
    }
}
