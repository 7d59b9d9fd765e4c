//! The `online_drift` workload: serving beside learning and data change.
//!
//! One client serves rounds of the drift scenario's templates through an
//! online-learning session, calls `OnlineTrainer::step` after each round,
//! and every `SHOCK_EVERY` rounds lands the next shock of the battery
//! through `apply_mutation` and `refresh_after_mutation`. An expert
//! session over the same data gives the reference rows and work for each
//! data version; it runs with the clock paused.

use crate::host::HostSpeed;
use crate::metrics::{self, setups, Measured, Metrics, Outcome, Pass};
use crate::serving::{cache_deltas, record_serve, rows_digest, serve_layers, shuffle};
use crate::trace::{self, Spans, Trace, MS, ROOT};
use crate::Args;
use hfqo::query::QueryGraph;
use hfqo::rejoin::{Featurizer, PolicyKind, ReJoinAgent};
use hfqo::serve::{CacheMetrics, OnlineConfig, OnlineTrainer, QuerySession};
use hfqo::workload::{apply_mutation, DriftScenario, Shock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Serve rounds between two shocks.
const SHOCK_EVERY: usize = 20;

/// Serve rounds between two host-speed samples.
const HOST_EVERY: usize = 4;

pub struct World {
    learned: QuerySession,
    expert: QuerySession,
    trainer: OnlineTrainer,
    queries: Vec<Arc<QueryGraph>>,
    battery: Vec<Shock>,
}

/// The `DriftScenario::imdb_job` world: data, templates, shock battery,
/// harness knobs and agent seed as the scenario fixes them. The scenario
/// builds data and queries in one call, so `build_db_ms` covers both.
fn setup() -> (World, f64, f64) {
    let t0 = trace::now();
    let scenario = DriftScenario::imdb_job();
    let built_ms = trace::secs(t0, trace::now()) * 1e3;
    let config = scenario.config;
    let expert = QuerySession::traditional(scenario.db.clone(), scenario.stats.clone())
        .with_exec_config(config.exec);
    let mut learned =
        QuerySession::traditional(scenario.db, scenario.stats).with_exec_config(config.exec);
    let featurizer = Featurizer::new(config.max_rels);
    let agent = ReJoinAgent::new(
        featurizer.state_dim(),
        featurizer.action_dim(),
        PolicyKind::default_reinforce(),
        &mut StdRng::seed_from_u64(config.agent_seed),
    );
    let online = OnlineConfig {
        swap_every: config.swap_every,
        drain_batch: config.drain_batch,
        ms_per_unit: config.ms_per_unit,
        ..OnlineConfig::default()
    };
    let trainer = OnlineTrainer::attach(&mut learned, agent, featurizer, true, online);
    let world = World {
        learned,
        expert,
        trainer,
        queries: scenario.queries.into_iter().map(Arc::new).collect(),
        battery: scenario.shocks,
    };
    (world, built_ms, 0.0)
}

/// The expert's `(rows digest, work)` per served template.
fn reference(world: &World) -> Vec<(u64, u64)> {
    world
        .queries
        .iter()
        .map(|q| {
            let served = world
                .expert
                .serve_shared(Arc::clone(q))
                .expect("the expert serves every template");
            (rows_digest(&served.outcome.rows), served.outcome.stats.work)
        })
        .collect()
}

struct Rec {
    pass: usize,
    round: usize,
    /// Index into the run's data versions.
    version: usize,
    query: usize,
    latency_ms: f64,
    /// `Some((digest, work))` for a successful serve.
    ok: Option<(u64, u64)>,
}

struct StepRec {
    pass: usize,
    ms: f64,
    drained: usize,
    trained: usize,
    swaps: usize,
}

/// Serve rounds per pass: a warm-up, then `SHOCK_EVERY` rounds after
/// each shock of the battery.
fn rounds_per_pass(world: &World) -> usize {
    SHOCK_EVERY * (world.battery.len() + 1)
}

/// The timed window: whole passes, each over a fresh world, until
/// `seconds` of timed wall are spent. A pass serves rounds, steps the
/// trainer after each round, and lands the battery's shocks in order.
/// Building a world, the expert side and the host-speed samples run with
/// the clock paused.
fn measure(
    mut world: World,
    seed: u64,
    seconds: f64,
    traced: bool,
    errors: &mut Vec<String>,
) -> Measured {
    let mut order_rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = Vec::new();
    let origin = trace::now();
    let mut spans = Spans::new(traced, origin, 1);
    let mut recs: Vec<Rec> = Vec::new();
    let mut steps: Vec<StepRec> = Vec::new();
    let mut refs = vec![reference(&world)];
    let mut cache_first_pass: Option<(CacheMetrics, CacheMetrics)> = None;
    let mut passes: Vec<Pass> = Vec::new();
    // Timed wall and host samples of the pass in progress.
    let mut timed_s = 0.0;
    let mut host = HostSpeed::default();
    let mut segment = trace::now();
    let mut pass = 0;
    let mut round = 0;
    let before = world.learned.cache_metrics();
    loop {
        if round == rounds_per_pass(&world) {
            timed_s += trace::secs(segment, trace::now());
            passes.push(Pass {
                wall_s: std::mem::take(&mut timed_s),
                ok_ms: Vec::new(),
                host: std::mem::take(&mut host),
            });
            if pass == 0 {
                cache_first_pass = Some((before, world.learned.cache_metrics()));
            }
            if passes.iter().map(|p| p.wall_s).sum::<f64>() >= seconds {
                break;
            }
            world = setup().0;
            refs.push(reference(&world));
            pass += 1;
            round = 0;
            segment = trace::now();
        }
        let round_id = spans.id();
        let round_start = trace::now();
        // Each round serves every template once, in a seeded order.
        order.clear();
        order.extend(0..world.queries.len());
        shuffle(&mut order, &mut order_rng);
        for &qi in &order {
            let q = &world.queries[qi];
            let req = recs.len() as u64;
            let root = spans.id();
            let t0 = trace::now();
            let result = world.learned.serve_shared(Arc::clone(q));
            let t1 = trace::now();
            record_serve(&mut spans, root, req, t0, t1, &result);
            spans.record(root, round_id, "request", req, t0, t1);
            recs.push(Rec {
                pass,
                round,
                version: refs.len() - 1,
                query: qi,
                latency_ms: trace::secs(t0, t1) * 1e3,
                ok: result
                    .ok()
                    .map(|s| (rows_digest(&s.outcome.rows), s.outcome.stats.work)),
            });
        }
        let t0 = trace::now();
        let step = world.trainer.step(&world.learned);
        let t1 = trace::now();
        spans.leaf(round_id, "serve.online_step", round as u64, t0, t1);
        steps.push(StepRec {
            pass,
            ms: trace::secs(t0, t1) * 1e3,
            drained: step.drained,
            trained: step.trained,
            swaps: step.swaps,
        });
        round += 1;
        if round % SHOCK_EVERY == 0 && round / SHOCK_EVERY <= world.battery.len() {
            let shock = world.battery[round / SHOCK_EVERY - 1].clone();
            for m in &shock.mutations {
                let t0 = trace::now();
                apply_mutation(world.learned.db_mut(), m).expect("valid mutation script");
                spans.leaf(round_id, "storage.mutation", round as u64, t0, trace::now());
            }
            let t0 = trace::now();
            world
                .learned
                .refresh_after_mutation()
                .expect("learned refresh");
            spans.leaf(round_id, "serve.refresh", round as u64, t0, trace::now());
            world
                .queries
                .extend(shock.new_queries.iter().cloned().map(Arc::new));
            timed_s += trace::secs(segment, trace::now());
            for m in &shock.mutations {
                apply_mutation(world.expert.db_mut(), m).expect("valid mutation script");
            }
            world
                .expert
                .refresh_after_mutation()
                .expect("expert refresh");
            refs.push(reference(&world));
            segment = trace::now();
        }
        spans.record(
            round_id,
            ROOT,
            "round",
            round as u64,
            round_start,
            trace::now(),
        );
        if round % HOST_EVERY == 0 {
            timed_s += trace::secs(segment, trace::now());
            host.sample();
            segment = trace::now();
        }
    }
    for r in &recs {
        if r.ok.is_some() {
            passes[r.pass].ok_ms.push(r.latency_ms);
        }
    }
    let (cache_before, cache_after) = cache_first_pass.expect("the window ends after a pass");

    // Every learned serve returns the expert's rows for its data version.
    for r in &recs {
        if let Some((digest, _)) = r.ok {
            if digest != refs[r.version][r.query].0 {
                errors.push(format!(
                    "online_drift: pass {} round {} template {} returned rows that differ \
                     from the expert's",
                    r.pass, r.round, r.query
                ));
            }
        }
    }

    let mut m = Measured {
        passes,
        peak_rss_mb: metrics::peak_rss_mb(),
        attempted: recs.len() as u64,
        failed: recs.iter().filter(|r| r.ok.is_none()).count() as u64,
        ..Measured::default()
    };
    // Exact counts over the first pass.
    let head: Vec<&Rec> = recs.iter().filter(|r| r.pass == 0).collect();
    let learned_work: u64 = head.iter().filter_map(|r| r.ok.map(|o| o.1)).sum();
    let expert_work: u64 = head
        .iter()
        .filter(|r| r.ok.is_some())
        .map(|r| refs[r.version][r.query].1)
        .sum();
    let head_steps: Vec<&StepRec> = steps.iter().filter(|s| s.pass == 0).collect();
    let drained: usize = head_steps.iter().map(|s| s.drained).sum();
    let trained: usize = head_steps.iter().map(|s| s.trained).sum();
    let swaps: usize = head_steps.iter().map(|s| s.swaps).sum();

    let layer = &mut m.layer;
    layer.set("exec.work", learned_work as f64, "work");
    layer.set(
        "exec.budget_aborts",
        head.iter().filter(|r| r.ok.is_none()).count() as f64,
        "count",
    );
    layer.set(
        "plan_work_ratio",
        learned_work as f64 / expert_work.max(1) as f64,
        "ratio",
    );
    layer.set("serve.swaps", swaps as f64, "count");
    layer.set(
        "rejoin.replay_trained_frac",
        trained as f64 / drained.max(1) as f64,
        "ratio",
    );
    cache_deltas(layer, &cache_before, &cache_after);
    layer.set(
        "serve_fail_frac",
        m.failed as f64 / m.attempted.max(1) as f64,
        "ratio",
    );
    let mut step_ms: Vec<f64> = steps.iter().map(|s| s.ms).collect();
    layer.set("online_step_ms", trace::median(&mut step_ms), "ms");
    let all_trained: usize = steps.iter().map(|s| s.trained).sum();
    let step_total_ms: f64 = steps.iter().map(|s| s.ms).sum();
    layer.set(
        "rejoin.replay_us_per_episode",
        step_total_ms * 1e3 / all_trained.max(1) as f64,
        "us",
    );

    let mut trace = Trace::default();
    trace.absorb(spans);
    let totals = trace.totals();
    let layer = &mut m.layer;
    let window_work = recs.iter().filter_map(|r| r.ok.map(|o| o.1)).sum();
    serve_layers(layer, &totals, window_work);
    layer.set(
        "serve.refresh_ms",
        trace::mean(&totals, "serve.refresh", MS),
        "ms",
    );
    layer.set(
        "storage.mutation_ms",
        trace::mean(&totals, "storage.mutation", MS),
        "ms",
    );
    m.trace = trace;
    m
}

pub fn run(args: &Args) -> Outcome {
    let (world, setup_s, build_db_ms, gen_queries_ms) = setups(|_| setup());
    let mut errors = Vec::new();
    let plain = measure(world, args.seed, args.seconds, false, &mut errors);
    let traced = args
        .trace
        .then(|| measure(setup().0, args.seed, args.seconds, true, &mut errors));
    let mut table = Metrics::default();
    table.set("serve_p50_ms", plain.p50_ms(), "ms");
    table.set("serve_p99_ms", plain.p99_ms(), "ms");
    table.set("serve_ok_qps", plain.ok_per_s(), "1/s");
    for key in ["serve_fail_frac", "online_step_ms", "plan_work_ratio"] {
        if let Some((v, u)) = plain.layer.get(key) {
            table.set(key, v, u);
        }
    }
    Outcome {
        setup_s,
        build_db_ms,
        gen_queries_ms,
        plain,
        traced,
        table,
        exact: vec![
            "exec.work",
            "exec.budget_aborts",
            "plan_work_ratio",
            "serve.swaps",
            "rejoin.replay_trained_frac",
            "serve.cache_hit_frac",
            "serve.cache_misses",
            "serve.cache_replans",
            "serve.cache_evictions",
            "serve.cache_invalidations",
            "serve.flight_waits",
        ],
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed repeats its exact counts; another seed serves the rounds
    /// in another order. Run with `--release`.
    #[test]
    fn the_seed_fixes_the_stream_and_the_counts() {
        let args = |seed| Args {
            workload: "online_drift".into(),
            seed,
            seconds: 0.01,
            trace: false,
        };
        let a = run(&args(3));
        let b = run(&args(3));
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert!(b.errors.is_empty(), "{:?}", b.errors);
        for key in &a.exact {
            assert_eq!(a.plain.layer.get(key), b.plain.layer.get(key), "{key}");
        }
        let first_round = |seed| {
            let mut order: Vec<usize> = (0..10).collect();
            shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
            order
        };
        assert_eq!(first_round(3), first_round(3));
        assert_ne!(first_round(3), first_round(4));
    }
}
