//! The `rejoin_train` workload: offline ReJOIN training as in Figure 3a.
//!
//! Each call trains a fresh agent for `EPISODES` episodes through
//! `train_parallel` with `WORKERS` workers; calls repeat until the window
//! is spent. Worker environments are wrapped in `TimedEnv`, which
//! forwards to `JoinOrderEnv` and times each episode (and, when traced,
//! each call into the environment).

use crate::host::HostSpeed;
use crate::metrics::{self, setups, Measured, Metrics, Outcome, Pass};
use crate::trace::{self, Spans, Trace, ROOT, US};
use crate::Args;
use hfqo::query::QueryGraph;
use hfqo::rejoin::{
    train_parallel, EnvContext, EpisodeOutcome, JoinOrderEnv, OutcomeEnv, PolicyKind, QueryOrder,
    ReJoinAgent, RewardMode, TrainerConfig,
};
use hfqo::rl::{Environment, ReinforceConfig, StepResult};
use hfqo::stats::StatsCatalog;
use hfqo::storage::Database;
use hfqo::workload::imdb::{build_imdb, ImdbConfig};
use hfqo::workload::job::generate_job_suite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::mpsc;
use std::time::Instant;

/// The Figure 3a quick scale: `title` rows, episodes per call, and the
/// moving-average window of the reported cost ratio.
const BASE_ROWS: usize = 1_500;
const EPISODES: usize = 3_000;
const MA_WINDOW: usize = 100;
const WORKERS: usize = 2;
/// The database and suite are fixed; the workload seed drives the
/// agent's initial weights and the episode schedule.
const DATA_SEED: u64 = 42;

pub struct World {
    db: Database,
    stats: StatsCatalog,
    queries: Vec<QueryGraph>,
}

fn setup() -> (World, f64, f64) {
    let t0 = trace::now();
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: BASE_ROWS,
        seed: DATA_SEED,
    });
    let t1 = trace::now();
    let queries = generate_job_suite(db.catalog(), DATA_SEED ^ 0x10B)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    let t2 = trace::now();
    (
        World { db, stats, queries },
        trace::secs(t0, t1) * 1e3,
        trace::secs(t1, t2) * 1e3,
    )
}

/// The ReJOIN prototype's policy: two 128-unit hidden layers,
/// REINFORCE with a baseline.
fn policy() -> PolicyKind {
    PolicyKind::Reinforce(ReinforceConfig {
        hidden: vec![128, 128],
        lr: 1e-3,
        entropy_coef: 0.01,
        batch_episodes: 8,
        ..Default::default()
    })
}

/// Episodes a worker runs between two host-speed samples, which it takes
/// itself, between episodes.
const HOST_EVERY: usize = 16;

/// What a worker environment hands back when it is dropped.
struct Collected {
    episode_ms: Vec<f64>,
    spans: Spans,
    host: HostSpeed,
}

/// Forwards to `JoinOrderEnv`, timing episodes (always) and every call
/// into the environment (when traced). `state_features` and
/// `action_mask` take `&self`, hence the `RefCell`.
struct TimedEnv<'a> {
    inner: JoinOrderEnv<'a>,
    spans: RefCell<Spans>,
    worker: u64,
    /// Span id and start of the running episode.
    episode: Option<(u64, Instant)>,
    episode_ms: Vec<f64>,
    host: HostSpeed,
    sink: mpsc::Sender<Collected>,
}

impl<'a> TimedEnv<'a> {
    fn request(&self) -> u64 {
        self.worker << 32 | self.episode_ms.len() as u64
    }

    /// Runs `f`, recording it as a child span of the running episode.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.spans.borrow().enabled() {
            return f();
        }
        let t0 = trace::now();
        let out = f();
        let parent = self.episode.map_or(ROOT, |(id, _)| id);
        self.spans
            .borrow_mut()
            .leaf(parent, name, self.request(), t0, trace::now());
        out
    }
}

impl Environment for TimedEnv<'_> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn reset(&mut self, rng: &mut StdRng) {
        if self.episode_ms.len() % HOST_EVERY == 0 {
            self.host.sample();
        }
        let request = self.request();
        let spans = self.spans.get_mut();
        let id = spans.id();
        let t0 = trace::now();
        self.inner.reset(rng);
        spans.leaf(id, "rejoin.env_reset", request, t0, trace::now());
        self.episode = Some((id, t0));
    }

    fn state_features(&self, out: &mut Vec<f32>) {
        self.timed("rejoin.env_features", || self.inner.state_features(out));
    }

    fn action_mask(&self, out: &mut Vec<bool>) {
        self.timed("rejoin.env_features", || self.inner.action_mask(out));
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> StepResult {
        let t0 = self.spans.get_mut().enabled().then(trace::now);
        let result = self.inner.step(action, rng);
        if t0.is_none() && !result.done {
            return result;
        }
        let t1 = trace::now();
        let request = self.request();
        let parent = self.episode.map_or(ROOT, |(id, _)| id);
        let spans = self.spans.get_mut();
        if let Some(t0) = t0 {
            spans.leaf(parent, "rejoin.env_step", request, t0, t1);
        }
        if result.done {
            if let Some((id, start)) = self.episode.take() {
                spans.record(id, ROOT, "rejoin.episode", request, start, t1);
                self.episode_ms.push(trace::secs(start, t1) * 1e3);
            }
        }
        result
    }

    fn is_terminal(&self) -> bool {
        self.inner.is_terminal()
    }
}

impl OutcomeEnv for TimedEnv<'_> {
    fn episode_outcome(&self) -> Option<&EpisodeOutcome> {
        self.inner.episode_outcome()
    }

    fn set_query_order(&mut self, order: QueryOrder) {
        self.inner.set_query_order(order);
    }

    fn query_order(&self) -> QueryOrder {
        self.inner.query_order()
    }

    fn workload_len(&self) -> usize {
        self.inner.workload_len()
    }
}

impl Drop for TimedEnv<'_> {
    fn drop(&mut self) {
        let spans = std::mem::replace(self.spans.get_mut(), Spans::new(false, trace::now(), 0));
        // The receiver outlives every environment; a failed send can
        // only follow a panic that already fails the run.
        let _ = self.sink.send(Collected {
            episode_ms: std::mem::take(&mut self.episode_ms),
            spans,
            host: std::mem::take(&mut self.host),
        });
    }
}

fn join_env(world: &World) -> JoinOrderEnv<'_> {
    let max_rels = world
        .queries
        .iter()
        .map(QueryGraph::relation_count)
        .max()
        .unwrap_or(2)
        .max(2);
    let ctx = EnvContext::new(&world.db, &world.stats);
    let mut env = JoinOrderEnv::new(
        ctx,
        &world.queries,
        max_rels,
        QueryOrder::Shuffle,
        RewardMode::LogRelative,
    );
    // As in Figure 3a: only pairs connected by a join predicate.
    env.require_connected = true;
    env
}

/// One training call. Returns the final moving-average geometric cost
/// ratio, the log length, and the call's wall time.
fn train_once(
    world: &World,
    seed: u64,
    workers: usize,
    traced: bool,
    origin: Instant,
    sink: &mpsc::Sender<Collected>,
) -> (f64, usize, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let probe = join_env(world);
    let mut agent = ReJoinAgent::new(probe.state_dim(), probe.action_dim(), policy(), &mut rng);
    let start = trace::now();
    let log = train_parallel(
        |w| TimedEnv {
            inner: join_env(world),
            spans: RefCell::new(Spans::new(traced, origin, w as u64 + 1)),
            worker: w as u64,
            episode: None,
            episode_ms: Vec::new(),
            host: HostSpeed::default(),
            sink: sink.clone(),
        },
        &mut agent,
        TrainerConfig::new(EPISODES).with_workers(workers),
        &mut rng,
    );
    let wall = trace::secs(start, trace::now());
    let ratio = log.final_geo_ratio(MA_WINDOW).unwrap_or(f64::NAN);
    (ratio, log.len(), wall)
}

/// Training calls until `seconds` of timed wall are spent. A call is a
/// pass; its time is its wall time less the workers' host-speed samples.
fn measure(world: &World, args: &Args, traced: bool, errors: &mut Vec<String>) -> Measured {
    let (sink, collected) = mpsc::channel();
    let origin = trace::now();
    let mut wall_s = 0.0;
    let mut calls = Vec::new();
    let mut passes = Vec::new();
    let mut trace = Trace::default();
    while calls.is_empty() || wall_s < args.seconds {
        let (ratio, len, wall) = train_once(world, args.seed, WORKERS, traced, origin, &sink);
        wall_s += wall;
        calls.push((ratio, len));
        // The call's environments were dropped when it returned.
        let mut pass = Pass::default();
        for c in collected.try_iter() {
            pass.ok_ms.extend(c.episode_ms);
            pass.host.extend(&c.host);
            trace.absorb(c.spans);
        }
        pass.wall_s = wall - pass.host.total_ms() / 1e3 / WORKERS as f64;
        passes.push(pass);
    }
    let first = calls[0].0;
    for (i, &(ratio, len)) in calls.iter().enumerate() {
        if len != EPISODES {
            errors.push(format!(
                "rejoin_train: call {i} logged {len} of {EPISODES} episodes"
            ));
        }
        if !ratio.is_finite() {
            errors.push(format!(
                "rejoin_train: call {i} ended with cost ratio {ratio}"
            ));
        }
        if ratio.to_bits() != first.to_bits() {
            errors.push(format!(
                "rejoin_train: call {i} of one seed ended at cost ratio {ratio}, call 0 at {first}"
            ));
        }
    }
    let episodes = calls.len() * EPISODES;
    let timed: usize = passes.iter().map(|p| p.ok_ms.len()).sum();
    if timed != episodes {
        errors.push(format!(
            "rejoin_train: timed {timed} episodes of {episodes}"
        ));
    }
    let mut m = Measured {
        passes,
        attempted: episodes as u64,
        failed: 0,
        peak_rss_mb: metrics::peak_rss_mb(),
        ..Measured::default()
    };
    let totals = trace.totals();
    let env_ns: u64 = ["rejoin.env_reset", "rejoin.env_step", "rejoin.env_features"]
        .iter()
        .map(|n| trace::total_ns(&totals, n))
        .sum();
    let worker_ns = m.wall_s() * 1e9 * WORKERS as f64;
    let layer = &mut m.layer;
    layer.set(
        "train_cost_ratio",
        if first.is_finite() { first } else { 0.0 },
        "ratio",
    );
    if traced {
        layer.set(
            "rejoin.env_step_us",
            trace::mean(&totals, "rejoin.env_step", US),
            "us",
        );
        layer.set(
            "rejoin.env_features_us",
            trace::mean(&totals, "rejoin.env_features", US),
            "us",
        );
        layer.set("rejoin.env_busy_frac", env_ns as f64 / worker_ns, "ratio");
        layer.set(
            "rl.agent_us_per_episode",
            (worker_ns - env_ns as f64) / US / episodes as f64,
            "us",
        );
    }
    m.trace = trace;
    m
}

pub fn run(args: &Args) -> Outcome {
    let (world, setup_s, build_db_ms, gen_queries_ms) = setups(|_| setup());
    let mut errors = Vec::new();
    let plain = measure(&world, args, false, &mut errors);
    let traced = args.trace.then(|| {
        let mut traced = measure(&world, args, true, &mut errors);
        // The same training on one worker, for comparison with
        // `ok_per_s`: on the reference host too.
        let (sink, collected) = mpsc::channel();
        let (_, _, wall) = train_once(&world, args.seed, 1, false, trace::now(), &sink);
        let mut host = HostSpeed::default();
        for c in collected.try_iter() {
            host.extend(&c.host);
        }
        let timed_s = wall - host.total_ms() / 1e3;
        traced.layer.set(
            "rl.workers1_eps_per_s",
            EPISODES as f64 / timed_s / host.scale(),
            "1/s",
        );
        traced
    });
    let mut table = Metrics::default();
    table.set("train_eps_per_s", plain.ok_per_s(), "1/s");
    table.set("episode_p50_ms", plain.p50_ms(), "ms");
    table.set("episode_p99_ms", plain.p99_ms(), "ms");
    if let Some((v, u)) = plain.layer.get("train_cost_ratio") {
        table.set("train_cost_ratio", v, u);
    }
    Outcome {
        setup_s,
        build_db_ms,
        gen_queries_ms,
        plain,
        traced,
        table,
        exact: vec!["train_cost_ratio"],
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed fixes the training run's cost ratio; another seed changes
    /// it. Run with `--release`.
    #[test]
    fn the_seed_fixes_the_training_run() {
        let (world, _, _) = setup();
        let ratio = |seed| {
            let (sink, _collected) = mpsc::channel();
            let (ratio, len, _) = train_once(&world, seed, WORKERS, false, trace::now(), &sink);
            assert_eq!(len, EPISODES);
            ratio
        };
        let a = ratio(3);
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), ratio(3).to_bits());
        assert_ne!(a.to_bits(), ratio(4).to_bits());
    }
}
