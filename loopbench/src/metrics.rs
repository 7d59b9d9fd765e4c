//! Metric names, the per-run result types, and the result line.

use crate::host::HostSpeed;
use crate::trace::{self, Trace};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["job_warm", "job_adhoc", "online_drift", "rejoin_train"];

/// End-to-end metrics, printed by every untraced run. An "op" is one
/// served query on the serving workloads and one training episode on
/// `rejoin_train`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ok_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that a
/// workload does not exercise reads 0 there. `p99_ms` is the untraced
/// window's end-to-end tail, reported here without a bound: on
/// `job_warm` it is the single heaviest successful query. Per-layer
/// times are wall times, not scaled to the reference host.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("p99_ms", "ms"),
    ("sql.parse_us", "us"),
    ("query.bind_us", "us"),
    ("serve.serve_us", "us"),
    ("serve.probe_hit_us", "us"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.cache_replans", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_invalidations", "count"),
    ("serve.flight_waits", "count"),
    ("serve.swaps", "count"),
    ("serve.refresh_ms", "ms"),
    ("serve_fail_frac", "ratio"),
    ("opt.plan_miss_us", "us"),
    ("rejoin.plan_miss_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.work_per_us", "work/us"),
    ("exec.abort_ms", "ms"),
    ("exec.work", "work"),
    ("exec.budget_aborts", "count"),
    ("online_step_ms", "ms"),
    ("rejoin.replay_us_per_episode", "us"),
    ("rejoin.replay_trained_frac", "ratio"),
    ("plan_work_ratio", "ratio"),
    ("storage.mutation_ms", "ms"),
    ("rejoin.env_step_us", "us"),
    ("rejoin.env_features_us", "us"),
    ("rejoin.env_busy_frac", "ratio"),
    ("rl.agent_us_per_episode", "us"),
    ("rl.workers1_eps_per_s", "1/s"),
    ("train_cost_ratio", "ratio"),
    ("workload.build_db_ms", "ms"),
    ("workload.gen_queries_ms", "ms"),
    ("trace.overhead_p50_frac", "ratio"),
    ("trace.overhead_ok_per_s_frac", "ratio"),
];

/// Named values with units, in name order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// One pass of a timed window: each query of the pool once on
/// `job_warm` and `job_adhoc`, the warm-up and every shock of the battery
/// on `online_drift`, one training call on `rejoin_train`. Every pass of a
/// run does the same mix of ops.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Timed wall of the pass, in seconds.
    pub wall_s: f64,
    /// Wall latency of each successful op, in ms.
    pub ok_ms: Vec<f64>,
    /// The host's speed beside the pass.
    pub host: HostSpeed,
}

/// One timed window of closed-loop operations.
#[derive(Default)]
pub struct Measured {
    /// The window's passes, in order; every pass is whole.
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans (empty when untraced).
    pub trace: Trace,
    /// Per-layer values: counts in both runs, times only when traced.
    pub layer: Metrics,
    /// `VmHWM` when the window ended, before the result checks (the
    /// row-engine reference would otherwise set it).
    pub peak_rss_mb: f64,
}

impl Measured {
    fn ok_ms(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.ok_ms.iter().copied())
            .collect()
    }

    /// The host's speed over the whole window.
    pub fn host(&self) -> HostSpeed {
        let mut host = HostSpeed::default();
        for p in &self.passes {
            host.extend(&p.host);
        }
        host
    }

    /// Timed wall of the whole window, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    /// Median wall latency of successful ops, in ms.
    pub fn wall_p50_ms(&self) -> f64 {
        trace::percentile(&mut self.ok_ms(), 50.0)
    }

    /// Successful ops per second of timed wall.
    pub fn wall_ok_per_s(&self) -> f64 {
        let wall = self.wall_s();
        if wall > 0.0 {
            self.ok_ms().len() as f64 / wall
        } else {
            0.0
        }
    }

    /// Latencies of successful ops on the reference host, each scaled by
    /// its own pass's host speed.
    fn scaled_ok_ms(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| {
                let scale = p.host.scale();
                p.ok_ms.iter().map(move |ms| ms * scale)
            })
            .collect()
    }

    /// Median latency of successful ops on the reference host.
    pub fn p50_ms(&self) -> f64 {
        trace::percentile(&mut self.scaled_ok_ms(), 50.0)
    }

    /// The 99th percentile on the reference host.
    pub fn p99_ms(&self) -> f64 {
        trace::percentile(&mut self.scaled_ok_ms(), 99.0)
    }

    /// Successful ops per second of timed wall on the reference host.
    pub fn ok_per_s(&self) -> f64 {
        let ok: usize = self.passes.iter().map(|p| p.ok_ms.len()).sum();
        let wall: f64 = self.passes.iter().map(|p| p.wall_s * p.host.scale()).sum();
        if wall > 0.0 {
            ok as f64 / wall
        } else {
            0.0
        }
    }
}

/// Everything one invocation measured.
#[derive(Default)]
pub struct Outcome {
    /// Median set-up time over the run's set-ups, on the reference host.
    pub setup_s: f64,
    pub build_db_ms: f64,
    pub gen_queries_ms: f64,
    /// The untraced window: the end-to-end metrics come from here.
    pub plain: Measured,
    /// The traced window (only with `--trace 1`).
    pub traced: Option<Measured>,
    /// The workload's own names for its end-to-end numbers.
    pub table: Metrics,
    /// Per-layer keys that must be identical in both windows of a seed.
    pub exact: Vec<&'static str>,
    /// Correctness violations; any one fails the run.
    pub errors: Vec<String>,
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken less than `MIN_SETUP_S` (a cheap set-up's median needs more
/// samples to be steady).
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 2.0;
const MAX_SETUPS: usize = 64;

/// Host-speed samples taken just before and just after each set-up.
const HOST_SAMPLES_PER_SETUP: usize = 3;

/// Runs the set-up repeatedly; returns the world the last one built, the
/// median set-up time on the reference host (each set-up scaled by the
/// samples taken around it, and by any the set-up takes itself, whose
/// time is not counted), and the median wall times
/// `(build_db_ms, gen_queries_ms)`.
pub fn setups<W>(mut setup: impl FnMut(&mut HostSpeed) -> (W, f64, f64)) -> (W, f64, f64, f64) {
    let (mut total, mut db, mut gen) = (Vec::new(), Vec::new(), Vec::new());
    let mut scaled = Vec::new();
    let mut world = None;
    while total.len() < MIN_SETUPS
        || (total.iter().sum::<f64>() < MIN_SETUP_S && total.len() < MAX_SETUPS)
    {
        let mut host = HostSpeed::default();
        for _ in 0..HOST_SAMPLES_PER_SETUP {
            host.sample();
        }
        let outside_ms = host.total_ms();
        let start = trace::now();
        let (w, db_ms, gen_ms) = setup(&mut host);
        let secs = trace::secs(start, trace::now()) - (host.total_ms() - outside_ms) / 1e3;
        total.push(secs);
        db.push(db_ms);
        gen.push(gen_ms);
        // The previous world is dropped after this set-up was timed.
        world = Some(w);
        for _ in 0..HOST_SAMPLES_PER_SETUP {
            host.sample();
        }
        scaled.push(secs * host.scale());
    }
    (
        world.expect("at least one set-up"),
        trace::median(&mut scaled),
        trace::median(&mut db),
        trace::median(&mut gen),
    )
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(valid_name(name), "metric name {name:?}");
            // JSON has no NaN or infinity; a non-finite value is a bug.
            assert!(value.is_finite(), "metric {name} = {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    /// The names the code emits are the names `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to loopbench/");
        let declared = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        assert_eq!(
            declared("workloads"),
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn end_to_end_times_scale_each_pass_by_its_host_speed() {
        use crate::host::REFERENCE_KERNEL_MS as REF;
        let pass = |wall_s, ok_ms: &[f64], kernel_ms| Pass {
            wall_s,
            ok_ms: ok_ms.to_vec(),
            host: HostSpeed::from_samples(vec![kernel_ms]),
        };
        let m = Measured {
            passes: vec![
                pass(1.0, &[1.0, 2.0, 9.0], REF),
                pass(2.0, &[4.0, 6.0, 8.0], 2.0 * REF),
                pass(1.0, &[5.0, 5.0, 5.0], REF),
            ],
            ..Measured::default()
        };
        // On the reference host: 1 2 9 | 2 3 4 | 5 5 5, over 1 + 1 + 1 s.
        assert_eq!(m.p50_ms(), 4.0);
        assert_eq!(m.p99_ms(), 9.0);
        assert_eq!(m.ok_per_s(), 3.0);
        assert_eq!(m.wall_p50_ms(), 5.0);
        assert_eq!(m.wall_ok_per_s(), 9.0 / 4.0);
        assert_eq!(m.wall_s(), 4.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 1, &[("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
