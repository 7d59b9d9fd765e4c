//! One benchmark for the serve → plan → learn loop.
//!
//! ```text
//! loopbench --workload <job_warm|job_adhoc|online_drift|rejoin_train>
//!           --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Every workload is a closed loop generated in this process from the
//! seed. The untraced run prints the end-to-end metrics; the traced run
//! repeats the measurement with spans recorded around each call into the
//! system and prints the per-layer metrics, plus the tracing overhead
//! (traced minus untraced). End-to-end times are scaled to a reference
//! host by a calibration kernel run beside them (see `host`); the wall
//! figures are printed too. Served results are checked against a
//! reference after the timed window; any mismatch prints
//! `"correct": false` and exits with code 1. `RATIONALE.md` says why each
//! workload exists and which metric each layer should move.

mod drift;
mod host;
mod metrics;
mod serving;
mod trace;
mod train;

use metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use std::path::Path;

const USAGE: &str = "usage: loopbench --workload <job_warm|job_adhoc|online_drift|rejoin_train> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "job_warm" => serving::run(serving::JOB_WARM, args),
        "job_adhoc" => serving::run(serving::JOB_ADHOC, args),
        "online_drift" => drift::run(args),
        "rejoin_train" => train::run(args),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = run(&args);
    if outcome.plain.attempted == 0 {
        outcome
            .errors
            .push("the timed window attempted no operation".to_string());
    }

    let plain = &outcome.plain;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", outcome.setup_s, "s");
    e2e.set("p50_ms", plain.p50_ms(), "ms");
    e2e.set("ok_per_s", plain.ok_per_s(), "1/s");
    e2e.set("peak_rss_mb", plain.peak_rss_mb, "MB");

    // The workload's own names for the end-to-end numbers, for readers.
    println!(
        "# {} seed={} ops={} failed={} timed={:.3}s",
        args.workload,
        args.seed,
        plain.attempted,
        plain.failed,
        plain.wall_s()
    );
    println!(
        "# wall p50={:.6}ms ok/s={:.3}; host kernel {:.4}ms (reference {}ms)",
        plain.wall_p50_ms(),
        plain.wall_ok_per_s(),
        plain.host().kernel_ms(),
        host::REFERENCE_KERNEL_MS
    );
    for (name, (value, unit)) in e2e.iter().chain(outcome.table.iter()) {
        println!("{name:<28} {value:>16.6} {unit}");
    }

    let mut layer = Metrics::default();
    if let Some(traced) = &outcome.traced {
        layer = traced.layer.clone();
        // Exact counts must repeat bit for bit between the two runs.
        for key in &outcome.exact {
            let (a, b) = (plain.layer.get(key), traced.layer.get(key));
            if a != b {
                outcome.errors.push(format!(
                    "exact count {key} differs between runs of one seed: {a:?} vs {b:?}"
                ));
            }
        }
        let overhead = |t: f64, u: f64| if u > 0.0 { (t - u) / u } else { 0.0 };
        layer.set(
            "trace.overhead_p50_frac",
            overhead(traced.p50_ms(), plain.p50_ms()),
            "ratio",
        );
        layer.set(
            "trace.overhead_ok_per_s_frac",
            overhead(traced.ok_per_s(), plain.ok_per_s()),
            "ratio",
        );
        layer.set("p99_ms", plain.p99_ms(), "ms");
        layer.set("workload.build_db_ms", outcome.build_db_ms, "ms");
        layer.set("workload.gen_queries_ms", outcome.gen_queries_ms, "ms");
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match traced.trace.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "trace: {} spans -> {}",
                traced.trace.spans.len(),
                path.display()
            ),
            Err(e) => outcome
                .errors
                .push(format!("writing {}: {e}", path.display())),
        }
        println!("# per-layer");
        for (name, unit) in PER_LAYER {
            let value = layer.get(name).map_or(0.0, |(v, _)| v);
            println!("{name:<28} {value:>16.6} {unit}");
        }
    }

    for e in &outcome.errors {
        eprintln!("CORRECTNESS: {e}");
    }
    let correct = outcome.errors.is_empty();
    let emitted = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer.get(name).map_or(0.0, |(v, _)| v), unit))
            .collect::<Vec<_>>()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e.get(name).map_or(0.0, |(v, _)| v), unit))
            .collect()
    };
    println!(
        "{}",
        metrics::result_json(correct, plain.attempted, plain.failed, &emitted)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse_args(&argv("--workload job_warm --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "job_warm".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_or_malformed_arguments() {
        for bad in [
            "--workload job_warm --seed 1 --bogus 2",
            "--workload nope --seed 1",
            "--workload job_warm",
            "--workload job_warm --seed x",
            "--workload job_warm --seed 1 --trace 2",
            "--workload job_warm --seed 1 --seconds -1",
            "--workload job_warm --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
