//! The serving benchmark: one workload by name against the in-process
//! `nra-serve` front, driven by one closed-loop client, every answer
//! checked against a reference computed without the serving evaluator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` runs the same served phase, then replays its request
//! sequence through the traced replica (`traced.rs`) and prints the
//! per-layer metrics; it fails unless the replica agrees with the
//! served run on every request id. Human-readable lines go first; the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every answer was correct.

mod served;
mod sys;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest answered requests for a run's p90 to have ten samples beyond
/// it.
const MIN_ANSWERED: usize = 100;
/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric (and
/// workload) each should move.
const PER_LAYER: [(&str, &str, &str); 35] = [
    ("wire.decode_us", "us", "latency_p50_ms, qps on mixed_small"),
    ("wire.encode_us", "us", "latency_p50_ms, qps on mixed_small"),
    (
        "wire.request_bytes",
        "bytes",
        "latency_p50_ms, qps on mixed_small",
    ),
    (
        "wire.response_bytes",
        "bytes",
        "latency_p50_ms, qps on mixed_small",
    ),
    ("intern.us", "us", "latency_p50_ms on mixed_small"),
    (
        "intern.values_added",
        "count",
        "peak_rss_mb on closure_while",
    ),
    ("opt.us", "us", "latency_p50_ms on mixed_small; setup_s"),
    (
        "opt.roots_changed_ratio",
        "ratio",
        "latency_p50_ms on mixed_small",
    ),
    ("opt.rules_fired", "count", "latency_p50_ms on mixed_small"),
    ("opt.rescues", "count", "error_rate (rescued tc_paths)"),
    ("admission.us", "us", "latency_p50_ms on mixed_small"),
    (
        "admission.symbolic_us",
        "us",
        "latency_p50_ms on mixed_small",
    ),
    (
        "admission.rescue_check_us",
        "us",
        "latency_p50_ms on mixed_small",
    ),
    (
        "admission.rejected_exponential",
        "ratio",
        "error_rate everywhere",
    ),
    (
        "admission.budget_tightness_p50",
        "ratio",
        "error_rate everywhere",
    ),
    (
        "admission.budget_violations",
        "count",
        "error_rate everywhere",
    ),
    ("schedule.us", "us", "qps on road_grid_joins, closure_while"),
    (
        "schedule.workers_used",
        "count",
        "qps on road_grid_joins, closure_while",
    ),
    (
        "eval.batch_ms",
        "ms",
        "qps, latency_p50_ms on heavy workloads",
    ),
    (
        "eval.share",
        "ratio",
        "(attribution: where request time goes)",
    ),
    (
        "eval.cpu_parallelism",
        "ratio",
        "qps on road_grid_joins, closure_while",
    ),
    (
        "eval.nodes",
        "count",
        "qps, latency_p50_ms, peak_rss_mb on road_grid_joins",
    ),
    (
        "eval.max_object_size",
        "units",
        "qps, latency_p50_ms, peak_rss_mb on road_grid_joins",
    ),
    (
        "eval.output_per_node",
        "ratio",
        "qps, latency_p50_ms, peak_rss_mb on road_grid_joins",
    ),
    (
        "eval.memo_hit_rate",
        "ratio",
        "qps, latency_p50_ms, peak_rss_mb on closure_while",
    ),
    ("eval.warm_hits", "count", "latency_p50_ms on mixed_small"),
    (
        "eval.delta_hits",
        "count",
        "qps, latency_p50_ms, peak_rss_mb on closure_while",
    ),
    (
        "eval.while_iterations",
        "count",
        "qps, latency_p50_ms, peak_rss_mb on closure_while",
    ),
    (
        "eval.dense_ops",
        "count",
        "qps on road_grid_joins, closure_while",
    ),
    ("resolve.us", "us", "latency_p50_ms on mixed_small"),
    (
        "loop.queue_wait_ms",
        "ms",
        "latency_p50_ms, latency_p90_ms everywhere",
    ),
    ("loop.jobs_per_batch", "count", "qps everywhere"),
    (
        "loop.unattributed_share",
        "ratio",
        "(attribution: time outside any layer)",
    ),
    ("store.resident_mb", "MiB", "peak_rss_mb on closure_while"),
    (
        "trace.overhead_ratio",
        "ratio",
        "(traced replay wall / served wall)",
    ),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median (upper median for even counts); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Nearest-rank percentile of sorted nanosecond samples, in ms.
fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

fn json_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let concurrency = w.concurrency();

    // set-up, several times: inputs, references, server spawn, warm-up
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server)) = ready.take() {
            served::Server::stop(server);
        }
        let t = Instant::now();
        let inputs = workload::generate(w, args.seed, args.seconds);
        let server = served::Server::start(&inputs);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((inputs, server));
    }
    let (inputs, server) = ready.expect("at least one set-up");

    let run = served::run(server, &inputs, concurrency, args.seconds);

    // check every response against its reference
    let mut ok = Vec::with_capacity(run.responses.len());
    let mut failed = 0usize;
    for (i, line) in run.responses.iter().enumerate() {
        let verdict = match line {
            Some(line) => served::check(&inputs.requests[i], line),
            None => Err("no response".to_string()),
        };
        if let Err(e) = &verdict {
            failed += 1;
            if failed <= 5 {
                eprintln!("request {}: {e}", i + 1);
            }
        }
        ok.push(verdict.is_ok());
    }
    let attempted = ok.len();
    let answered = attempted - failed;
    let served_wall = run.elapsed.as_secs_f64();

    println!(
        "workload {} seed {} | closed loop C={} | workers {} | {:.1} s measured | {} sent, {} answered correctly, {} failed | {} rescued, {} rejected exponential",
        w.name(),
        args.seed,
        concurrency,
        served::config().workers,
        served_wall,
        attempted,
        answered,
        failed,
        run.report.rescued,
        run.report.rejected_exponential,
    );
    if answered < MIN_ANSWERED {
        eprintln!("warning: only {answered} answered requests (< {MIN_ANSWERED}): p90 is thin");
    }

    let mut correct = failed == 0;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("traces")
            .join(format!("{}-seed{}.tsv", w.name(), args.seed));
        let traced = traced::replay(
            &inputs,
            &run.responses,
            run.report.rescued,
            served_wall,
            concurrency,
            &spans,
        );
        if !traced.disagreements.is_empty() {
            correct = false;
            eprintln!(
                "traced replica disagrees with the served run on {} request(s):",
                traced.disagreements.len()
            );
            for d in traced.disagreements.iter().take(5) {
                eprintln!("  {d}");
            }
        }
        println!(
            "traced replica: {} of {} request ids agree with the served run; spans in {}",
            attempted - traced.disagreements.len().min(attempted),
            attempted,
            spans.display()
        );
        let total: u64 = traced.self_times.iter().map(|(_, t)| t).sum();
        println!("self time by span:");
        for (name, ns) in &traced.self_times {
            println!(
                "  {name:<24} {:>10.3} ms  {:>6.2} %",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let t = &traced.tightness;
        let at = |q: f64| {
            let i = ((q * t.len() as f64) as usize).min(t.len().saturating_sub(1));
            t.get(i).copied().unwrap_or(0.0)
        };
        println!(
            "budget tightness (observed / declared max_object_size) over {} evaluations: min {:.3e} p10 {:.3e} p50 {:.3e} p90 {:.3e} max {:.3e}",
            t.len(),
            at(0.0),
            at(0.1),
            at(0.5),
            at(0.9),
            at(1.0)
        );
        println!("per-layer metrics:");
        PER_LAYER
            .iter()
            .zip(traced.metrics)
            .map(|(&(name, unit, moves), (got, value))| {
                assert_eq!(name, got, "per-layer metrics in table order");
                println!("  {name:<32} {value:>14.6} {unit:<6} moves {moves}");
                (name, value, unit)
            })
            .collect()
    } else {
        let mut latency: Vec<u64> = ok
            .iter()
            .zip(run.sent_ns.iter().zip(&run.arrived_ns))
            .filter_map(|(&ok, (&sent, &arrived))| Some(arrived.filter(|_| ok)? - sent))
            .collect();
        latency.sort_unstable();
        let values = [
            answered as f64 / served_wall.max(1e-9),
            percentile_ms(&latency, 0.5),
            percentile_ms(&latency, 0.9),
            sys::peak_rss_mb(),
            median(&mut setup_s),
        ];
        let error_rate = failed as f64 / attempted.max(1) as f64;
        println!("  {:<16} {error_rate:>14.6} ratio", "error_rate");
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| {
                println!("  {name:<16} {value:>14.6} {unit}");
                (name, value, unit)
            })
            .collect()
    };

    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
