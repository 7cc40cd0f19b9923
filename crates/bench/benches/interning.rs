//! The evaluator rungs on the differential-suite graph families: tree
//! vs interned (exact mode) vs serve mode vs serve mode on the
//! rewrite-optimised query, then the warm, batch and shared-warm
//! session rungs, each measured against its immediate predecessor.
//!
//! The §3 measure observes `size(C)` at every rule application; the
//! hash-consed arena (`nra_core::value::intern`) turns those observations,
//! `clone`s and fixpoint equality tests into `O(1)` handle operations,
//! and serve mode (`EvalConfig::serve`) adds the apply cache (keyed
//! `(EId, VId) → VId` on the expression arena of
//! `nra_core::expr::intern`), semi-naive iteration and the fused rules.
//! This bench quantifies the wins on the workloads the differential
//! harnesses verify — transitive closure on chains, random DAGs, grids,
//! cliques and sparse random graphs via the `while` route, and the
//! powerset route on a small chain — and appends the results to
//! `BENCH_eval.json` at the repository root so the perf trajectory
//! accumulates across PRs.
//!
//! ```sh
//! NRA_BENCH_SAMPLES=2 cargo bench -p nra-bench --bench interning
//! ```

use nra_bench::{
    bench_samples, fmt_duration, standard_dense_comparisons, standard_eval_comparisons,
    write_bench_eval_json, EvalComparison,
};

fn main() {
    let samples = bench_samples();
    // chain/DAG/grid/clique/sparse families through the while route
    // (object sizes Θ(n⁴) at the self-product), plus the powerset route
    // on a small chain — see nra_bench::standard_eval_comparisons
    let comparisons = standard_eval_comparisons(samples);
    // the serving-scale dense-vs-sorted closure table (tc_arena's two
    // representation routes on the 512-node graph families)
    let dense = standard_dense_comparisons(samples);

    println!(
        "tree vs interned (exact) vs serve-mode eager evaluation, plus session warm \
         re-evaluation and the {}-job/{}-worker batch ({samples} samples, median):",
        nra_bench::BATCH_JOBS,
        nra_bench::BATCH_WORKERS
    );
    println!(
        "{:<20} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload",
        "n",
        "tree",
        "interned",
        "serve",
        "optimised",
        "warm",
        "batch",
        "shwarm",
        "intern×",
        "serve×",
        "opt×",
        "warm×",
        "batch×",
        "shwarm×"
    );
    for c in &comparisons {
        println!(
            "{:<20} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            c.workload,
            c.n,
            fmt_duration(c.tree),
            fmt_duration(c.interned),
            fmt_duration(c.serve),
            fmt_duration(c.optimised),
            fmt_duration(c.warm),
            fmt_duration(c.batch),
            fmt_duration(c.shared_warm),
            c.speedup(),
            c.serve_speedup(),
            c.optimised_speedup(),
            c.warm_speedup(),
            c.batch_speedup(),
            c.shared_warm_speedup()
        );
    }
    let min = |speedup: fn(&EvalComparison) -> f64| {
        comparisons
            .iter()
            .map(speedup)
            .fold(f64::INFINITY, f64::min)
    };
    for (label, speedup) in [
        (
            "interned",
            EvalComparison::speedup as fn(&EvalComparison) -> f64,
        ),
        ("serve", EvalComparison::serve_speedup),
        ("optimised", EvalComparison::optimised_speedup),
        ("warm-start", EvalComparison::warm_speedup),
        ("batch", EvalComparison::batch_speedup),
        ("shared-warm", EvalComparison::shared_warm_speedup),
    ] {
        println!(
            "minimum {label} speedup across workloads: {:.2}x",
            min(speedup)
        );
    }

    println!();
    println!("dense vs sorted transitive closure (tc_arena) on the serving-scale families:");
    println!(
        "{:<22} {:>4} {:>7} {:>10} {:>10} {:>8}",
        "workload", "n", "edges", "sorted", "dense", "dense×"
    );
    for d in &dense {
        println!(
            "{:<22} {:>4} {:>7} {:>10} {:>10} {:>7.2}x",
            d.workload,
            d.n,
            d.edges,
            fmt_duration(d.sorted),
            fmt_duration(d.dense),
            d.dense_speedup()
        );
    }
    let geomean_dense = (dense.iter().map(|d| d.dense_speedup().ln()).sum::<f64>()
        / dense.len().max(1) as f64)
        .exp();
    println!("geomean dense speedup: {geomean_dense:.2}x");

    let path = write_bench_eval_json(&comparisons, &dense, samples).expect("write BENCH_eval.json");
    println!("wrote {}", path.display());
}
