//! Memo-aware budget regression tests.
//!
//! A cache hit used to cost **0** against [`EvalConfig::max_nodes`], so
//! a budget that cut the derivation mid-way could let a warm re-run of
//! the *same* evaluation slip through — budget exhaustion depended on
//! what the cache held. Hits now charge the recorded as-if-uncached
//! cost of their cached subtree, so across the whole budget range a
//! serving-mode session's warm re-run has the outcome (completes vs
//! `NodeBudgetExceeded`) of its cold run.
//!
//! Serve mode against exact mode follows a weaker, one-sided contract
//! by design: a delta skip charges the recorded cost of the skipped
//! frontier, and the fused Prop 2.1 rules do strictly *less* work than
//! the spread they replace — so a budget that admits the exact run
//! always admits the serving run (never the reverse).

use nra_core::{queries, Value};
use nra_eval::{evaluate, evaluate_traced, EvalConfig, EvalError, EvalSession, Mode};
use nra_graph::{graph_to_value, DiGraph};

/// Workload corpus: while-route fixpoints (where the apply cache
/// actually fires) plus a small powerset route.
fn corpus() -> Vec<(nra_core::Expr, Value)> {
    vec![
        (queries::tc_while(), Value::chain(5)),
        (
            queries::tc_while(),
            graph_to_value(&DiGraph::random_dag(6, 0.4, 3)),
        ),
        (queries::tc_step(), Value::chain(4)),
        (queries::tc_paths(), Value::chain(4)),
    ]
}

/// Budget sweep points around the true (unbudgeted) node total:
/// everything interesting happens at the boundaries.
fn budget_points(total: u64) -> Vec<u64> {
    let mut pts = vec![1, 2, 3, total / 7, total / 3, total / 2];
    pts.extend([
        total.saturating_sub(2),
        total.saturating_sub(1),
        total,
        total + 1,
        total * 2,
    ]);
    pts.retain(|&b| b > 0);
    pts.dedup();
    pts
}

/// Outcome classifier: success or the error variant (partial stats and
/// `required` payloads legitimately differ between strategies).
fn outcome(r: &Result<Value, EvalError>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(EvalError::NodeBudgetExceeded { .. }) => "node-budget",
        Err(EvalError::SpaceBudgetExceeded { .. }) => "space-budget",
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

/// Evaluate `q` twice in one serving-mode session under `cfg`'s
/// budgets: a cold run, then a re-run that hits whatever the first left
/// in the apply cache.
fn cold_and_warm(
    q: &nra_core::Expr,
    input: &Value,
    cfg: EvalConfig,
) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
    let mut session = EvalSession::new(cfg);
    let cold = session.eval(q, input).result;
    let warm = session.eval(q, input).result;
    (cold, warm)
}

#[test]
fn node_budget_exhaustion_is_memo_independent() {
    for (q, input) in corpus() {
        let total = evaluate(&q, &input, &EvalConfig::serve()).stats.nodes;
        for budget in budget_points(total) {
            let cfg = EvalConfig {
                max_nodes: Some(budget),
                ..EvalConfig::serve()
            };
            let (cold, warm) = cold_and_warm(&q, &input, cfg.clone());
            assert_eq!(
                outcome(&cold),
                outcome(&warm),
                "{q} under node budget {budget}/{total}: the warm cache changed the outcome"
            );
            if let (Ok(a), Ok(b)) = (&cold, &warm) {
                assert_eq!(a, b, "{q} under node budget {budget}");
            }
            // the traced builder caches within one call: in serve mode
            // it never trips a budget its exact-mode run survives
            let exact_cfg = EvalConfig {
                mode: Mode::Exact,
                ..cfg.clone()
            };
            if let Ok(exact) = evaluate_traced(&q, &input, &exact_cfg).result {
                let served = evaluate_traced(&q, &input, &cfg).result;
                assert_eq!(
                    served.ok().map(|n| n.output),
                    Some(exact.output),
                    "traced {q} under node budget {budget}/{total}"
                );
            }
        }
    }
}

#[test]
fn space_budget_exhaustion_is_memo_independent() {
    for (q, input) in corpus() {
        let peak = evaluate(&q, &input, &EvalConfig::serve())
            .stats
            .max_object_size;
        for budget in budget_points(peak) {
            let cfg = EvalConfig {
                max_object_size: Some(budget),
                ..EvalConfig::serve()
            };
            let (cold, warm) = cold_and_warm(&q, &input, cfg);
            assert_eq!(
                outcome(&cold),
                outcome(&warm),
                "{q} under space budget {budget}/{peak}"
            );
        }
    }
}

/// Semi-naive does strictly less budgeted work: whenever the naive run
/// fits a budget, the delta-driven run fits it too and produces the
/// identical value.
#[test]
fn seminaive_never_trips_budgets_the_naive_run_survives() {
    for (q, input) in corpus() {
        let stats = evaluate(&q, &input, &EvalConfig::default()).stats;
        for budget in budget_points(stats.nodes) {
            let cfg = EvalConfig {
                max_nodes: Some(budget),
                ..EvalConfig::default()
            };
            let plain = evaluate(&q, &input, &cfg);
            if let Ok(expect) = plain.result {
                let serve_cfg = EvalConfig {
                    mode: Mode::Serve,
                    ..cfg.clone()
                };
                let delta = evaluate(&q, &input, &serve_cfg);
                assert_eq!(
                    delta.result.as_ref().ok(),
                    Some(&expect),
                    "{q} under node budget {budget}: serve mode tripped a budget \
                     the exact run survived"
                );
            }
        }
    }
}
