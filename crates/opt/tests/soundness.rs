//! The optimiser's soundness contract, enforced differentially: for
//! every expression, **optimised and raw evaluation agree bit-for-bit
//! on results whenever raw evaluation succeeds**, across all seven
//! [`nra_testkit::graphs`] families and every `memo`/`semi_naive`
//! configuration mix. Only a rescue changes an expression, and a rescue
//! is *allowed* to change the iteration count: replacing a powerset
//! tower with a loop is the entire point. Where no rescue fires, the
//! optimised expression is the raw one.

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::{builder, queries, Expr, ExprArena, Type, Value};
use nra_eval::{evaluate, EvalConfig, Mode};
use nra_opt::RESCUES;
use nra_testkit::{graphs, Rng};

/// Both evaluator modes, space-budgeted so the powerset-route queries
/// fail fast instead of materialising exponential families on the
/// larger graphs.
fn modes() -> Vec<(&'static str, EvalConfig)> {
    [("exact", Mode::Exact), ("serve", Mode::Serve)]
        .into_iter()
        .map(|(name, mode)| {
            let config = EvalConfig {
                mode,
                max_object_size: Some(1 << 16),
                ..EvalConfig::default()
            };
            (name, config)
        })
        .collect()
}

/// Optimise a tree-form expression, reporting how many rescues fired.
fn optimise(e: &Expr) -> (Expr, u64) {
    let mut ea = ExprArena::new();
    let root = ea.intern(e);
    let (out, stats) = nra_opt::optimise_with_stats(&mut ea, root);
    (ea.resolve(out), stats.rescues)
}

/// The one-sided bit-for-bit check on one (expression, input) pair.
fn check(label: &str, raw: &Expr, optimised: &Expr, input: &Value) {
    for (mode, config) in modes() {
        let r = evaluate(raw, input, &config);
        if let Ok(expected) = r.result {
            let o = evaluate(optimised, input, &config);
            let got = o
                .result
                .unwrap_or_else(|e| panic!("{label} [{mode}]: optimised failed on {input}: {e}"));
            assert_eq!(got, expected, "{label} [{mode}]: disagreement on {input}");
        }
    }
}

/// The paper's query zoo over all seven graph families: results agree
/// under every configuration, and the two powerset-route queries are
/// both actually rewritten (the rescues are live, not vacuous).
#[test]
fn optimised_zoo_agrees_with_raw_on_all_families() {
    let zoo = [
        queries::tc_paths(),
        queries::tc_while(),
        queries::tc_step(),
        queries::siblings_powerset(),
        queries::siblings_direct(),
        queries::compose_rel(),
    ];
    let mut rescued = 0;
    for q in &zoo {
        let (optimised, rescues) = optimise(q);
        if rescues == 0 {
            assert_eq!(&optimised, q, "only a rescue may change a query");
            continue;
        }
        rescued += 1;
        let mut rng = Rng::new(0x0DD5_0001);
        for (i, g) in graphs::family_graphs(&mut rng).into_iter().enumerate() {
            let input = Value::relation(g.edges.iter().copied());
            check(&format!("{q} (family {i})"), q, &optimised, &input);
        }
    }
    assert_eq!(
        rescued,
        RESCUES.len(),
        "both powerset-route queries rescued"
    );
}

/// Random well-typed expressions — `powerset`, `powersetₘ` and `while`
/// all enabled — each wrapped around a rescue left-hand side, survive
/// optimisation bit-for-bit across families and both evaluator modes.
/// This is the fuzzing arm of the contract: the zoo exercises the
/// rescues at the root, the generator exercises them inside contexts
/// nobody meant to write.
#[test]
fn random_expressions_survive_optimisation() {
    let gen_cfg = GenConfig {
        max_depth: 4,
        allow_while: true,
        ..GenConfig::default()
    };
    let mut rescued = 0usize;
    for seed in 0..60u64 {
        let mut rng = GenRng::new(seed);
        let context = random_expr(&Type::nat_rel(), &gen_cfg, &mut rng);
        // the context consumes the rescued query's output, or sits
        // beside it on the same input — type-correct either way, since
        // every left-hand side maps relations to relations
        let lhs = (RESCUES[(seed / 2 % 2) as usize].lhs)();
        let e = if seed % 2 == 0 {
            builder::compose(context, lhs)
        } else {
            builder::tuple(lhs, context)
        };
        let (o, rescues) = optimise(&e);
        rescued += usize::from(rescues > 0);
        let mut grng = Rng::new(0x0DD5_0002 ^ seed);
        let graph = &graphs::family_graphs(&mut grng)[(seed % 7) as usize];
        let inputs = [
            Value::relation([]),
            Value::chain(3),
            Value::relation(graph.edges.iter().copied()),
        ];
        for input in &inputs {
            check(&format!("seed {seed}: {e}"), &e, &o, input);
        }
    }
    assert_eq!(
        rescued, 60,
        "every expression holds a rescue left-hand side"
    );
}

/// Every table entry agrees with its left-hand side on results across
/// the graph families; `while_iterations` is *expected* to change.
#[test]
fn rescue_rules_agree_on_results_across_families() {
    let config = EvalConfig::with_space_budget(1 << 16);
    let mut rng = Rng::new(0x5EED_0002);
    for g in graphs::family_graphs(&mut rng) {
        let input = Value::relation(g.edges.iter().copied());
        for rescue in RESCUES {
            let (lhs, rhs) = ((rescue.lhs)(), (rescue.rhs)());
            if let Ok(expected) = evaluate(&lhs, &input, &config).result {
                let got = evaluate(&rhs, &input, &config).result;
                assert_eq!(
                    got.expect("polynomial route"),
                    expected,
                    "{} on {input}",
                    rescue.name
                );
            }
        }
    }
}

/// The rescue respects admission semantics end to end: under a space
/// budget only the while route can satisfy, the raw powerset route
/// fails and the optimised expression completes with the right answer.
#[test]
fn rescue_differential_holds_under_the_separating_budget() {
    let input = Value::chain(12);
    let strict = EvalConfig {
        max_object_size: Some(1 << 16),
        ..EvalConfig::serve()
    };
    let raw = evaluate(&queries::tc_paths(), &input, &strict);
    assert!(raw.result.is_err(), "powerset route must blow the budget");
    let optimised = nra_opt::optimise_expr(&queries::tc_paths());
    assert_eq!(optimised, queries::tc_while(), "the headline rescue");
    let o = evaluate(&optimised, &input, &strict);
    assert_eq!(o.result.unwrap(), Value::chain_tc(12));
}
