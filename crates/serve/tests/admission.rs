//! Admission-soundness differential: the serving front's promises,
//! checked against the engine on every randomized graph family.
//!
//! Two contracts, mirroring the two sides of the Lemma 5.8 dichotomy:
//!
//! 1. **Admitted means affordable.** For every family graph and every
//!    query in the serving zoo, an admitted query must evaluate to the
//!    reference answer *within its declared budget* — the same
//!    `eval_vid_budgeted` enforcement the server runs under, so a
//!    too-tight budget would fail here as `SpaceBudgetExceeded` before
//!    it could fail in production. The §3 `max_object_size` actually
//!    observed must not exceed the declared budget (the probe-headroom
//!    honesty check).
//! 2. **Rejected means certifiably unaffordable.** The powerset-route
//!    TC rejected on growing chains must cite exactly the Theorem 4.1
//!    bound (`2^n` on the chain `rₙ`) that the repo's separation
//!    harness (`tests/differential.rs`) certifies pointwise — and on
//!    the chain lengths where eager evaluation is still feasible, this
//!    test re-certifies `max_object_size ≥ 2^n` itself, so the
//!    rejection text and the measured blow-up can never drift apart.

use nra_core::{queries, Expr, Value};
use nra_eval::{EvalConfig, EvalSession};
use nra_serve::{admit, AdmissionDecision, AdmissionPolicy};
use nra_symbolic::SpaceVerdict;
use nra_testkit::{check, graphs, Rng};

/// The serving zoo: both dichotomy classes, all answered by the engine.
fn serving_zoo() -> Vec<Expr> {
    vec![
        queries::tc_while(),
        queries::tc_step(),
        queries::compose_rel(),
        queries::siblings_direct(),
        queries::tc_paths(),
        queries::siblings_powerset(),
    ]
}

#[test]
fn every_admitted_query_evaluates_within_its_declared_budget() {
    let policy = AdmissionPolicy::default();
    let zoo = serving_zoo();
    check("admission_soundness", 12, |seed, rng| {
        for g in graphs::family_graphs(rng) {
            let input = Value::relation(g.edges.iter().copied());
            for q in &zoo {
                let mut session = EvalSession::new(EvalConfig::serve());
                let eid = session.intern_expr(q);
                let vid = session.intern_value(&input);
                match admit(&mut session, eid, vid, &policy) {
                    AdmissionDecision::Admitted(a) => {
                        // the admitted run, enforced exactly as the server
                        // enforces it
                        let ev = session.eval_vid_budgeted(eid, vid, Some(a.budget));
                        let out = match ev.result {
                            Ok(out) => out,
                            Err(e) => panic!(
                                "[{}] seed {seed}: admitted {q} failed under its \
                                 declared budget {}: {e}",
                                g.family, a.budget
                            ),
                        };
                        // differential reference: a fresh memo-off session
                        let mut reference = EvalSession::new(EvalConfig::default());
                        let qr = reference.intern_expr(q);
                        let vr = reference.intern_value(&input);
                        let expect = reference.eval_vid(qr, vr);
                        let expect_out = expect
                            .result
                            .expect("reference evaluation of a family graph");
                        assert_eq!(
                            session.resolve(out),
                            reference.resolve(expect_out),
                            "[{}] seed {seed}: budgeted result diverged for {q}",
                            g.family
                        );
                        // headroom honesty: the space actually used fits the
                        // declared budget with room to spare
                        assert!(
                            expect.stats.max_object_size <= a.budget,
                            "[{}] seed {seed}: {q} used {} units against a declared \
                             budget of {}",
                            g.family,
                            expect.stats.max_object_size,
                            a.budget
                        );
                    }
                    AdmissionDecision::Rejected(r) => {
                        // the family sweep is sized to be servable: only a
                        // certified-exponential verdict may ever turn one away,
                        // and the polynomial class never can
                        assert!(
                            !matches!(r.verdict, SpaceVerdict::Polynomial { .. }),
                            "[{}] seed {seed}: polynomial-class {q} rejected: {}",
                            g.family,
                            r.reason
                        );
                        panic!(
                            "[{}] seed {seed}: {q} rejected on a ≤8-edge family \
                             graph: {}",
                            g.family, r.reason
                        );
                    }
                }
            }
        }
    });
}

/// The powerset-free half of the serving zoo — the only queries that
/// are feasible to *run* on the large-graph families.
fn polynomial_zoo() -> Vec<Expr> {
    vec![
        queries::tc_while(),
        queries::tc_step(),
        queries::compose_rel(),
        queries::siblings_direct(),
    ]
}

#[test]
fn large_graph_families_evaluate_within_domain_word_budgets() {
    // Small instances of the three large-graph families (road grid,
    // power law, two communities): the polynomial zoo must be admitted
    // with the domain-word budget and actually evaluate inside it —
    // the same soundness contract the ≤8-edge sweep enforces, extended
    // to the families the dense layer was built for.
    let policy = AdmissionPolicy::default();
    let zoo = polynomial_zoo();
    check("admission_large_families", 2, |seed, rng| {
        for g in graphs::large_family_graphs(rng, 16) {
            let input = Value::relation(g.edges.iter().copied());
            for q in &zoo {
                let mut session = EvalSession::new(EvalConfig::serve());
                let eid = session.intern_expr(q);
                let vid = session.intern_value(&input);
                let admitted = match admit(&mut session, eid, vid, &policy) {
                    AdmissionDecision::Admitted(a) => a,
                    AdmissionDecision::Rejected(r) => panic!(
                        "[{}] seed {seed}: polynomial-class {q} rejected: {}",
                        g.family, r.reason
                    ),
                };
                assert!(
                    admitted.budget < u64::MAX,
                    "[{}] seed {seed}: {q} budget saturated",
                    g.family
                );
                let ev = session.eval_vid_budgeted(eid, vid, Some(admitted.budget));
                let out = match ev.result {
                    Ok(out) => out,
                    Err(e) => panic!(
                        "[{}] seed {seed}: admitted {q} failed under its declared \
                         budget {}: {e}",
                        g.family, admitted.budget
                    ),
                };
                let mut reference = EvalSession::new(EvalConfig::default());
                let qr = reference.intern_expr(q);
                let vr = reference.intern_value(&input);
                let expect = reference
                    .eval_vid(qr, vr)
                    .result
                    .expect("reference evaluation of a large-family instance");
                assert_eq!(
                    session.resolve(out),
                    reference.resolve(expect),
                    "[{}] seed {seed}: budgeted result diverged for {q}",
                    g.family
                );
            }
        }
    });
}

#[test]
fn serving_scale_inputs_get_finite_polynomial_budgets_and_reject_powerset_routes() {
    // At serving scale (n = 512, ≥ 512 edges) the per-element structural
    // clamp saturates — `size^degree` overflows on thousands of §3 units
    // — so admission prices by domain words instead. Polynomial queries
    // must come back with a *finite, meaningful* budget without any
    // evaluation, and the powerset routes must be turned away purely by
    // prediction (the probe sizes `powerset(r)` combinatorially; nothing
    // exponential ever runs).
    let policy = AdmissionPolicy::default();
    let mut rng = Rng::new(7);
    for g in graphs::large_family_graphs(&mut rng, 512) {
        let input = Value::relation(g.edges.iter().copied());
        for q in &polynomial_zoo() {
            let mut session = EvalSession::new(EvalConfig::serve());
            let eid = session.intern_expr(q);
            let vid = session.intern_value(&input);
            match admit(&mut session, eid, vid, &policy) {
                AdmissionDecision::Admitted(a) => {
                    // d ≤ 512 ⇒ the domain-word clamp is ≤ 512⁴·64 + 4096
                    let cap = 512u64.pow(4) * 64 + 4096;
                    assert!(
                        a.budget <= cap,
                        "[{}] {q}: budget {} above the domain-word cap {cap}",
                        g.family,
                        a.budget
                    );
                    assert!(
                        matches!(a.verdict, SpaceVerdict::Polynomial { .. }),
                        "[{}] {q}: {:?}",
                        g.family,
                        a.verdict
                    );
                }
                AdmissionDecision::Rejected(r) => panic!(
                    "[{}] polynomial-class {q} rejected at serving scale: {}",
                    g.family, r.reason
                ),
            }
        }
        for q in [queries::tc_paths(), queries::tc_naive()] {
            let mut session = EvalSession::new(EvalConfig::serve());
            let eid = session.intern_expr(&q);
            let vid = session.intern_value(&input);
            match admit(&mut session, eid, vid, &policy) {
                AdmissionDecision::Rejected(r) => assert!(
                    r.reason.contains("exceeds the serving ceiling")
                        || r.reason.contains("cannot be certified"),
                    "[{}] {q}: unexpected rejection text: {}",
                    g.family,
                    r.reason
                ),
                AdmissionDecision::Admitted(a) => panic!(
                    "[{}] powerset route {q} admitted at serving scale with budget {}",
                    g.family, a.budget
                ),
            }
        }
    }
}

#[test]
fn rejected_chains_cite_the_bound_the_separation_harness_certifies() {
    let policy = AdmissionPolicy::default();
    let mut threshold = None;
    for n in 1..=32u64 {
        let mut session = EvalSession::new(EvalConfig::serve());
        let eid = session.intern_expr(&queries::tc_paths());
        let vid = session.intern_value(&Value::chain(n));
        match admit(&mut session, eid, vid, &policy) {
            AdmissionDecision::Admitted(a) => {
                assert!(
                    threshold.is_none(),
                    "admission must be monotone in chain length"
                );
                if n <= 8 {
                    // the feasible range: re-certify the separation this
                    // rejection text is built on — eager powerset TC on rₙ
                    // really does need ≥ 2ⁿ units (Theorem 4.1), and the
                    // declared budget really does cover it
                    let ev = nra_eval::evaluate(
                        &queries::tc_paths(),
                        &Value::chain(n),
                        &EvalConfig::default(),
                    );
                    assert_eq!(ev.result.unwrap(), Value::chain_tc(n));
                    assert!(
                        ev.stats.max_object_size >= 1 << n,
                        "chain({n}): separation bound violated"
                    );
                    assert!(
                        ev.stats.max_object_size <= a.budget,
                        "chain({n}): declared budget {} below the measured {}",
                        a.budget,
                        ev.stats.max_object_size
                    );
                }
            }
            AdmissionDecision::Rejected(r) => {
                threshold.get_or_insert(n);
                let SpaceVerdict::Exponential {
                    log2_lower_bound,
                    lower_bound,
                    ..
                } = r.verdict
                else {
                    panic!("chain({n}): wrong verdict class {:?}", r.verdict);
                };
                // the citation is the pointwise certificate: 2^n on rₙ
                assert_eq!(u64::from(log2_lower_bound), n, "chain({n})");
                assert_eq!(lower_bound, 1u64 << n, "chain({n})");
                assert!(
                    r.reason.contains("Theorem 4.1"),
                    "chain({n}): rejection must cite the theorem: {}",
                    r.reason
                );
            }
        }
    }
    let t = threshold.expect("long chains must be rejected");
    assert!(
        (9..=24).contains(&t),
        "flip at {t}: the differential range (n ≤ 8) must stay admitted and \
         the ceiling must bite before 2^24"
    );
}
