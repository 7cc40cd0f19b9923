//! Evaluator-strategy differential tests: the plain eager evaluator, the
//! derivation-tree-materialising traced evaluator, the streaming (lazy)
//! evaluator, each in exact and in serve mode, must agree — on
//! results *and* on the statistics they share — across randomized graphs
//! from seven families (chains, cycles, DAGs, disconnected graphs,
//! grids, cliques, sparse random graphs), with the `nra-graph` closure
//! as the external referee.
//!
//! The workspace-level `tests/differential.rs` checks agreement between
//! *routes* (powerset vs while vs classical algorithms); this file checks
//! agreement between *strategies* evaluating the same route.

use nra_core::builder::*;
use nra_core::types::Type;
use nra_core::{derived, queries, Value};
use nra_eval::{evaluate, evaluate_lazy, evaluate_traced, evaluate_tree, EvalConfig};
use nra_graph::{graph_to_value, graph_to_vid, tc, DiGraph};
use nra_testkit::{check, Rng};

const CASES: u64 = 24;

/// The edge type `N × N`.
fn edge_ty() -> Type {
    Type::prod(Type::Nat, Type::Nat)
}

/// The composition key `π₂∘π₁ = π₁∘π₂` over a pair of edges
/// `((a, b), (c, d))`: `b = c`.
fn key_bc() -> nra_core::Expr {
    compose(
        eq_nat(),
        tuple(compose(snd(), fst()), compose(fst(), snd())),
    )
}

/// `σ_{b=c} ∘ ×` — the composition join on a *pair* of relations.
fn join_bc() -> nra_core::Expr {
    compose(
        derived::select(key_bc(), Type::prod(edge_ty(), edge_ty())),
        derived::cartprod(),
    )
}

/// `π₂ ∘ while(⟨tc_step ∘ π₁, join ∘ sides ∘ π₁⟩) ∘ ⟨id, join ∘ sides⟩`:
/// the state is `(r, join(sides(r)))`, so every iterate re-applies the
/// join to grown sides and the answer is the join's own last output —
/// a frontier join that dropped pairs would show in the result, not
/// only in the closure's convergence.
fn join_in_fixpoint(join: nra_core::Expr, sides: nra_core::Expr) -> nra_core::Expr {
    let joined = compose(join, sides);
    pipeline([
        tuple(id(), joined.clone()),
        while_fix(tuple(
            compose(queries::tc_step(), fst()),
            pipeline([fst(), queries::tc_step(), joined]),
        )),
        snd(),
    ])
}

/// Queries exercising the fused derived shapes — `nest`/`unnest`,
/// membership and inclusion predicates (via `∩`, `∖`, `⊆`, `=` at set
/// types), and the keyed equi-join over a product — each of type
/// `{N × N} → t` so the family graphs feed them directly, and each
/// wrapping a growing `tc_step` so the semi-naive walker sees the
/// shapes re-fire on grown inputs.
fn fused_shape_queries() -> Vec<(&'static str, nra_core::Expr)> {
    let rel = Type::set(edge_ty());
    let self_join = compose(
        derived::select(key_bc(), Type::prod(edge_ty(), edge_ty())),
        derived::self_product(),
    );
    vec![
        // nest ∘ unnest round-trips inside the fixpoint: the body is
        // exactly tc_step followed by an identity detour through the
        // grouping operators, so the trajectory is tc_while's
        (
            "while(unnest ∘ nest ∘ tc_step)",
            while_fix(pipeline([
                queries::tc_step(),
                derived::nest(&Type::Nat, &Type::Nat),
                derived::unnest(),
            ])),
        ),
        ("nest", derived::nest(&Type::Nat, &Type::Nat)),
        (
            "unnest ∘ nest",
            pipeline([derived::nest(&Type::Nat, &Type::Nat), derived::unnest()]),
        ),
        // tc_step(r) ∩ r = r (membership predicate inside ∩)
        (
            "tc_step ∩ id",
            compose(
                derived::intersect(&edge_ty()),
                tuple(queries::tc_step(), id()),
            ),
        ),
        // tc_step(r) ∖ r — the freshly derived edges (¬∈ inside ∖)
        (
            "tc_step ∖ id",
            compose(
                derived::difference(&edge_ty()),
                tuple(queries::tc_step(), id()),
            ),
        ),
        // r ⊆ tc_step(r) — the inclusion predicate itself
        (
            "id ⊆ tc_step",
            compose(derived::subset(&edge_ty()), tuple(id(), queries::tc_step())),
        ),
        // =_{ {N×N} } — set equality, i.e. antisymmetric inclusion
        (
            "tc_step = tc_while",
            compose(
                derived::eq_at(&rel),
                tuple(queries::tc_step(), queries::tc_while()),
            ),
        ),
        // the equi-join on the self product: key only, and key ∧ ≠
        ("compose_rel", queries::compose_rel()),
        ("siblings_direct", queries::siblings_direct()),
        // the join on two different sides
        (
            "σ_{b=c} ∘ × ∘ ⟨id, tc_step⟩",
            compose(join_bc(), tuple(id(), queries::tc_step())),
        ),
        // ... and both joins re-applied to grown sides inside a
        // fixpoint: the self product (δA = δB) and ⟨id, tc_step⟩, whose
        // sides grow by different frontiers (δA ≠ δB)
        (
            "join(r × r) in a fixpoint",
            join_in_fixpoint(self_join, id()),
        ),
        (
            "join(r × tc_step(r)) in a fixpoint",
            join_in_fixpoint(join_bc(), tuple(id(), queries::tc_step())),
        ),
    ]
}

/// One random graph from each of the seven shared families per seed,
/// lifted to `DiGraph` — the family definitions live in
/// `nra_testkit::graphs` so this harness and the route-level
/// `tests/differential.rs` can never drift apart.
fn family_graphs(rng: &mut Rng) -> Vec<(&'static str, DiGraph)> {
    nra_testkit::graphs::family_graphs(rng)
        .into_iter()
        .map(|g| (g.family, DiGraph::from_edges(g.edges)))
        .collect()
}

/// Eager and traced are the same semantics with different bookkeeping:
/// identical results, node counts, and §3 complexities.
#[test]
fn traced_agrees_with_eager_on_all_families() {
    check(
        "traced_agrees_with_eager_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_step(), queries::tc_while()] {
                    let plain = evaluate(&q, &input, &cfg);
                    let traced = evaluate_traced(&q, &input, &cfg);
                    let tree = traced.result.unwrap();
                    assert_eq!(tree.output, plain.result.unwrap(), "{family}: {q}");
                    assert_eq!(tree.node_count(), plain.stats.nodes, "{family}: {q}");
                    assert_eq!(
                        tree.max_object_size(),
                        plain.stats.max_object_size,
                        "{family}: {q}"
                    );
                }
            }
        },
    );
}

/// The interned (hash-consed) evaluation path must be indistinguishable
/// from the original tree-walking implementation: same results **and**
/// byte-for-byte the same §3 statistics, across all four graph families
/// and both TC routes. This is the differential gate for the arena.
#[test]
fn interned_path_agrees_with_tree_evaluator_on_all_families() {
    check(
        "interned_path_agrees_with_tree_evaluator_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let tree = evaluate_tree(&q, &input, &cfg);
                    let interned = evaluate(&q, &input, &cfg);
                    assert_eq!(
                        tree.result.as_ref().unwrap(),
                        interned.result.as_ref().unwrap(),
                        "{family}: {q}"
                    );
                    assert_eq!(tree.stats, interned.stats, "{family}: {q}");
                }
                // the handle-to-handle entry point and the graph_to_vid
                // encoding boundary, on the cheap query only — evaluate()
                // already delegates to evaluate_vid, so this checks the
                // boundary, not the (identical) evaluation
                let q = queries::tc_step();
                let interned = evaluate(&q, &input, &cfg);
                let vid_ev = nra_eval::evaluate_vid(&q, graph_to_vid(&g), &cfg);
                assert_eq!(
                    nra_core::value::intern::resolve(vid_ev.result.unwrap()),
                    interned.result.unwrap(),
                    "{family}: {q} (vid path)"
                );
                assert_eq!(vid_ev.stats, interned.stats, "{family}: {q} (vid stats)");
            }
        },
    );
}

/// The streaming strategy must change the cost *model*, never the answer.
#[test]
fn lazy_agrees_with_eager_on_all_families() {
    check("lazy_agrees_with_eager_on_all_families", CASES, |_, rng| {
        let cfg = EvalConfig::default();
        for (family, g) in family_graphs(rng) {
            let input = graph_to_value(&g);
            for q in [
                queries::tc_paths(),
                queries::tc_while(),
                queries::siblings_powerset(),
            ] {
                let eager_out = evaluate(&q, &input, &cfg).result.unwrap();
                let lazy_out = evaluate_lazy(&q, &input, &cfg).result.unwrap();
                assert_eq!(eager_out, lazy_out, "{family}: {q}");
            }
        }
    });
}

/// Both strategies must agree with the classical closure as an external
/// referee (not just with each other).
#[test]
fn strategies_agree_with_the_graph_referee() {
    check(
        "strategies_agree_with_the_graph_referee",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let expect = graph_to_value(&tc(&g));
                assert_eq!(
                    evaluate(&queries::tc_while(), &input, &cfg).result.unwrap(),
                    expect,
                    "{family}: eager tc_while vs graph closure"
                );
                assert_eq!(
                    evaluate_lazy(&queries::tc_paths(), &input, &cfg)
                        .result
                        .unwrap(),
                    expect,
                    "{family}: lazy tc_paths vs graph closure"
                );
            }
        },
    );
}

/// The apply cache must change the cost, never the answer: serve-mode
/// eager evaluation, which consults the cache, is bit-for-bit the
/// exact-mode result on every family and route, serve-mode *traced*
/// evaluation grafts cached sub-derivations yet materialises the
/// identical result, and exact-mode statistics
/// never count the cache — the §3 node count of a serve-mode run never
/// exceeds the exact one, with the skipped work reported in `memo_hits`.
#[test]
fn memoised_agrees_with_unmemoised_on_all_families() {
    check(
        "memoised_agrees_with_unmemoised_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            let serve_cfg = EvalConfig::serve();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let mut consulted = 0;
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let plain = evaluate(&q, &input, &cfg);
                    let memoised = evaluate(&q, &input, &serve_cfg);
                    assert_eq!(
                        plain.result.as_ref().unwrap(),
                        memoised.result.as_ref().unwrap(),
                        "{family}: {q}"
                    );
                    assert_eq!(
                        plain.stats.memo_hits + plain.stats.memo_misses,
                        0,
                        "{family}: {q} — exact-mode stats must not count the cache"
                    );
                    assert!(
                        memoised.stats.nodes <= plain.stats.nodes,
                        "{family}: {q} — hits may only shrink the node count"
                    );
                    assert!(
                        memoised.stats.max_object_size <= plain.stats.max_object_size,
                        "{family}: {q} — the §3 complexity is a max over a subset of the judgments"
                    );
                    consulted += memoised.stats.memo_hits + memoised.stats.memo_misses;
                }
                assert!(
                    consulted > 0,
                    "{family}: serve mode never consulted the apply cache"
                );
                // the traced strategy in serve mode grafts shared subtrees:
                // the materialised derivation must still be bit-identical
                let q = queries::tc_step();
                let plain = evaluate_traced(&q, &input, &cfg);
                let memoised = evaluate_traced(&q, &input, &serve_cfg);
                assert_eq!(
                    plain.result.unwrap(),
                    memoised.result.unwrap(),
                    "{family}: traced {q}"
                );
            }
        },
    );
}

/// Serve mode — the apply cache, semi-naive (delta-driven) iteration and
/// the fused rules — must change the cost, never the answer or the
/// trajectory: on every family and route, serve-mode results are bit for
/// bit the exact-mode results, `while_iterations` is exactly the naive
/// count (the fixpoint sequence is threaded, not approximated), and the
/// §3 counters only ever shrink, with the skipped work reported in
/// `memo_hits` and `delta_hits`/`delta_skipped` instead. Exact-mode
/// statistics never count either cache.
#[test]
fn seminaive_agrees_with_naive_on_all_families() {
    check(
        "seminaive_agrees_with_naive_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            let serve_cfg = EvalConfig::serve();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let naive = evaluate(&q, &input, &cfg);
                    let served = evaluate(&q, &input, &serve_cfg);
                    assert_eq!(
                        naive.result.as_ref().unwrap(),
                        served.result.as_ref().unwrap(),
                        "{family}: {q}"
                    );
                    assert_eq!(
                        naive.stats.while_iterations, served.stats.while_iterations,
                        "{family}: {q} — the fixpoint trajectory must be exact"
                    );
                    assert!(
                        served.stats.nodes <= naive.stats.nodes,
                        "{family}: {q} — hits and delta skips may only shrink the node count"
                    );
                    assert!(
                        served.stats.max_object_size <= naive.stats.max_object_size,
                        "{family}: {q} — fused rules observe a subset of the objects"
                    );
                    let exact = &naive.stats;
                    assert_eq!(
                        exact.memo_hits
                            + exact.memo_misses
                            + exact.delta_hits
                            + exact.delta_skipped,
                        0,
                        "{family}: {q} — exact-mode stats must not count the caches"
                    );
                    assert!(exact.while_frontiers.is_empty(), "{family}: {q}");
                }
                // the traced strategy in serve mode grafts the cached and
                // reused sub-derivations: the materialised tree must still
                // be bit-identical, with the same frontier trace
                let q = queries::tc_while();
                let plain = evaluate_traced(&q, &input, &cfg);
                let served = evaluate_traced(&q, &input, &serve_cfg);
                assert_eq!(
                    plain.result.unwrap(),
                    served.result.unwrap(),
                    "{family}: traced {q}"
                );
                assert_eq!(
                    plain.stats.while_iterations, served.stats.while_iterations,
                    "{family}: traced {q}"
                );
                let eager_served = evaluate(&q, &input, &serve_cfg);
                assert_eq!(
                    eager_served.stats.while_frontiers, served.stats.while_frontiers,
                    "{family}: eager and traced must thread the same (total, delta) pairs"
                );
            }
        },
    );
}

/// On set-valued inflationary fixpoints, the threaded `(total, delta)`
/// pair is internally consistent: the frontier cardinalities sum to
/// `|final| − |input|` and the last frontier is empty (the fixpoint
/// test).
#[test]
fn seminaive_frontiers_reconstruct_the_closure() {
    check(
        "seminaive_frontiers_reconstruct_the_closure",
        CASES,
        |_, rng| {
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let ev = evaluate(&queries::tc_while(), &input, &EvalConfig::serve());
                let out = ev.result.unwrap();
                let frontiers = &ev.stats.while_frontiers;
                assert_eq!(
                    frontiers.len() as u64,
                    ev.stats.while_iterations,
                    "{family}: one frontier per iterate"
                );
                assert_eq!(frontiers.last().copied(), Some(0), "{family}: fixpoint");
                let grown: u64 = frontiers.iter().sum();
                let (n_in, n_out) = (
                    input.cardinality().unwrap() as u64,
                    out.cardinality().unwrap() as u64,
                );
                assert_eq!(grown, n_out - n_in, "{family}: frontiers sum to the growth");
            }
        },
    );
}

/// Serve mode in the lazy strategy — the apply cache over per-subset
/// evaluations, and powerset-free fixpoints delegated to the delta
/// walker — must change the cost, never the answer: serve is bit for bit
/// exact on every family, the same subsets are streamed, and exact-mode
/// stats never count the cache.
#[test]
fn lazy_cache_agrees_with_uncached_on_all_families() {
    check(
        "lazy_cache_agrees_with_uncached_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            let serve_cfg = EvalConfig::serve();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [
                    queries::tc_paths(),
                    queries::tc_while(),
                    queries::siblings_powerset(),
                ] {
                    let plain = evaluate_lazy(&q, &input, &cfg);
                    let served = evaluate_lazy(&q, &input, &serve_cfg);
                    assert_eq!(
                        plain.result.as_ref().unwrap(),
                        served.result.as_ref().unwrap(),
                        "{family}: lazy serve {q}"
                    );
                    assert_eq!(
                        plain.stats.while_iterations, served.stats.while_iterations,
                        "{family}: lazy serve {q}"
                    );
                    assert_eq!(
                        plain.stats.memo_hits + plain.stats.memo_misses,
                        0,
                        "{family}: {q} — exact-mode lazy stats must not count the cache"
                    );
                    assert_eq!(
                        plain.stats.streamed_subsets, served.stats.streamed_subsets,
                        "{family}: {q} — the same subsets are streamed either way"
                    );
                }
            }
        },
    );
}

/// The lazy apply cache earns its keep on the powerset route: streamed
/// subsets share sub-derivations, so the shared cache must actually hit.
/// (Serve mode's fused rules also shrink each per-subset derivation, so
/// there are fewer judgments to hit than with the cache alone: 8,456
/// hits of 18,996 probes on chain(7).)
#[test]
fn lazy_cache_fires_on_streamed_subsets() {
    let input = Value::chain(7);
    let ev = evaluate_lazy(&queries::tc_paths(), &input, &EvalConfig::serve());
    assert_eq!(ev.result.unwrap(), Value::chain_tc(7));
    assert_eq!(ev.stats.streamed_subsets, 128);
    assert!(
        ev.stats.memo_hits > 5_000,
        "expected the shared apply cache to fire across subsets: {} hits / {} misses",
        ev.stats.memo_hits,
        ev.stats.memo_misses
    );
    assert!(ev.stats.memo_hit_rate() > 0.4);
}

/// The §3 caveat, quantified: on chains the lazy strategy's peak resident
/// size must undercut the eager complexity once `2ⁿ` dominates — while
/// the *streamed subset count* stays exponential (time is not saved).
#[test]
fn lazy_space_undercuts_eager_on_chains() {
    let cfg = EvalConfig::default();
    for n in 5..=8u64 {
        let input = Value::chain(n);
        let eager = evaluate(&queries::tc_paths(), &input, &cfg);
        let lazy = evaluate_lazy(&queries::tc_paths(), &input, &cfg);
        assert_eq!(eager.result.unwrap(), lazy.result.clone().unwrap());
        assert!(
            lazy.stats.peak_resident < eager.stats.max_object_size,
            "n={n}: lazy peak {} should undercut eager complexity {}",
            lazy.stats.peak_resident,
            eager.stats.max_object_size
        );
        assert!(
            lazy.stats.streamed_subsets >= 1 << n,
            "n={n}: streamed {} subsets, expected ≥ 2^{n}",
            lazy.stats.streamed_subsets
        );
    }
}

/// The fused rules for `nest`/`unnest` and the membership/inclusion
/// predicates must change the cost, never the answer: on every family,
/// serve-mode evaluation of the shape-bearing queries is bit-for-bit
/// the naive (and tree-path) result, with the §3 counters only ever
/// shrinking.
#[test]
fn fused_derived_shapes_agree_with_naive_on_all_families() {
    check(
        "fused_derived_shapes_agree_with_naive_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for (label, q) in fused_shape_queries() {
                    let tree = evaluate_tree(&q, &input, &cfg);
                    let naive = evaluate(&q, &input, &cfg);
                    assert_eq!(
                        tree.result.as_ref().unwrap(),
                        naive.result.as_ref().unwrap(),
                        "{family}: {label} (tree vs interned)"
                    );
                    let served = evaluate(&q, &input, &EvalConfig::serve());
                    assert_eq!(
                        naive.result.as_ref().unwrap(),
                        served.result.as_ref().unwrap(),
                        "{family}: {label}"
                    );
                    assert!(
                        served.stats.nodes <= naive.stats.nodes,
                        "{family}: {label} — fusion may only shrink the node count"
                    );
                    assert!(
                        served.stats.max_object_size <= naive.stats.max_object_size,
                        "{family}: {label} — fused rules observe a subset of the objects"
                    );
                    assert_eq!(
                        naive.stats.while_iterations, served.stats.while_iterations,
                        "{family}: {label} — the fixpoint trajectory must be exact"
                    );
                }
            }
        },
    );
}

/// The fused membership/inclusion/nest rules actually fire: on a
/// non-trivial input the serve-mode derivation is strictly smaller than
/// the exact §3 one (the combinator spreads collapse to single fused
/// judgments), and the delta-driven `unnest` reports frontier skips
/// inside the fixpoint.
#[test]
fn fused_derived_shapes_fire() {
    let input = Value::chain(5);
    for (label, q) in fused_shape_queries() {
        let naive = evaluate(&q, &input, &EvalConfig::default());
        let delta = evaluate(&q, &input, &EvalConfig::serve());
        assert_eq!(
            naive.result.as_ref().unwrap(),
            delta.result.as_ref().unwrap(),
            "{label}"
        );
        assert!(
            delta.stats.nodes < naive.stats.nodes,
            "{label}: expected fused rules to shrink {} nodes, got {}",
            naive.stats.nodes,
            delta.stats.nodes
        );
    }
    // the round-trip fixpoint re-fires unnest on grown groupings:
    // the delta rule must serve it incrementally
    let (label, roundtrip) = &fused_shape_queries()[0];
    let delta = evaluate(roundtrip, &input, &EvalConfig::serve());
    assert!(
        delta.stats.delta_hits > 0,
        "{label}: expected delta hits, stats {:?}",
        delta.stats
    );
}

/// The keyed equi-join fires: on a 64-node road grid serve-mode
/// `compose_rel` never observes an object as large as `r × r` (the
/// product is not built), and `tc_while` serves the join of its grown
/// iterates from the delta cache.
#[test]
fn fused_join_fires() {
    let g = nra_testkit::graphs::road_grid(&mut Rng::new(64), 64);
    let input = graph_to_value(&DiGraph::from_edges(g.edges));
    let serve = EvalConfig::serve();
    let product = evaluate(&derived::self_product(), &input, &serve);
    let product_size = product.result.unwrap().size();
    for q in [queries::compose_rel(), queries::siblings_direct()] {
        let ev = evaluate(&q, &input, &serve);
        assert!(ev.result.is_ok(), "{q}: {:?}", ev.result);
        assert!(
            ev.stats.max_object_size < product_size,
            "{q}: max object {} should stay below size(r × r) = {product_size}",
            ev.stats.max_object_size
        );
    }
    let closure = evaluate(&queries::tc_while(), &input, &serve);
    assert!(closure.result.is_ok(), "{:?}", closure.result);
    assert!(
        closure.stats.delta_hits > 0,
        "tc_while: expected delta hits, stats {:?}",
        closure.stats
    );
}

/// Bounded-witness transitive closure: each iterate joins the ≤2-edge
/// subsets of the current relation, so the body is `powersetₘ` applied
/// to a *growing* base — the workload the semi-naive lazy context
/// serves by streaming only frontier subsets.
fn tc_bounded_witness() -> nra_core::Expr {
    let step = compose(
        union(),
        tuple(
            id(),
            pipeline([powerset_m_prim(2), map(queries::compose_rel()), flatten()]),
        ),
    );
    while_fix(step)
}

/// The semi-naive lazy context must stream only *frontier* subsets for
/// `powersetₘ` chains — same answer as the full re-enumeration, on
/// every family, with the skipped re-enumeration reported in
/// `LazyStats::frontier_subsets_skipped`.
#[test]
fn lazy_frontier_streaming_agrees_on_all_families() {
    check(
        "lazy_frontier_streaming_agrees_on_all_families",
        CASES / 2,
        |_, rng| {
            let q = tc_bounded_witness();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let expect = graph_to_value(&tc(&g));
                let plain = evaluate_lazy(&q, &input, &EvalConfig::default());
                assert_eq!(
                    plain.result.as_ref().unwrap(),
                    &expect,
                    "{family}: lazy bounded-witness TC vs graph closure"
                );
                let delta = evaluate_lazy(&q, &input, &EvalConfig::serve());
                assert_eq!(
                    plain.result.as_ref().unwrap(),
                    delta.result.as_ref().unwrap(),
                    "{family}: serve-mode lazy bounded-witness TC"
                );
                assert_eq!(
                    plain.stats.while_iterations, delta.stats.while_iterations,
                    "{family}: the fixpoint trajectory must be exact"
                );
                assert!(
                    delta.stats.streamed_subsets <= plain.stats.streamed_subsets,
                    "{family}: resumption may only shrink the stream"
                );
                // the eager strategy is a second referee
                let eager_ev = evaluate(&q, &input, &EvalConfig::default());
                assert_eq!(eager_ev.result.unwrap(), expect, "{family}: eager referee");
            }
        },
    );
}

/// On a chain long enough to iterate, frontier resumption actually
/// kicks in: incremental streams fire, whole sub-powersets are skipped,
/// and the semi-naive stream is strictly shorter than the naive one.
#[test]
fn lazy_frontier_streaming_skips_resumed_subsets() {
    let q = tc_bounded_witness();
    let input = Value::chain(5);
    let plain = evaluate_lazy(&q, &input, &EvalConfig::default());
    let delta = evaluate_lazy(&q, &input, &EvalConfig::serve());
    assert_eq!(
        plain.result.as_ref().unwrap(),
        delta.result.as_ref().unwrap()
    );
    assert_eq!(plain.result.unwrap(), Value::chain_tc(5));
    assert!(delta.stats.frontier_streams > 0, "{:?}", delta.stats);
    assert!(
        delta.stats.frontier_subsets_skipped > 0,
        "{:?}",
        delta.stats
    );
    assert!(
        delta.stats.streamed_subsets < plain.stats.streamed_subsets,
        "semi-naive streamed {} vs naive {}",
        delta.stats.streamed_subsets,
        plain.stats.streamed_subsets
    );
    // the default mode never counts frontier activity
    assert_eq!(plain.stats.frontier_streams, 0);
    assert_eq!(plain.stats.frontier_subsets_skipped, 0);
}

/// The conformance gate of the fused predicate rules: on *ill-typed*
/// inputs the derived terms have observable behaviour of their own
/// (stuck states; `=_unit` constantly true), and the fused rules must
/// fall back rather than answer from handle comparisons — serve mode
/// stays bit-for-bit the exact derivation even off the well-typed path.
#[test]
fn fused_predicates_preserve_ill_typed_semantics() {
    use nra_eval::EvalError;
    let configs = [EvalConfig::default(), EvalConfig::serve()];
    // member(N) on (true, {1, 2}): eq_nat gets stuck comparing a boolean
    let q = derived::member(&Type::Nat);
    let input = Value::pair(Value::TRUE, Value::set([Value::nat(1), Value::nat(2)]));
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "member(N) on an ill-typed pair must stay stuck: {:?}",
            ev.result
        );
    }
    // member(unit) on ((), {1}): =_unit is constantly true on ANY
    // elements, so the derived term says "yes" even though no element
    // is structurally () — a handle search would say "no"
    let q = derived::member(&Type::Unit);
    let input = Value::pair(Value::Unit, Value::set([Value::nat(1)]));
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert_eq!(
            ev.result.unwrap(),
            Value::TRUE,
            "member(unit) ignores element structure — fused must agree"
        );
    }
    // subset(N) with a boolean hiding in the left set: stuck preserved
    let q = derived::subset(&Type::Nat);
    let input = Value::pair(
        Value::set([Value::TRUE]),
        Value::set([Value::nat(1), Value::nat(2)]),
    );
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "subset(N) over ill-typed elements must stay stuck: {:?}",
            ev.result
        );
    }
    // nest(N, N) with a boolean key: the same-key eq_nat gets stuck
    let q = derived::nest(&Type::Nat, &Type::Nat);
    let input = Value::set([Value::pair(Value::TRUE, Value::nat(1))]);
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "nest(N, N) on an ill-typed key must stay stuck: {:?}",
            ev.result
        );
    }
    // the equi-join's gate: a key that is a boolean or a pair makes the
    // derived selection compare a non-natural on some pair of r × r
    let edge = |a: Value, b: Value| Value::pair(a, b);
    let n = Value::nat;
    for input in [
        Value::set([edge(n(1), n(2)), edge(Value::TRUE, n(3))]),
        Value::set([edge(n(1), n(2)), edge(edge(n(1), n(2)), n(3))]),
    ] {
        for cfg in &configs {
            let ev = evaluate(&queries::compose_rel(), &input, cfg);
            assert!(
                matches!(ev.result, Err(EvalError::Stuck { .. })),
                "compose_rel on {input} must stay stuck: {:?}",
                ev.result
            );
        }
    }
    // siblings_direct: the key b = d compares naturals, but the residual
    // a ≠ c meets a boolean — the derived ∧ evaluates both conjuncts
    let input = Value::set([edge(Value::TRUE, n(2)), edge(n(1), n(2))]);
    for cfg in &configs {
        let ev = evaluate(&queries::siblings_direct(), &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "siblings_direct on {input} must stay stuck: {:?}",
            ev.result
        );
    }
}

/// The join's large-graph rung: `compose_rel`, `tc_step` and
/// `siblings_direct` on the 512-node serving families, and `tc_while`
/// at the `closure_while` serving sizes — serve mode (keyed join) and
/// exact mode (product then filter) must agree bit for bit. Seconds per
/// graph in exact mode, so `#[ignore]`d under debug; CI runs it with
/// `cargo test --release -p nra-eval --test differential -- --include-ignored`.
#[test]
#[ignore = "release-sized: run with --release -- --include-ignored"]
fn fused_join_agrees_with_exact_mode_on_large_graphs() {
    let mut rng = Rng::new(0x501);
    let mut cases = Vec::new();
    for g in nra_testkit::graphs::large_family_graphs(&mut rng, 512) {
        for (label, q) in [
            ("compose_rel", queries::compose_rel()),
            ("tc_step", queries::tc_step()),
            ("siblings_direct", queries::siblings_direct()),
        ] {
            cases.push((g.family, 512, label, q, g.edges.clone()));
        }
    }
    for (g, n) in [
        (nra_testkit::graphs::road_grid(&mut rng, 32), 32),
        (nra_testkit::graphs::power_law(&mut rng, 96), 96),
        (nra_testkit::graphs::two_community(&mut rng, 20), 20),
    ] {
        cases.push((g.family, n, "tc_while", queries::tc_while(), g.edges));
    }
    for (family, n, label, q, edges) in cases {
        let input = graph_to_value(&DiGraph::from_edges(edges));
        let exact = evaluate(&q, &input, &EvalConfig::default());
        let served = evaluate(&q, &input, &EvalConfig::serve());
        assert_eq!(
            exact.result.as_ref().unwrap(),
            served.result.as_ref().unwrap(),
            "{family} {n}: {label}"
        );
        assert_eq!(
            exact.stats.while_iterations, served.stats.while_iterations,
            "{family} {n}: {label}"
        );
        // each graph is a fresh input: drop the previous one's handles
        nra_core::value::intern::reset_thread_arena();
    }
}
