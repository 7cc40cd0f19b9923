//! Materialised derivation trees.
//!
//! §3 defines evaluation `f(C) ⇓ C'` as "a tree, whose nodes are labeled by
//! the rules above, and whose root contains `f(C) ⇓ C'`. The height of the
//! tree depends only on `f`, not on `C`. But the width of this tree may
//! depend on `C`." This module builds that tree explicitly (for inputs
//! small enough to inspect) so that tests and examples can check the
//! height/width claims and render derivations.
//!
//! Like [`crate::eager`], the recursion runs on interned handles — the §3
//! size observations are `O(1)` metadata reads — and each [`DerivNode`]
//! resolves its judgment back to tree [`Value`]s for inspection (the whole
//! point of tracing is to look at the objects).
//!
//! In [`Mode::Serve`] the builder also consults the apply cache:
//! a judgment `f(C) ⇓ C'` already derived is *shared* — the cached
//! sub-derivation is grafted in as an [`Rc`] pointer copy instead of
//! being re-derived, which is the reason [`DerivNode::children`] holds
//! `Rc<DerivNode>`s. The materialised tree is bit-for-bit equal to the
//! unmemoised one (evaluation is pure), but repeated subtrees occupy
//! memory once, and — as in [`crate::eager`] — a hit counts in
//! [`EvalStats::memo_hits`](crate::stats::EvalStats::memo_hits) rather
//! than re-counting the skipped derivation's nodes and observations.
//! Keep [`Mode::Exact`] (the default) when the statistics must be the
//! exact §3 accounting.

use crate::eager::{apply_leaf_vid, record_frontier, Ctx};
use crate::error::{EvalConfig, EvalError, Mode};
use crate::stats::EvalStats;
use nra_core::expr::intern::{self as expr_intern, EId, ENode, ExprArena};
use nra_core::expr::Expr;
use nra_core::value::intern::{self, FxBuildHasher, VId, ValueArena};
use nra_core::value::Value;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// One node of a derivation tree: the rule applied, the judgment
/// `input ⇓ output`, and the sub-derivations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivNode {
    /// The rule label (an `Expr::head_name`).
    pub rule: &'static str,
    /// The argument object `C`.
    pub input: Value,
    /// The result object `C'`.
    pub output: Value,
    /// Sub-derivations, in evaluation order. `Rc`-shared so the memoised
    /// builder can graft an already-derived subtree in `O(1)`; all tree
    /// measures ([`DerivNode::node_count`], …) count with multiplicity,
    /// as the §3 tree semantics require.
    pub children: Vec<Rc<DerivNode>>,
}

impl DerivNode {
    /// Total number of nodes of the tree (with multiplicity — shared
    /// subtrees count each time they occur).
    pub fn node_count(&self) -> u64 {
        1 + self.children.iter().map(|c| c.node_count()).sum::<u64>()
    }

    /// Height of the tree (a single node has height 1). §3: "the height of
    /// the tree depends only on f, not on C".
    pub fn height(&self) -> u64 {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }

    /// Maximum branching factor (§3: "the width of this tree may depend on
    /// C").
    pub fn max_branching(&self) -> usize {
        self.children.len().max(
            self.children
                .iter()
                .map(|c| c.max_branching())
                .max()
                .unwrap_or(0),
        )
    }

    /// The largest object size occurring in the tree — the §3 complexity,
    /// recomputed from the materialised tree (tests check it against the
    /// streaming statistics).
    pub fn max_object_size(&self) -> u64 {
        let here = self.input.size().max(self.output.size());
        self.children
            .iter()
            .map(|c| c.max_object_size())
            .fold(here, u64::max)
    }

    /// Render the tree with one judgment per line, truncating objects to
    /// `width` characters.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, width);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, width: usize) {
        let clip = |v: &Value| {
            let s = v.to_string();
            if s.len() > width {
                let mut end = width;
                while end > 0 && !s.is_char_boundary(end) {
                    end -= 1;
                }
                format!("{}…", &s[..end])
            } else {
                s
            }
        };
        let _ = writeln!(
            out,
            "{}[{}] {} ⇓ {}",
            "  ".repeat(depth),
            self.rule,
            clip(&self.input),
            clip(&self.output),
        );
        for child in &self.children {
            child.render_into(out, depth + 1, width);
        }
    }
}

/// A traced evaluation: the derivation tree (or error) plus §3 statistics
/// identical to what the plain evaluator would report.
#[derive(Debug, Clone)]
pub struct TracedEvaluation {
    /// The derivation tree, or the error that interrupted it.
    pub result: Result<DerivNode, EvalError>,
    /// §3 statistics.
    pub stats: EvalStats,
}

/// The trace-side apply cache: each derived judgment keyed by
/// `(interned expression, interned input)`, holding the shared
/// sub-derivation, its output handle, and the as-if-uncached cost of
/// the subtree (charged on a hit so node budgets stay
/// strategy-independent).
type TraceMemo = HashMap<(EId, VId), (Rc<DerivNode>, VId, u64), FxBuildHasher>;

/// The trace-side delta cache (semi-naive iteration): per `map` node,
/// the last application's input/output and its per-element
/// sub-derivations `element ↦ (shared child, image, cost)`, so a
/// grown input re-derives the frontier only and grafts the rest.
type TraceDelta = HashMap<EId, TraceDeltaEntry, FxBuildHasher>;

struct TraceDeltaEntry {
    input: VId,
    children: HashMap<VId, (Rc<DerivNode>, VId, u64), FxBuildHasher>,
}

/// Evaluate while materialising the full derivation tree. Use only on
/// small inputs — the tree holds every intermediate object in resolved
/// (tree) form. Budgets from `config` apply exactly as in
/// [`crate::eager::evaluate`]; in [`Mode::Serve`] repeated
/// judgments are grafted from the apply cache as shared subtrees (see
/// the module docs for the statistics caveat).
pub fn evaluate_traced(expr: &Expr, input: &Value, config: &EvalConfig) -> TracedEvaluation {
    intern::with_arena(|va| expr_intern::with_arena(|ea| trace_with(expr, input, config, ea, va)))
}

/// Run one traced evaluation against explicitly supplied arenas — the
/// engine-layer entry point sessions call; [`evaluate_traced`] is its
/// thread-local facade. The trace-side memo/delta caches are per-call
/// (they hold `Rc`-shared materialised subtrees, not session state).
pub(crate) fn trace_with(
    expr: &Expr,
    input: &Value,
    config: &EvalConfig,
    ea: &mut ExprArena,
    va: &mut ValueArena,
) -> TracedEvaluation {
    let mut ctx = Ctx::new(config);
    let (dense_ops0, dense_promotions0) = va.dense_counters();
    let iv = va.intern(input);
    let eid = ea.intern(expr);
    let serve = config.mode == Mode::Serve;
    let mut memo: Option<TraceMemo> = serve.then(TraceMemo::default);
    let mut delta: Option<TraceDelta> = serve.then(TraceDelta::default);
    let traced = trace_eid(eid, iv, &mut ctx, &mut memo, &mut delta, ea, va);
    // release the caches' Rc references first, so the root node is
    // uniquely owned and unwraps without an O(object-size) deep clone
    drop(memo);
    drop(delta);
    let result =
        traced.map(|(node, _)| Rc::try_unwrap(node).unwrap_or_else(|shared| (*shared).clone()));
    let mut stats = ctx.finish();
    let (dense_ops1, dense_promotions1) = va.dense_counters();
    stats.dense_ops = dense_ops1 - dense_ops0;
    stats.dense_promotions = dense_promotions1 - dense_promotions0;
    TracedEvaluation { result, stats }
}

/// One derivation node over the *interned* expression: returns the
/// materialised node plus the interned handle of its output (so parents
/// can keep evaluating on handles). With `memo` present (in
/// [`Mode::Serve`]) every judgment is first looked up in the apply
/// cache — a hit grafts the cached subtree in as an `Rc` copy and skips
/// the re-derivation, counting in
/// [`EvalStats::memo_hits`](crate::stats::EvalStats::memo_hits) instead
/// of the §3 counters; with `memo` absent this is the exact §3 builder
/// (its statistics coincide with the plain eager evaluator's).
#[allow(clippy::too_many_arguments)]
fn trace_eid(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    memo: &mut Option<TraceMemo>,
    delta: &mut Option<TraceDelta>,
    ea: &ExprArena,
    va: &mut ValueArena,
) -> Result<(Rc<DerivNode>, VId), EvalError> {
    if let Some(memo) = memo.as_ref() {
        if let Some((node, out, cost)) = memo.get(&(eid, input)) {
            ctx.stats.memo_hits += 1;
            let (node, out, cost) = (Rc::clone(node), *out, *cost);
            ctx.charge(cost)?;
            return Ok((node, out));
        }
        ctx.stats.memo_misses += 1;
    }
    let cost_start = ctx.charged_nodes;
    let enode = ea.node(eid);
    let rule = enode.head_name();
    ctx.node(enode.head_index())?;
    ctx.observe_vid(va, input)?;
    let (output, children) = match enode {
        ENode::Tuple(f, g) => {
            let (a, av) = trace_eid(f, input, ctx, memo, delta, ea, va)?;
            let (b, bv) = trace_eid(g, input, ctx, memo, delta, ea, va)?;
            (va.pair(av, bv), vec![a, b])
        }
        ENode::Map(f) => trace_map(eid, f, input, ctx, memo, delta, ea, va)?,
        ENode::Cond(c, then, els) => {
            let (cnode, cv) = trace_eid(c, input, ctx, memo, delta, ea, va)?;
            let (branch, bv) = match va.as_bool(cv) {
                Some(true) => trace_eid(then, input, ctx, memo, delta, ea, va)?,
                Some(false) => trace_eid(els, input, ctx, memo, delta, ea, va)?,
                None => {
                    return Err(EvalError::Stuck {
                        rule: "if",
                        detail: "condition is not boolean".into(),
                    })
                }
            };
            (bv, vec![cnode, branch])
        }
        ENode::Compose(g, f) => {
            let (fnode, fv) = trace_eid(f, input, ctx, memo, delta, ea, va)?;
            let (gnode, gv) = trace_eid(g, fv, ctx, memo, delta, ea, va)?;
            (gv, vec![fnode, gnode])
        }
        ENode::While(f) => {
            let mut children = Vec::new();
            let mut current = input;
            let mut iterations: u64 = 0;
            loop {
                let (child, next) = trace_eid(f, current, ctx, memo, delta, ea, va)?;
                children.push(child);
                iterations += 1;
                ctx.stats.while_iterations += 1;
                // thread (total, delta), exactly as the eager walker
                record_frontier(ctx, va, current, next);
                if next == current {
                    break;
                }
                if iterations >= ctx.config.max_while_iters {
                    return Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
            (current, children)
        }
        ENode::Leaf(leaf) => (apply_leaf_vid(&leaf, input, ctx, va)?, Vec::new()),
    };
    ctx.observe_vid(va, output)?;
    let node = Rc::new(DerivNode {
        rule,
        input: va.resolve(input),
        output: va.resolve(output),
        children,
    });
    if let Some(memo) = memo.as_mut() {
        memo.insert(
            (eid, input),
            (Rc::clone(&node), output, ctx.charged_nodes - cost_start),
        );
    }
    Ok((node, output))
}

/// The `map` rule of [`trace_eid`]: in [`Mode::Serve`], a
/// grown input re-derives only the frontier elements and grafts the
/// previous application's per-element sub-derivations in as `Rc`
/// copies — the materialised tree is bit-for-bit the naive one
/// (evaluation is pure), with the reused elements' recorded costs
/// charged against the node budget exactly as the eager walker does.
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)]
fn trace_map(
    eid: EId,
    f: EId,
    input: VId,
    ctx: &mut Ctx,
    memo: &mut Option<TraceMemo>,
    delta: &mut Option<TraceDelta>,
    ea: &ExprArena,
    va: &mut ValueArena,
) -> Result<(VId, Vec<Rc<DerivNode>>), EvalError> {
    let items = va.as_set(input).ok_or(EvalError::Stuck {
        rule: "map",
        detail: "input is not a set".into(),
    })?;
    // take the node's previous application out of the cache (no map
    // node can recursively contain itself, so nothing re-enters)
    let prev = delta.as_mut().and_then(|d| d.remove(&eid));
    let reusable = prev.and_then(|e| {
        if e.input == input {
            return Some((e, va.empty_set()));
        }
        let (union, fresh) = va.set_merge_delta(e.input, input)?;
        (union == input).then_some((e, fresh))
    });
    let mut children = Vec::with_capacity(items.len());
    let mut out = Vec::with_capacity(items.len());
    match reusable {
        Some((mut entry, fresh)) => {
            let fresh_items = va.as_set(fresh).expect("frontier is a set");
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped += (items.len() - fresh_items.len()) as u64;
            for &item in items.iter() {
                if fresh_items.binary_search(&item).is_err() {
                    // carried over from the previous application: graft
                    // the shared subtree and charge its recorded cost
                    let (child, cv, cost) =
                        entry.children.get(&item).expect("previous element traced");
                    let (child, cv, cost) = (Rc::clone(child), *cv, *cost);
                    ctx.charge(cost)?;
                    out.push(cv);
                    children.push(child);
                } else {
                    let start = ctx.charged_nodes;
                    let (child, cv) = trace_eid(f, item, ctx, memo, delta, ea, va)?;
                    entry
                        .children
                        .insert(item, (Rc::clone(&child), cv, ctx.charged_nodes - start));
                    out.push(cv);
                    children.push(child);
                }
            }
            let output = va.set_from_vec(out);
            entry.input = input;
            if let Some(d) = delta.as_mut() {
                d.insert(eid, entry);
            }
            Ok((output, children))
        }
        None => {
            let mut fresh_children: HashMap<VId, (Rc<DerivNode>, VId, u64), FxBuildHasher> =
                HashMap::default();
            for &item in items.iter() {
                let start = ctx.charged_nodes;
                let (child, cv) = trace_eid(f, item, ctx, memo, delta, ea, va)?;
                if delta.is_some() {
                    fresh_children.insert(item, (Rc::clone(&child), cv, ctx.charged_nodes - start));
                }
                out.push(cv);
                children.push(child);
            }
            let output = va.set_from_vec(out);
            if let Some(d) = delta.as_mut() {
                d.insert(
                    eid,
                    TraceDeltaEntry {
                        input,
                        children: fresh_children,
                    },
                );
            }
            Ok((output, children))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::evaluate;
    use nra_core::builder::*;

    #[test]
    fn trace_agrees_with_plain_evaluation() {
        let cfg = EvalConfig::default();
        let queries = [
            compose(flatten(), map(sng())),
            nra_core::queries::tc_step(),
            nra_core::queries::tc_while(),
            compose(
                map(nra_core::derived::is_singleton(&nra_core::Type::prod(
                    nra_core::Type::Nat,
                    nra_core::Type::Nat,
                ))),
                powerset(),
            ),
        ];
        for q in &queries {
            for n in 0..4u64 {
                let input = Value::chain(n);
                let plain = evaluate(q, &input, &cfg);
                let traced = evaluate_traced(q, &input, &cfg);
                let tree = traced.result.unwrap();
                assert_eq!(tree.output, plain.result.unwrap());
                assert_eq!(traced.stats, plain.stats, "stats must coincide");
                assert_eq!(tree.node_count(), traced.stats.nodes);
                assert_eq!(tree.max_object_size(), traced.stats.max_object_size);
            }
        }
    }

    #[test]
    fn height_depends_only_on_the_expression() {
        // §3: height is input-independent (for expressions without
        // while/compose-on-data effects — map children all have equal
        // height because the body is fixed).
        let q = compose(flatten(), map(sng()));
        let h: Vec<u64> = (1..5)
            .map(|n| {
                evaluate_traced(&q, &Value::chain(n), &EvalConfig::default())
                    .result
                    .unwrap()
                    .height()
            })
            .collect();
        assert!(h.windows(2).all(|w| w[0] == w[1]), "{h:?}");
    }

    #[test]
    fn width_depends_on_the_input() {
        let q = map(sng());
        let widths: Vec<usize> = (1..5)
            .map(|n| {
                evaluate_traced(&q, &Value::chain(n), &EvalConfig::default())
                    .result
                    .unwrap()
                    .max_branching()
            })
            .collect();
        assert_eq!(widths, vec![1, 2, 3, 4]);
    }

    #[test]
    fn memoised_trace_is_bit_identical_and_reports_hits() {
        let cfg = EvalConfig::default();
        let serve_cfg = EvalConfig::serve();
        for q in [
            compose(flatten(), map(sng())),
            nra_core::queries::tc_step(),
            nra_core::queries::tc_while(),
        ] {
            for n in 0..5u64 {
                let input = Value::chain(n);
                let plain = evaluate_traced(&q, &input, &cfg);
                let memo = evaluate_traced(&q, &input, &serve_cfg);
                let pt = plain.result.unwrap();
                let mt = memo.result.unwrap();
                // the materialised tree is bit-for-bit the unmemoised one
                assert_eq!(pt, mt, "{q} n={n}");
                // hits replace re-derivations: the §3 counters can only
                // shrink
                assert!(memo.stats.nodes <= plain.stats.nodes, "{q} n={n}");
                assert!(
                    memo.stats.max_object_size <= plain.stats.max_object_size,
                    "{q} n={n}"
                );
                assert_eq!(plain.stats.memo_hits, 0, "exact mode must not count");
            }
        }
        // the while route actually exercises the cache: its body re-visits
        // elements already mapped in earlier iterates
        let memo = evaluate_traced(&nra_core::queries::tc_while(), &Value::chain(3), &serve_cfg);
        assert!(memo.stats.memo_hits > 0, "expected apply-cache hits");
    }

    #[test]
    fn renders_readably() {
        let q = compose(is_empty(), map(sng()));
        let tree = evaluate_traced(&q, &Value::chain(1), &EvalConfig::default())
            .result
            .unwrap();
        let text = tree.render(40);
        assert!(text.contains("[compose]"));
        assert!(text.contains("[isempty]"));
        assert!(text.lines().count() as u64 == tree.node_count());
    }
}
