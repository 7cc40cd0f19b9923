//! A streaming ("lazy") evaluation strategy for `powerset` and
//! `powersetₘ`.
//!
//! §3 scopes the lower bound precisely: "our main result will depend (1) on
//! the particular evaluation strategy and (2) on the complexity measure. …
//! it is not obvious whether it still holds for a lazy evaluation
//! strategy." This module makes that caveat concrete: `powerset` (and
//! `powersetₘ`) results are represented *symbolically* (as "the subsets of
//! this base set", optionally cardinality-bounded) and only streamed — one
//! subset at a time — when a consumer such as `map` actually traverses
//! them.
//!
//! Under this strategy the paper's eager measure no longer reflects the
//! memory actually held: for `tc_paths` on the chain `rₙ`, the eager
//! complexity is `2^{Θ(n)}` while the streaming *peak resident size* stays
//! polynomial (the number of subset evaluations — i.e. *time* — remains
//! `2^{Θ(n)}`). Experiment E11 tabulates both.
//!
//! Like [`crate::eager`], the recursion runs on interned handles against
//! an **explicitly threaded** [`ValueArena`]/[`ExprArena`] pair — a
//! session passes its own, the free-function facade passes the
//! thread-locals — so the §3 resident-size accounting reads cached arena
//! metadata and the hot path touches no thread-local state. In the
//! default mode the streamed subsets themselves are built as transient
//! tree values and evaluated on the tree path — interning 2ᵏ throwaway
//! subsets would retain them all in the arena and quietly void the
//! polynomial-resident-space property this strategy exists to
//! demonstrate. Only the base set and the (live) images touch the arena.
//!
//! [`Mode::Serve`] trades that minimality for speed, without ever
//! changing a result: it extends the eager/traced **apply cache** to
//! the per-subset evaluations (subsets are then interned and keyed
//! `(EId, VId)` against one cache shared across the stream, so subtrees
//! recurring across subsets are derived once — hits in
//! [`LazyStats::memo_hits`]), and it runs `while` fixpoints over powerset-free bodies on the delta-driven
//! interned walker — and, for `powersetₘ` (or `powerset`) **chains inside
//! a fixpoint**, resumes the subset stream incrementally: when the same
//! `map` body re-fires over the subsets of a *grown* base (the steady
//! state of a bounded-witness TC loop), only the subsets containing at
//! least one fresh element are streamed and the previous images are
//! folded in ([`LazyStats::frontier_streams`] /
//! [`LazyStats::frontier_subsets_skipped`]).

use crate::eager::{self, binomial, Ctx, MemoState};
use crate::error::{EvalConfig, EvalError, Mode};
use crate::stats::EvalStats;
use nra_core::expr::intern::{self as expr_intern, EId, ExprArena};
use nra_core::expr::Expr;
use nra_core::value::intern::{self, FxBuildHasher, VId, ValueArena};
use nra_core::value::Value;
use std::collections::{BTreeSet, HashMap};

/// Statistics of a streaming evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Peak size (in the §3 measure) of the objects *simultaneously live*:
    /// for a streamed `map`-over-`powerset`, the base set, the current
    /// subset, the accumulator, and the per-subset evaluation's own peak.
    pub peak_resident: u64,
    /// Number of subsets streamed out of symbolic powersets — a proxy for
    /// time, which stays exponential even though space does not.
    pub streamed_subsets: u64,
    /// Derivation-node count (rule applications), including per-subset
    /// work.
    pub nodes: u64,
    /// `while` iterations.
    pub while_iterations: u64,
    /// Apply-cache hits across the per-subset sub-evaluations (only
    /// nonzero in [`Mode::Serve`], which
    /// extends the eager/traced `(EId, VId)` apply cache to the
    /// streaming strategy): a streamed `map`-over-`powerset` whose
    /// subsets share sub-structure stops re-deriving the shared
    /// subtrees. The trade-off is documented on [`evaluate_lazy_vid`]:
    /// cached subsets are interned, so the arena retains them.
    pub memo_hits: u64,
    /// Apply-cache misses across the per-subset sub-evaluations (only
    /// nonzero in `Mode::Serve`).
    pub memo_misses: u64,
    /// The subset of `memo_hits` served by entries written by an
    /// earlier query of the same session (cross-query warm starts) —
    /// always 0 through the free-function facade, exactly as
    /// [`EvalStats::warm_hits`](crate::stats::EvalStats::warm_hits).
    pub warm_hits: u64,
    /// `map`-over-subsets applications served **incrementally** (only
    /// nonzero in [`Mode::Serve`]):
    /// the same body re-fired over the subsets of a grown base — the
    /// steady state of a `powersetₘ` chain inside a `while` — so only
    /// subsets touching the frontier were streamed and the previous
    /// images were folded in.
    pub frontier_streams: u64,
    /// Subsets *not* re-enumerated by those incremental applications
    /// (every subset of the previous base: its image is already in the
    /// folded-in accumulator). Like `delta_skipped` on the eager side,
    /// reported separately — the result is bit-for-bit the full
    /// re-stream's.
    pub frontier_subsets_skipped: u64,
}

impl LazyStats {
    /// Apply-cache hit rate `hits / (hits + misses)`, or 0 when the
    /// cache never ran (exact mode).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Result and statistics of a streaming evaluation.
#[derive(Debug, Clone)]
pub struct LazyEvaluation {
    /// The value, or the error that interrupted evaluation.
    pub result: Result<Value, EvalError>,
    /// Streaming statistics.
    pub stats: LazyStats,
}

/// Result and statistics of a streaming evaluation on interned handles.
#[derive(Debug, Clone)]
pub struct LazyVidEvaluation {
    /// The handle of the result, or the error that interrupted evaluation.
    pub result: Result<VId, EvalError>,
    /// Streaming statistics.
    pub stats: LazyStats,
}

/// A possibly-symbolic intermediate value.
enum Lv {
    /// A fully materialised (interned) object.
    Concrete(VId),
    /// `powerset(base)` (`bound = None`) or `powersetₘ(base)`
    /// (`bound = Some(m)`), not yet materialised.
    Subsets {
        /// The base set whose subsets are denoted.
        base: VId,
        /// Cardinality bound `m` for `powersetₘ`; `None` = full powerset.
        bound: Option<u64>,
    },
}

/// The frontier-resumption cache of the semi-naive streaming route: per
/// `map` body, the last base (and bound) its subset stream ran over and
/// the interned output, so a re-fire over a grown base streams only the
/// subsets touching the fresh elements.
struct SubsetDeltaEntry {
    base: VId,
    bound: Option<u64>,
    output: VId,
}

struct LazyCtx<'a> {
    config: &'a EvalConfig,
    stats: LazyStats,
    /// The value arena every rule runs against — a session's own, or the
    /// thread-local one borrowed for the whole evaluation by the facade.
    va: &'a mut ValueArena,
    /// The expression arena (the cached routes intern bodies mid-stream).
    ea: &'a mut ExprArena,
    /// The shared interned-walker state (expression-node snapshot +
    /// apply/delta caches), present in [`Mode::Serve`]: per-subset
    /// sub-evaluations and
    /// delegated `while` fixpoints all run through [`eager::eval_eid`]
    /// against the same caches.
    state: Option<&'a mut MemoState>,
    /// Frontier-resumption entries, keyed by the streamed `map` body.
    subset_delta: HashMap<EId, SubsetDeltaEntry, FxBuildHasher>,
}

impl<'a> LazyCtx<'a> {
    fn resident(&mut self, size: u64) -> Result<(), EvalError> {
        self.stats.peak_resident = self.stats.peak_resident.max(size);
        match self.config.max_object_size {
            Some(budget) if size > budget => Err(EvalError::SpaceBudgetExceeded {
                required: size,
                budget,
            }),
            _ => Ok(()),
        }
    }

    fn node(&mut self) -> Result<(), EvalError> {
        self.stats.nodes += 1;
        match self.config.max_nodes {
            Some(budget) if self.stats.nodes > budget => {
                Err(EvalError::NodeBudgetExceeded { budget })
            }
            _ => Ok(()),
        }
    }

    /// Run a sub-evaluation eagerly on interned handles, folding its
    /// statistics into ours. Its own peak is *transient* memory and
    /// contributes to `peak_resident` together with whatever `extra_live`
    /// is currently held.
    fn eager_sub(&mut self, expr: &Expr, input: VId, extra_live: u64) -> Result<VId, EvalError> {
        let mut sub = Ctx::new(self.config);
        let out = eager::eval_vid(expr, input, &mut sub, self.va);
        self.merge_sub(&sub.stats, extra_live)?;
        out
    }

    /// Run a sub-evaluation eagerly on the *tree* path — used for the
    /// bodies applied to each streamed subset, so the transient subsets
    /// are never retained by the interning arena.
    fn eager_sub_tree(
        &mut self,
        expr: &Expr,
        input: &Value,
        extra_live: u64,
    ) -> Result<Value, EvalError> {
        let mut sub = Ctx::new(self.config);
        let out = eager::eval_in(expr, input, &mut sub);
        self.merge_sub(&sub.stats, extra_live)?;
        out
    }

    /// Run a sub-evaluation through the shared interned walker
    /// ([`eager::eval_eid`]) — the apply cache persists across *all*
    /// sub-evaluations of this streaming evaluation, which is what lets
    /// streamed subsets share their sub-derivations. The expression is
    /// assumed already interned with the snapshot resynced
    /// ([`LazyCtx::intern_expr`]).
    fn eager_sub_eid(&mut self, eid: EId, input: VId, extra_live: u64) -> Result<VId, EvalError> {
        let mut sub = Ctx::new(self.config);
        let state = self.state.as_deref_mut().expect("cached mode");
        let out = {
            let MemoState { nodes, caches, .. } = state;
            eager::eval_eid(eid, input, &mut sub, nodes, caches, self.va)
        };
        self.merge_sub(&sub.stats, extra_live)?;
        out
    }

    /// Intern an expression and bring the shared walker's node snapshot
    /// up to date — required before the first [`LazyCtx::eager_sub_eid`]
    /// on it.
    fn intern_expr(&mut self, expr: &Expr) -> EId {
        let eid = self.ea.intern(expr);
        self.state
            .as_deref_mut()
            .expect("cached mode")
            .resync(self.ea);
        eid
    }

    fn merge_sub(&mut self, sub: &EvalStats, extra_live: u64) -> Result<(), EvalError> {
        self.stats.nodes += sub.nodes;
        self.stats.while_iterations += sub.while_iterations;
        self.stats.memo_hits += sub.memo_hits;
        self.stats.memo_misses += sub.memo_misses;
        self.stats.warm_hits += sub.warm_hits;
        self.resident(sub.max_object_size.saturating_add(extra_live))
    }
}

/// Evaluate under the streaming strategy.
pub fn evaluate_lazy(expr: &Expr, input: &Value, config: &EvalConfig) -> LazyEvaluation {
    let iv = intern::intern(input);
    let ev = evaluate_lazy_vid(expr, iv, config);
    LazyEvaluation {
        result: ev.result.map(intern::resolve),
        stats: ev.stats,
    }
}

/// Evaluate under the streaming strategy, entirely on interned handles
/// (the calling thread's arenas — the compatibility facade over the
/// engine-layer `lazy_eval_with` entry point sessions use).
///
/// In [`Mode::Serve`] the eager/traced **apply cache** extends to this
/// strategy: per-subset sub-evaluations run on the interned
/// walker, keyed `(EId, VId)` against one cache shared across the whole
/// evaluation, so streamed `map`-over-`powerset` stops re-deriving the
/// subtrees its subsets share (hits in [`LazyStats::memo_hits`]). The
/// price is that streamed subsets are then *interned* — the arena
/// retains one set node per distinct subset — trading the strategy's
/// minimal-retention property for speed; keep [`Mode::Exact`] (the
/// default) when measuring the §3 space story. `while` fixpoints over powerset-free bodies additionally run
/// delta-driven, exactly as in [`eager::evaluate_vid`], and subset
/// streams inside powerset-carrying fixpoints resume incrementally from
/// their previous base (the same retention trade-off applies).
pub fn evaluate_lazy_vid(expr: &Expr, input: VId, config: &EvalConfig) -> LazyVidEvaluation {
    intern::with_arena(|va| {
        expr_intern::with_arena(|ea| {
            let mut state = (config.mode == Mode::Serve).then(|| MemoState::acquire_pooled(ea));
            let ev = lazy_eval_with(expr, input, config, va, ea, state.as_mut());
            if let Some(state) = state {
                state.release_pooled();
            }
            ev
        })
    })
}

/// Run one streaming evaluation against explicitly supplied arenas and
/// (for the cached routes) walker state — the engine-layer entry point
/// sessions call; [`evaluate_lazy_vid`] is its thread-local facade.
pub(crate) fn lazy_eval_with(
    expr: &Expr,
    input: VId,
    config: &EvalConfig,
    va: &mut ValueArena,
    ea: &mut ExprArena,
    state: Option<&mut MemoState>,
) -> LazyVidEvaluation {
    let mut ctx = LazyCtx {
        config,
        stats: LazyStats::default(),
        va,
        ea,
        state,
        subset_delta: HashMap::default(),
    };
    let result = match lazy_in(expr, Lv::Concrete(input), &mut ctx) {
        Ok(lv) => force(lv, &mut ctx),
        Err(e) => Err(e),
    };
    LazyVidEvaluation {
        result,
        stats: ctx.stats,
    }
}

/// Materialise a symbolic value (falls back to the eager powerset rules).
fn force(lv: Lv, ctx: &mut LazyCtx) -> Result<VId, EvalError> {
    match lv {
        Lv::Concrete(v) => {
            ctx.resident(ctx.va.size(v))?;
            Ok(v)
        }
        Lv::Subsets { base, bound } => {
            let expr = match bound {
                None => Expr::Powerset,
                Some(m) => Expr::PowersetM(m),
            };
            let mut sub = Ctx::new(ctx.config);
            let out = eager::eval_vid(&expr, base, &mut sub, ctx.va);
            ctx.merge_sub(&sub.stats, 0)?;
            out
        }
    }
}

fn stuck(rule: &'static str, detail: &str) -> EvalError {
    EvalError::Stuck {
        rule,
        detail: detail.to_string(),
    }
}

/// Number of subsets of an `n`-element set with cardinality ≤ `bound`
/// (saturating) — what a resumed stream *skips* re-enumerating.
fn subset_count(n: usize, bound: Option<u64>) -> u64 {
    let total: u128 = match bound {
        None => 1u128 << n.min(127),
        Some(m) => (0..=m.min(n as u64)).map(|i| binomial(n as u64, i)).sum(),
    };
    u64::try_from(total).unwrap_or(u64::MAX)
}

/// Enumerate every index combination of `0..n` with size ≤ `max_len`,
/// calling `f` once per combination (the empty one included), in DFS
/// order. The streaming routes use this instead of a 2ⁿ mask scan so a
/// cardinality-bounded stream costs `Σᵢ C(n, i)`, not `2ⁿ`.
fn for_each_combination(
    n: usize,
    max_len: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    fn rec(
        start: usize,
        n: usize,
        remaining: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        f(cur)?;
        if remaining == 0 {
            return Ok(());
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, remaining - 1, cur, f)?;
            cur.pop();
        }
        Ok(())
    }
    rec(0, n, max_len, &mut Vec::with_capacity(max_len), f)
}

fn lazy_in(expr: &Expr, input: Lv, ctx: &mut LazyCtx) -> Result<Lv, EvalError> {
    ctx.node()?;
    match expr {
        Expr::Compose(g, f) => {
            let mid = lazy_in(f, input, ctx)?;
            lazy_in(g, mid, ctx)
        }
        Expr::Powerset => {
            let base = force(input, ctx)?;
            if ctx.va.cardinality(base).is_none() {
                return Err(stuck("powerset", "input is not a set"));
            }
            Ok(Lv::Subsets { base, bound: None })
        }
        Expr::PowersetM(m) => {
            let base = force(input, ctx)?;
            if ctx.va.cardinality(base).is_none() {
                return Err(stuck("powerset_m", "input is not a set"));
            }
            Ok(Lv::Subsets {
                base,
                bound: Some(*m),
            })
        }
        Expr::Flatten => match input {
            // μ(powerset(x)) = x; μ(powersetₘ(x)) = x for m ≥ 1, ∅ for
            // m = 0 ({∅} is the only subset) — no subset is ever streamed.
            Lv::Subsets { base, bound } => match bound {
                Some(0) => Ok(Lv::Concrete(ctx.va.empty_set())),
                _ => Ok(Lv::Concrete(base)),
            },
            Lv::Concrete(v) => Ok(Lv::Concrete(ctx.eager_sub(&Expr::Flatten, v, 0)?)),
        },
        Expr::IsEmpty => match input {
            // powerset(ₘ)(x) always contains ∅, hence is never empty.
            Lv::Subsets { .. } => Ok(Lv::Concrete(ctx.va.bool_(false))),
            Lv::Concrete(v) => Ok(Lv::Concrete(ctx.eager_sub(&Expr::IsEmpty, v, 0)?)),
        },
        Expr::Map(f) => match input {
            Lv::Subsets { base, bound } => stream_map(f, base, bound, ctx),
            Lv::Concrete(v) => {
                let items = ctx
                    .va
                    .as_set(v)
                    .ok_or_else(|| stuck("map", "input is not a set"))?;
                let mut out = Vec::with_capacity(items.len());
                for &item in items.iter() {
                    let image = lazy_in(f, Lv::Concrete(item), ctx)?;
                    out.push(force(image, ctx)?);
                }
                let out = ctx.va.set_from_vec(out);
                ctx.resident(ctx.va.size(out))?;
                Ok(Lv::Concrete(out))
            }
        },
        Expr::Tuple(f, g) => {
            let v = force(input, ctx)?;
            let a = force(lazy_in(f, Lv::Concrete(v), ctx)?, ctx)?;
            let b = force(lazy_in(g, Lv::Concrete(v), ctx)?, ctx)?;
            Ok(Lv::Concrete(ctx.va.pair(a, b)))
        }
        Expr::Cond(c, then, els) => {
            let v = force(input, ctx)?;
            let cv = force(lazy_in(c, Lv::Concrete(v), ctx)?, ctx)?;
            match ctx.va.as_bool(cv) {
                Some(true) => lazy_in(then, Lv::Concrete(v), ctx),
                Some(false) => lazy_in(els, Lv::Concrete(v), ctx),
                None => Err(stuck("if", "condition is not boolean")),
            }
        }
        Expr::While(f) => {
            let current = force(input, ctx)?;
            let level = expr.level();
            if ctx.state.is_some() && !level.powerset && !level.powerset_m {
                // The lazy context threads (total, delta) through the
                // fixpoint by delegating it wholesale to the interned
                // walker: a powerset-free body never streams, so the
                // delta-driven, memoised eager rules compute the
                // bit-identical trajectory with frontier-only work.
                let weid = ctx.intern_expr(expr);
                return Ok(Lv::Concrete(ctx.eager_sub_eid(weid, current, 0)?));
            }
            // a powerset(ₘ)-carrying body iterates here, streaming its
            // subsets per iterate — with frontier resumption across
            // iterates under the semi-naive switch (see `stream_map`)
            let mut current = current;
            let mut iterations: u64 = 0;
            loop {
                let next = force(lazy_in(f, Lv::Concrete(current), ctx)?, ctx)?;
                iterations += 1;
                ctx.stats.while_iterations += 1;
                // O(1) fixpoint test on handles
                if next == current {
                    break Ok(Lv::Concrete(current));
                }
                if iterations >= ctx.config.max_while_iters {
                    break Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
        }
        leaf => {
            let v = force(input, ctx)?;
            Ok(Lv::Concrete(ctx.eager_sub(leaf, v, 0)?))
        }
    }
}

/// Stream the subsets of `base` (cardinality-bounded for `powersetₘ`)
/// through the `map` body `f`: only base + current subset + accumulator
/// + per-subset transient memory are live at any point.
fn stream_map(f: &Expr, base: VId, bound: Option<u64>, ctx: &mut LazyCtx) -> Result<Lv, EvalError> {
    let items = ctx
        .va
        .as_set(base)
        .ok_or_else(|| stuck("map", "powerset base is not a set"))?;
    if items.len() > 62 {
        return Err(EvalError::PowersetOverflow {
            input_cardinality: items.len() as u64,
        });
    }
    let base_size = ctx.va.size(base);
    let max_len = bound.map_or(items.len(), |m| (m.min(items.len() as u64)) as usize);
    let mut acc: BTreeSet<VId> = BTreeSet::new();
    let mut acc_size: u64 = 1;
    if ctx.state.is_some() {
        // The sharing-aware route (Mode::Serve): each subset is
        // interned and evaluated through the shared interned walker —
        // keyed (EId, VId) in the apply
        // cache shared across the whole stream, so sub-derivations
        // recurring across subsets are found instead of re-derived. This
        // deliberately retains the streamed subsets in the arena — see
        // `evaluate_lazy_vid`.
        let feid = ctx.intern_expr(f);
        // Frontier resumption: when this body
        // last streamed over a base' ⊆ base with the same bound — the
        // steady state of a powersetₘ chain inside a while — seed the
        // accumulator with the previous images and stream only the
        // subsets containing at least one fresh element. map distributes
        // over the subset stream subset-by-subset, so the folded result
        // is bit-for-bit the full re-stream's.
        let previous = ctx
            .subset_delta
            .get(&feid)
            .filter(|entry| entry.bound == bound)
            .map(|entry| (entry.base, entry.output));
        let resumed = previous.and_then(|(prev_base, prev_out)| {
            if prev_base == base {
                return Some((prev_out, Vec::new(), items.to_vec()));
            }
            if ctx.va.is_subset(prev_base, base) != Some(true) {
                return None;
            }
            let old = ctx.va.as_set(prev_base).expect("previous base is a set");
            let fresh: Vec<VId> = items
                .iter()
                .copied()
                .filter(|e| old.binary_search(e).is_err())
                .collect();
            Some((prev_out, fresh, old.to_vec()))
        });
        match resumed {
            Some((prev_out, fresh, old)) => {
                ctx.stats.frontier_streams += 1;
                ctx.stats.frontier_subsets_skipped += subset_count(old.len(), bound);
                let prev_items = ctx
                    .va
                    .as_set(prev_out)
                    .expect("map over subsets yields a set");
                acc.extend(prev_items.iter().copied());
                acc_size = ctx.va.size(prev_out);
                // subsets with ≥ 1 fresh element: a nonempty combination
                // of fresh elements unioned with any combination of old
                // ones, within the cardinality bound (each subset needs
                // its own vector anyway — the arena takes ownership)
                for_each_combination(fresh.len(), max_len.min(fresh.len()), &mut |fidx| {
                    if fidx.is_empty() {
                        return Ok(()); // the all-old subsets are skipped
                    }
                    let old_room = max_len - fidx.len();
                    for_each_combination(old.len(), old_room.min(old.len()), &mut |oidx| {
                        let subset: Vec<VId> = fidx
                            .iter()
                            .map(|&i| fresh[i])
                            .chain(oidx.iter().map(|&i| old[i]))
                            .collect();
                        stream_one_interned(feid, subset, base_size, &mut acc, &mut acc_size, ctx)
                    })
                })?;
            }
            None => {
                for_each_combination(items.len(), max_len, &mut |idx| {
                    let subset: Vec<VId> = idx.iter().map(|&i| items[i]).collect();
                    stream_one_interned(feid, subset, base_size, &mut acc, &mut acc_size, ctx)
                })?;
            }
        }
        let output = ctx.va.set(acc);
        ctx.subset_delta.insert(
            feid,
            SubsetDeltaEntry {
                base,
                bound,
                output,
            },
        );
        Ok(Lv::Concrete(output))
    } else {
        // The default route: subsets are deliberately built as
        // *transient tree values* and evaluated on the tree path —
        // interning them would retain all 2ᵏ subsets in the
        // never-shrinking arena, silently trading the strategy's
        // polynomial peak-resident guarantee for speed. Only the images
        // — genuinely live in the accumulator — are interned.
        let elems: Vec<Value> = items.iter().map(|&e| ctx.va.resolve(e)).collect();
        for_each_combination(elems.len(), max_len, &mut |idx| {
            let subset = Value::set(idx.iter().map(|&i| elems[i].clone()));
            ctx.stats.streamed_subsets += 1;
            let live = base_size + subset.size() + acc_size;
            let image = ctx.eager_sub_tree(f, &subset, live)?;
            let image = ctx.va.intern(&image);
            if acc.insert(image) {
                acc_size += ctx.va.size(image);
            }
            ctx.resident(live)
        })?;
        let output = ctx.va.set(acc);
        Ok(Lv::Concrete(output))
    }
}

/// Stream one interned subset through the shared walker, folding its
/// image into the accumulator.
fn stream_one_interned(
    feid: EId,
    subset: Vec<VId>,
    base_size: u64,
    acc: &mut BTreeSet<VId>,
    acc_size: &mut u64,
    ctx: &mut LazyCtx,
) -> Result<(), EvalError> {
    let subset = ctx.va.set_from_vec(subset);
    ctx.stats.streamed_subsets += 1;
    let live = base_size + ctx.va.size(subset) + *acc_size;
    let image = ctx.eager_sub_eid(feid, subset, live)?;
    if acc.insert(image) {
        *acc_size += ctx.va.size(image);
    }
    ctx.resident(live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::evaluate;
    use nra_core::builder::*;
    use nra_core::queries;

    #[test]
    fn lazy_agrees_with_eager_on_queries() {
        let cfg = EvalConfig::default();
        for n in 0..6u64 {
            let input = Value::chain(n);
            for q in [
                queries::tc_paths(),
                queries::tc_while(),
                queries::siblings_powerset(),
                compose(flatten(), map(sng())),
            ] {
                let eager_out = evaluate(&q, &input, &cfg).result.unwrap();
                let lazy_out = evaluate_lazy(&q, &input, &cfg).result.unwrap();
                assert_eq!(eager_out, lazy_out, "n = {n}");
            }
        }
    }

    #[test]
    fn streaming_keeps_peak_resident_small() {
        let cfg = EvalConfig::default();
        let q = queries::tc_paths();
        let n = 9;
        let eager_ev = evaluate(&q, &Value::chain(n), &cfg);
        let lazy_ev = evaluate_lazy(&q, &Value::chain(n), &cfg);
        assert_eq!(eager_ev.result.unwrap(), lazy_ev.result.clone().unwrap());
        let eager_peak = eager_ev.stats.max_object_size;
        let lazy_peak = lazy_ev.stats.peak_resident;
        // eager materialises powerset(r₉): > 2⁹ · something; lazy holds a
        // few polynomial objects.
        assert!(
            eager_peak > 8 * lazy_peak,
            "eager {eager_peak} vs lazy {lazy_peak}"
        );
        // but the *time* (streamed subsets) is still 2⁹
        assert_eq!(lazy_ev.stats.streamed_subsets, 512);
    }

    #[test]
    fn flatten_of_powerset_is_identity() {
        let q = compose(flatten(), powerset());
        let v = Value::chain(5);
        let ev = evaluate_lazy(&q, &v, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), v);
        // no subsets were ever streamed
        assert_eq!(ev.stats.streamed_subsets, 0);
    }

    #[test]
    fn flatten_of_powerset_m_respects_the_bound() {
        let v = Value::chain(4);
        // m ≥ 1: the subsets' union is the base itself
        let q = compose(flatten(), powerset_m_prim(2));
        let ev = evaluate_lazy(&q, &v, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), v);
        assert_eq!(ev.stats.streamed_subsets, 0);
        // m = 0: powerset₀(x) = {∅}, whose union is ∅
        let q0 = compose(flatten(), powerset_m_prim(0));
        let ev0 = evaluate_lazy(&q0, &v, &EvalConfig::default());
        assert_eq!(ev0.result.unwrap(), Value::empty_set());
    }

    #[test]
    fn powerset_m_streams_only_bounded_subsets() {
        // map(sng) over powersetₘ(r₄): Σ_{i≤2} C(4,i) = 11 subsets
        let q = compose(map(sng()), powerset_m_prim(2));
        let input = Value::chain(4);
        let lazy_ev = evaluate_lazy(&q, &input, &EvalConfig::default());
        let eager_ev = evaluate(&q, &input, &EvalConfig::default());
        assert_eq!(lazy_ev.result.unwrap(), eager_ev.result.unwrap());
        assert_eq!(lazy_ev.stats.streamed_subsets, 11);
    }

    #[test]
    fn isempty_of_powerset_short_circuits() {
        let q = compose(is_empty(), powerset());
        let ev = evaluate_lazy(&q, &Value::empty_set(), &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), Value::FALSE);
        assert_eq!(ev.stats.streamed_subsets, 0);
    }

    #[test]
    fn budget_applies_to_resident_not_streamed_total() {
        // A budget far below the eager powerset size still admits the
        // streamed evaluation.
        let q = queries::tc_paths();
        let n = 8;
        let eager_needed = evaluate(&q, &Value::chain(n), &EvalConfig::default())
            .stats
            .max_object_size;
        let cfg = EvalConfig::with_space_budget(eager_needed / 4);
        let lazy_ev = evaluate_lazy(&q, &Value::chain(n), &cfg);
        assert!(lazy_ev.result.is_ok(), "{:?}", lazy_ev.result);
        let eager_ev = evaluate(&q, &Value::chain(n), &cfg);
        assert!(matches!(
            eager_ev.result,
            Err(EvalError::SpaceBudgetExceeded { .. })
        ));
    }

    #[test]
    fn streaming_does_not_retain_subsets_in_the_arena() {
        // the point of the strategy: 2ⁿ subsets are streamed, but they are
        // transient tree values — the arena must grow by far less than 2ⁿ
        // (only the base, the images actually live in the accumulator, and
        // boundary conversions)
        let n = 10u64;
        let input = intern::chain(n);
        let before = intern::arena_stats().nodes;
        let ev = evaluate_lazy_vid(&queries::tc_paths(), input, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), intern::chain_tc(n));
        assert_eq!(ev.stats.streamed_subsets, 1 << n);
        let delta = intern::arena_stats().nodes - before;
        assert!(
            delta < (1 << n) / 2,
            "arena grew by {delta} nodes for 2^{n} streamed subsets — \
             transient subsets are being retained"
        );
    }

    #[test]
    fn lazy_vid_stays_on_handles() {
        let input = intern::chain(6);
        let ev = evaluate_lazy_vid(&queries::tc_paths(), input, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), intern::chain_tc(6));
    }
}
