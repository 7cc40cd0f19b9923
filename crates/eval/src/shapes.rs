//! Structural recognition of the *type-parameterised* Prop 2.1 derived
//! shapes over interned expression nodes.
//!
//! The monomorphic derived terms (`cartprod`, `unnest`) are recognised by
//! handle equality: hash-consing gives every occurrence the same `EId`.
//! Equality-at-a-type, membership, inclusion and `nest` cannot be — each
//! type instantiation interns to a different handle — so the semi-naive
//! walker matches their combinator skeletons structurally instead:
//!
//! * `eq_at(t)` — the type-directed grammar of [`nra_core::derived::eq_at`]
//!   (`=_N`; constantly-true at `unit`; the biconditional at `B`;
//!   componentwise at products; antisymmetric inclusion at sets);
//! * `member(t) = ¬empty ∘ σ_{=ₜ} ∘ ρ₂`;
//! * `subset(t) = empty ∘ σ_{¬∈} ∘ ρ₁`;
//! * `nest(s,t) = map(⟨π₁, image⟩) ∘ ρ₁ ∘ ⟨map(π₁), id⟩`;
//! * the equi-join `σ_p ∘ ×` / `σ_p ∘ × ∘ ⟨id, id⟩`, where `p` is a
//!   projection equality `=_N ∘ ⟨π₁ ∘ …, π₂ ∘ …⟩` across the two
//!   product components, optionally conjoined (`∧`, on either side) with
//!   one residual projection equality or its negation ([`join_shape`]).
//!
//! A match is exact — every leaf of the skeleton is verified — and the
//! matchers return the **type the skeleton witnesses** (`eq_at`'s
//! grammar is type-directed, so the term determines it uniquely). The
//! fused rules in [`crate::eager`] are then free to run the direct
//! arena operation (binary-search membership, merge-scan inclusion,
//! one-pass grouping) — but only after [`value_conforms`] confirms the
//! *runtime* input fits that type: on ill-typed inputs the derived
//! terms have observable behaviour of their own (`=ₜ` gets stuck on a
//! shape mismatch; `=_unit` is constantly true on *anything*), and the
//! bit-for-bit contract requires falling back to the ordinary
//! derivation there. Verdicts are memoised per `EId` (and conformance
//! per `(EId, VId)`) in [`ShapeCaches`], which the cache state
//! invalidates whenever handles could have been reissued. The join's
//! gate ([`join_conforms`]) is the analogue for its projection paths:
//! every path it reads must resolve to a natural on every element.

use nra_core::expr::intern::{EId, ENode};
use nra_core::expr::Expr;
use nra_core::types::Type;
use nra_core::value::intern::{FxBuildHasher, VId, ValueArena};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoised recognition verdicts (`EId` → the witnessed type, `None`
/// for a non-match) plus per-`(shape, value)` conformance verdicts.
/// Owned by the walker's cache state and cleared with it.
#[derive(Default)]
pub(crate) struct ShapeCaches {
    eq_ats: HashMap<EId, Option<Type>, FxBuildHasher>,
    members: HashMap<EId, Option<Type>, FxBuildHasher>,
    subsets: HashMap<EId, Option<Type>, FxBuildHasher>,
    nests: HashMap<EId, Option<Type>, FxBuildHasher>,
    joins: HashMap<EId, Option<Arc<JoinShape>>, FxBuildHasher>,
    /// Conformance verdicts for the fused rules' runtime gate, keyed
    /// `(shape EId, value VId)` — the type is fixed per shape, and
    /// hash-consing makes the per-element checks of a growing set
    /// amortise to its fresh elements.
    conforms: HashMap<(EId, VId), bool, FxBuildHasher>,
    /// The join gate's verdicts, keyed `(join EId, left set, right set)`.
    join_gates: HashMap<(EId, VId, VId), bool, FxBuildHasher>,
}

impl ShapeCaches {
    /// Forget every verdict (the handles backing them may be stale).
    pub(crate) fn clear(&mut self) {
        self.eq_ats.clear();
        self.members.clear();
        self.subsets.clear();
        self.nests.clear();
        self.joins.clear();
        self.conforms.clear();
        self.join_gates.clear();
    }
}

/// Does the interned value structurally conform to `t`? Exactly the
/// judgement under which the derived `=ₜ` is total *and* coincides with
/// structural (= handle) equality.
pub(crate) fn value_conforms(va: &ValueArena, v: VId, t: &Type) -> bool {
    match t {
        Type::Unit => va.is_unit(v),
        Type::Bool => va.as_bool(v).is_some(),
        Type::Nat => va.as_nat(v).is_some(),
        Type::Prod(a, b) => match va.as_pair(v) {
            Some((x, y)) => value_conforms(va, x, a) && value_conforms(va, y, b),
            None => false,
        },
        Type::Set(elem) => match va.as_set(v) {
            Some(items) => items.iter().all(|&item| value_conforms(va, item, elem)),
            None => false,
        },
    }
}

/// [`value_conforms`] memoised per `(shape, value)` — `eid` must be the
/// shape whose witnessed type `t` is (the cache key stands in for the
/// type).
pub(crate) fn conforms_cached(
    caches: &mut ShapeCaches,
    va: &ValueArena,
    eid: EId,
    v: VId,
    t: &Type,
) -> bool {
    if let Some(&verdict) = caches.conforms.get(&(eid, v)) {
        return verdict;
    }
    let verdict = value_conforms(va, v, t);
    caches.conforms.insert((eid, v), verdict);
    verdict
}

/// A chain of pair projections, innermost step first: `false` = `π₁`
/// (`fst`), `true` = `π₂` (`snd`). `compose(snd, fst)` is `[false,
/// true]` — apply `fst`, then `snd`.
pub(crate) type ProjPath = Vec<bool>;

/// Walk a candidate projection chain (`fst`/`snd`/`id` leaves glued by
/// `compose`) into its [`ProjPath`], or `None` if any other head
/// occurs.
pub(crate) fn proj_path(eid: EId, nodes: &[ENode], out: &mut ProjPath) -> Option<()> {
    match &nodes[eid.index()] {
        ENode::Leaf(leaf) => match **leaf {
            Expr::Fst => {
                out.push(false);
                Some(())
            }
            Expr::Snd => {
                out.push(true);
                Some(())
            }
            Expr::Id => Some(()),
            _ => None,
        },
        // g ∘ f applies f first
        ENode::Compose(g, f) => {
            proj_path(*f, nodes, out)?;
            proj_path(*g, nodes, out)
        }
        _ => None,
    }
}

/// The two chains of a projection tupling `⟨π-chain, π-chain⟩`.
pub(crate) fn proj_pair_paths(eid: EId, nodes: &[ENode]) -> Option<(ProjPath, ProjPath)> {
    let ENode::Tuple(p1, p2) = nodes[eid.index()] else {
        return None;
    };
    let (mut a, mut b) = (ProjPath::new(), ProjPath::new());
    proj_path(p1, nodes, &mut a)?;
    proj_path(p2, nodes, &mut b)?;
    Some((a, b))
}

/// The two chains of a projection equality `=_N ∘ ⟨π-chain, π-chain⟩`.
pub(crate) fn proj_eq_paths(eid: EId, nodes: &[ENode]) -> Option<(ProjPath, ProjPath)> {
    let ENode::Compose(eq, f) = nodes[eid.index()] else {
        return None;
    };
    if !leaf_is(nodes, eq, &Expr::EqNat) {
        return None;
    }
    proj_pair_paths(f, nodes)
}

/// Apply a [`ProjPath`] to a value by direct arena reads. `None` when a
/// non-pair shows up mid-chain.
pub(crate) fn apply_proj(va: &ValueArena, mut v: VId, path: &[bool]) -> Option<VId> {
    for &snd in path {
        let (x, y) = va.as_pair(v)?;
        v = if snd { y } else { x };
    }
    Some(v)
}

/// Is `eid` the given non-recursive primitive?
fn leaf_is(nodes: &[ENode], eid: EId, expr: &Expr) -> bool {
    matches!(&nodes[eid.index()], ENode::Leaf(l) if **l == *expr)
}

/// `true ∘ !` / `false ∘ !` — the constant booleans at any domain.
fn is_always(nodes: &[ENode], eid: EId, value: bool) -> bool {
    let ENode::Compose(g, f) = nodes[eid.index()] else {
        return false;
    };
    let konst = if value {
        Expr::ConstTrue
    } else {
        Expr::ConstFalse
    };
    leaf_is(nodes, g, &konst) && leaf_is(nodes, f, &Expr::Bang)
}

/// `¬ = if id then false else true`.
fn is_not(nodes: &[ENode], eid: EId) -> bool {
    let ENode::Cond(c, t, e) = nodes[eid.index()] else {
        return false;
    };
    leaf_is(nodes, c, &Expr::Id) && is_always(nodes, t, false) && is_always(nodes, e, true)
}

/// `∧ = if π₁ then π₂ else false` — the strict-left conjunction `pand`
/// builds on.
fn is_and2(nodes: &[ENode], eid: EId) -> bool {
    let ENode::Cond(c, t, e) = nodes[eid.index()] else {
        return false;
    };
    leaf_is(nodes, c, &Expr::Fst) && leaf_is(nodes, t, &Expr::Snd) && is_always(nodes, e, false)
}

/// `nonempty = ¬ ∘ empty`.
fn is_nonempty(nodes: &[ENode], eid: EId) -> bool {
    let ENode::Compose(g, f) = nodes[eid.index()] else {
        return false;
    };
    is_not(nodes, g) && leaf_is(nodes, f, &Expr::IsEmpty)
}

/// `swap = ⟨π₂, π₁⟩`.
fn is_swap(nodes: &[ENode], eid: EId) -> bool {
    let ENode::Tuple(a, b) = nodes[eid.index()] else {
        return false;
    };
    leaf_is(nodes, a, &Expr::Snd) && leaf_is(nodes, b, &Expr::Fst)
}

/// `ρ₁ = map(swap) ∘ ρ₂ ∘ swap`.
fn is_rho1(nodes: &[ENode], eid: EId) -> bool {
    let ENode::Compose(g, f) = nodes[eid.index()] else {
        return false;
    };
    let ENode::Map(sw) = nodes[g.index()] else {
        return false;
    };
    if !is_swap(nodes, sw) {
        return false;
    }
    let ENode::Compose(pw, sw2) = nodes[f.index()] else {
        return false;
    };
    leaf_is(nodes, pw, &Expr::PairWith) && is_swap(nodes, sw2)
}

/// `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)` — returns the predicate.
pub(crate) fn select_shape(nodes: &[ENode], eid: EId) -> Option<EId> {
    let ENode::Compose(g, f) = nodes[eid.index()] else {
        return None;
    };
    if !leaf_is(nodes, g, &Expr::Flatten) {
        return None;
    }
    let ENode::Map(b) = nodes[f.index()] else {
        return None;
    };
    let ENode::Cond(p, t, e) = nodes[b.index()] else {
        return None;
    };
    if !leaf_is(nodes, t, &Expr::Sng) {
        return None;
    }
    let ENode::Compose(es, bg) = nodes[e.index()] else {
        return None;
    };
    let ENode::Leaf(ref el) = nodes[es.index()] else {
        return None;
    };
    (matches!(**el, Expr::EmptySet(_)) && leaf_is(nodes, bg, &Expr::Bang)).then_some(p)
}

/// `⟨πₒ ∘ π₁, πₒ ∘ π₂⟩` with `πₒ = π₁` (`second = false`, the left
/// components of a pair of pairs) or `πₒ = π₂` (the right components) —
/// the coordinate re-wiring of componentwise equality at products.
fn is_proj_tuple(nodes: &[ENode], eid: EId, second: bool) -> bool {
    let outer = if second { Expr::Snd } else { Expr::Fst };
    let ENode::Tuple(x, y) = nodes[eid.index()] else {
        return false;
    };
    let left = matches!(nodes[x.index()], ENode::Compose(g, f)
        if leaf_is(nodes, g, &outer) && leaf_is(nodes, f, &Expr::Fst));
    let right = matches!(nodes[y.index()], ENode::Compose(g, f)
        if leaf_is(nodes, g, &outer) && leaf_is(nodes, f, &Expr::Snd));
    left && right
}

/// Is `eid` the Prop 2.1 equality `=ₜ`? Returns the witnessed `t` —
/// the type-directed grammar determines it uniquely, and the fused
/// rules need it for their runtime conformance gate.
pub(crate) fn eq_at_type(eid: EId, nodes: &[ENode], caches: &mut ShapeCaches) -> Option<Type> {
    if let Some(verdict) = caches.eq_ats.get(&eid) {
        return verdict.clone();
    }
    let verdict = compute_eq_at(eid, nodes, caches);
    caches.eq_ats.insert(eid, verdict.clone());
    verdict
}

fn compute_eq_at(eid: EId, nodes: &[ENode], caches: &mut ShapeCaches) -> Option<Type> {
    match &nodes[eid.index()] {
        // =_N, the primitive
        ENode::Leaf(l) if **l == Expr::EqNat => Some(Type::Nat),
        // =_B = if π₁ then π₂ else ¬π₂
        ENode::Cond(c, t, e) => (leaf_is(nodes, *c, &Expr::Fst)
            && leaf_is(nodes, *t, &Expr::Snd)
            && matches!(nodes[e.index()], ENode::Compose(n, s)
                    if is_not(nodes, n) && leaf_is(nodes, s, &Expr::Snd)))
        .then_some(Type::Bool),
        ENode::Compose(g, f) => {
            // =_unit = true ∘ !
            if leaf_is(nodes, *g, &Expr::ConstTrue) && leaf_is(nodes, *f, &Expr::Bang) {
                return Some(Type::Unit);
            }
            // the two pand cases: ∧ ∘ ⟨p, q⟩
            if !is_and2(nodes, *g) {
                return None;
            }
            let ENode::Tuple(p, q) = nodes[f.index()] else {
                return None;
            };
            // =_{s×t}: componentwise
            if let (ENode::Compose(ea, pa), ENode::Compose(eb, pb)) =
                (&nodes[p.index()], &nodes[q.index()])
            {
                if is_proj_tuple(nodes, *pa, false) && is_proj_tuple(nodes, *pb, true) {
                    if let (Some(ta), Some(tb)) = (
                        eq_at_type(*ea, nodes, caches),
                        eq_at_type(*eb, nodes, caches),
                    ) {
                        return Some(Type::prod(ta, tb));
                    }
                }
            }
            // =_{ {t} }: ⊆ ∧ ⊇
            if let Some(elem) = subset_elem_type(p, nodes, caches) {
                if let ENode::Compose(sub, sw) = nodes[q.index()] {
                    if is_swap(nodes, sw)
                        && subset_elem_type(sub, nodes, caches) == Some(elem.clone())
                    {
                        return Some(Type::set(elem));
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// Is `eid` the Prop 2.1 membership `∈ = ¬empty ∘ σ_{=ₜ} ∘ ρ₂`?
/// Returns the witnessed element type `t`.
pub(crate) fn member_elem_type(
    eid: EId,
    nodes: &[ENode],
    caches: &mut ShapeCaches,
) -> Option<Type> {
    if let Some(verdict) = caches.members.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = nodes[eid.index()] else {
            return None;
        };
        if !is_nonempty(nodes, g) {
            return None;
        }
        let ENode::Compose(sel, pw) = nodes[f.index()] else {
            return None;
        };
        if !leaf_is(nodes, pw, &Expr::PairWith) {
            return None;
        }
        eq_at_type(select_shape(nodes, sel)?, nodes, caches)
    })();
    caches.members.insert(eid, verdict.clone());
    verdict
}

/// Is `eid` the Prop 2.1 inclusion `⊆ = empty ∘ σ_{¬∈} ∘ ρ₁`? Returns
/// the witnessed element type `t`.
pub(crate) fn subset_elem_type(
    eid: EId,
    nodes: &[ENode],
    caches: &mut ShapeCaches,
) -> Option<Type> {
    if let Some(verdict) = caches.subsets.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = nodes[eid.index()] else {
            return None;
        };
        if !leaf_is(nodes, g, &Expr::IsEmpty) {
            return None;
        }
        let ENode::Compose(sel, r1) = nodes[f.index()] else {
            return None;
        };
        if !is_rho1(nodes, r1) {
            return None;
        }
        let pred = select_shape(nodes, sel)?;
        // ¬∈ = ¬ ∘ member
        let ENode::Compose(n, m) = nodes[pred.index()] else {
            return None;
        };
        if !is_not(nodes, n) {
            return None;
        }
        member_elem_type(m, nodes, caches)
    })();
    caches.subsets.insert(eid, verdict.clone());
    verdict
}

/// Is `eid` the Prop 2.1 grouping
/// `nest = map(⟨π₁, image⟩) ∘ ρ₁ ∘ ⟨map(π₁), id⟩`, with
/// `image = map(π₂ ∘ π₂) ∘ σ_{same key} ∘ ρ₂` and
/// `same key = =ₛ ∘ ⟨π₁, π₁ ∘ π₂⟩`? Returns the witnessed key type `s`.
pub(crate) fn nest_key_type(eid: EId, nodes: &[ENode], caches: &mut ShapeCaches) -> Option<Type> {
    if let Some(verdict) = caches.nests.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = nodes[eid.index()] else {
            return None;
        };
        // head: map(⟨π₁, image⟩)
        let ENode::Map(body) = nodes[g.index()] else {
            return None;
        };
        let ENode::Tuple(first, image) = nodes[body.index()] else {
            return None;
        };
        if !leaf_is(nodes, first, &Expr::Fst) {
            return None;
        }
        // image = map(π₂ ∘ π₂) ∘ (σ_{same key} ∘ ρ₂)
        let ENode::Compose(mp, inner) = nodes[image.index()] else {
            return None;
        };
        let ENode::Map(sndsnd) = nodes[mp.index()] else {
            return None;
        };
        if !matches!(nodes[sndsnd.index()], ENode::Compose(a, b)
            if leaf_is(nodes, a, &Expr::Snd) && leaf_is(nodes, b, &Expr::Snd))
        {
            return None;
        }
        let ENode::Compose(sel, pw) = nodes[inner.index()] else {
            return None;
        };
        if !leaf_is(nodes, pw, &Expr::PairWith) {
            return None;
        }
        let same_key = select_shape(nodes, sel)?;
        let ENode::Compose(eq, keyproj) = nodes[same_key.index()] else {
            return None;
        };
        let key_type = eq_at_type(eq, nodes, caches)?;
        let ENode::Tuple(k1, k2) = nodes[keyproj.index()] else {
            return None;
        };
        if !leaf_is(nodes, k1, &Expr::Fst) {
            return None;
        }
        if !matches!(nodes[k2.index()], ENode::Compose(a, b)
            if leaf_is(nodes, a, &Expr::Fst) && leaf_is(nodes, b, &Expr::Snd))
        {
            return None;
        }
        // tail: ρ₁ ∘ ⟨map(π₁), id⟩
        let ENode::Compose(r1, t) = nodes[f.index()] else {
            return None;
        };
        if !is_rho1(nodes, r1) {
            return None;
        }
        let ENode::Tuple(mf, idl) = nodes[t.index()] else {
            return None;
        };
        let ENode::Map(ff) = nodes[mf.index()] else {
            return None;
        };
        (leaf_is(nodes, ff, &Expr::Fst) && leaf_is(nodes, idl, &Expr::Id)).then_some(key_type)
    })();
    caches.nests.insert(eid, verdict.clone());
    verdict
}

/// How an equi-join reads its two sides from its input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum JoinInput {
    /// `σ_p ∘ ×` on a pair of sets `(A, B)`.
    Pair,
    /// `σ_p ∘ × ∘ ⟨id, id⟩` on one set `R`, joined with itself.
    Dup,
}

/// A recognised equi-join `σ_p ∘ ×` (or `σ_p ∘ × ∘ ⟨id, id⟩`): the
/// selection keeps the pairs `(x, y)` whose keys `x.left_key` and
/// `y.right_key` are equal naturals and, if there is one, on which the
/// residual conjunct holds.
pub(crate) struct JoinShape {
    /// Where the two sides come from.
    pub(crate) input: JoinInput,
    /// The key chain on the left element (the chain after its `π₁`).
    pub(crate) left_key: ProjPath,
    /// The key chain on the right element (the chain after its `π₂`).
    pub(crate) right_key: ProjPath,
    /// The residual conjunct `q` over the pair `(x, y)` — a projection
    /// equality or its negation — if `p = ∧ ∘ ⟨key, q⟩` (or `⟨q, key⟩`).
    pub(crate) residual: Option<EId>,
    /// Every chain the join reads from a left element (key and
    /// residual), for the gate.
    left_paths: Vec<ProjPath>,
    /// Every chain the join reads from a right element.
    right_paths: Vec<ProjPath>,
}

impl JoinShape {
    /// The two sides `(A, B)` of the product on `input`, or `None` when
    /// they are not both sets.
    pub(crate) fn sides(&self, va: &ValueArena, input: VId) -> Option<(VId, VId)> {
        let (a, b) = match self.input {
            JoinInput::Pair => va.as_pair(input)?,
            JoinInput::Dup => (input, input),
        };
        va.cardinality(a)?;
        va.cardinality(b)?;
        Some((a, b))
    }
}

/// Split a chain over a product element `(x, y)` at its first step:
/// which component it reads (`false` = `x`) and the chain after it.
fn split_side(mut path: ProjPath) -> Option<(bool, ProjPath)> {
    if path.is_empty() {
        return None;
    }
    let side = path.remove(0);
    Some((side, path))
}

/// The key conjunct: a projection equality whose chains read opposite
/// product components. Returns `(left chain, right chain)`.
fn join_key(eid: EId, nodes: &[ENode]) -> Option<(ProjPath, ProjPath)> {
    let (a, b) = proj_eq_paths(eid, nodes)?;
    match (split_side(a)?, split_side(b)?) {
        ((false, l), (true, r)) | ((true, r), (false, l)) => Some((l, r)),
        _ => None,
    }
}

/// The residual conjunct: a projection equality or `¬` of one. Returns
/// its two chains, each split by the component it reads.
fn join_residual(eid: EId, nodes: &[ENode]) -> Option<[(bool, ProjPath); 2]> {
    let eq = match nodes[eid.index()] {
        ENode::Compose(n, eq) if is_not(nodes, n) => eq,
        _ => eid,
    };
    let (a, b) = proj_eq_paths(eq, nodes)?;
    Some([split_side(a)?, split_side(b)?])
}

/// Is `eid` an equi-join `σ_p ∘ ×` or `σ_p ∘ × ∘ ⟨id, id⟩` (with
/// `cartprod` the interned product)? The predicate is a key
/// [`join_key`], or `∧ ∘ ⟨key, q⟩` / `∧ ∘ ⟨q, key⟩` with `q` a
/// [`join_residual`].
pub(crate) fn join_shape(
    eid: EId,
    nodes: &[ENode],
    cartprod: EId,
    caches: &mut ShapeCaches,
) -> Option<Arc<JoinShape>> {
    if let Some(verdict) = caches.joins.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(sel, prod) = nodes[eid.index()] else {
            return None;
        };
        let input = if prod == cartprod {
            JoinInput::Pair
        } else {
            let ENode::Compose(c, d) = nodes[prod.index()] else {
                return None;
            };
            let (x, y) = proj_pair_paths(d, nodes)?;
            (c == cartprod && x.is_empty() && y.is_empty()).then_some(JoinInput::Dup)?
        };
        let pred = select_shape(nodes, sel)?;
        let ((left_key, right_key), residual, residual_paths) = match join_key(pred, nodes) {
            Some(key) => (key, None, Vec::new()),
            None => {
                let ENode::Compose(and, args) = nodes[pred.index()] else {
                    return None;
                };
                let ENode::Tuple(p, q) = nodes[args.index()] else {
                    return None;
                };
                if !is_and2(nodes, and) {
                    return None;
                }
                let (key, q) = match (join_key(p, nodes), join_key(q, nodes)) {
                    (Some(key), _) => (key, q),
                    (_, Some(key)) => (key, p),
                    _ => return None,
                };
                (key, Some(q), Vec::from(join_residual(q, nodes)?))
            }
        };
        let mut left_paths = vec![left_key.clone()];
        let mut right_paths = vec![right_key.clone()];
        for (side, path) in residual_paths {
            if side {
                right_paths.push(path);
            } else {
                left_paths.push(path);
            }
        }
        Some(Arc::new(JoinShape {
            input,
            left_key,
            right_key,
            residual,
            left_paths,
            right_paths,
        }))
    })();
    caches.joins.insert(eid, verdict.clone());
    verdict
}

/// The join's runtime gate: does every chain the join reads resolve to
/// a natural — the left chains on every element of `left`, the right
/// chains on every element of `right`? Exactly the condition under
/// which the derived selection is total on `left × right` (no `=_N` or
/// `¬` gets stuck), so the keyed join may skip the predicate on the
/// pairs whose keys differ. Memoised per `(join, left, right)`.
pub(crate) fn join_conforms(
    caches: &mut ShapeCaches,
    va: &ValueArena,
    eid: EId,
    join: &JoinShape,
    left: VId,
    right: VId,
) -> bool {
    if let Some(&verdict) = caches.join_gates.get(&(eid, left, right)) {
        return verdict;
    }
    let resolves = |set: VId, paths: &[ProjPath]| {
        va.as_set(set).is_some_and(|items| {
            items.iter().all(|&v| {
                paths
                    .iter()
                    .all(|p| apply_proj(va, v, p).and_then(|n| va.as_nat(n)).is_some())
            })
        })
    };
    let verdict = resolves(left, &join.left_paths) && resolves(right, &join.right_paths);
    caches.join_gates.insert((eid, left, right), verdict);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::builder::*;
    use nra_core::derived;
    use nra_core::expr::intern::ExprArena;
    use nra_core::types::Type;

    fn recognise(e: &Expr) -> (EId, Vec<ENode>, ShapeCaches) {
        let mut arena = ExprArena::new();
        let eid = arena.intern(e);
        (eid, arena.snapshot(), ShapeCaches::default())
    }

    #[test]
    fn eq_at_matches_every_type_instantiation() {
        for t in [
            Type::Nat,
            Type::Unit,
            Type::Bool,
            Type::prod(Type::Nat, Type::Bool),
            Type::nat_rel(),
            Type::set(Type::nat_rel()),
            Type::prod(Type::nat_rel(), Type::set(Type::Nat)),
        ] {
            let (eid, nodes, mut caches) = recognise(&derived::eq_at(&t));
            assert_eq!(
                eq_at_type(eid, &nodes, &mut caches),
                Some(t.clone()),
                "eq_at({t})"
            );
        }
        // near-misses must not match
        for e in [neq_nat_like(), id(), compose(eq_nat(), swap())] {
            let (eid, nodes, mut caches) = recognise(&e);
            assert_eq!(eq_at_type(eid, &nodes, &mut caches), None, "{e}");
        }
    }

    fn neq_nat_like() -> Expr {
        derived::pnot(eq_nat())
    }

    #[test]
    fn member_and_subset_match_their_skeletons() {
        for t in [Type::Nat, Type::nat_rel(), Type::set(Type::Nat)] {
            let (eid, nodes, mut caches) = recognise(&derived::member(&t));
            assert_eq!(
                member_elem_type(eid, &nodes, &mut caches),
                Some(t.clone()),
                "member at {t}"
            );
            let (eid, nodes, mut caches) = recognise(&derived::subset(&t));
            assert_eq!(
                subset_elem_type(eid, &nodes, &mut caches),
                Some(t.clone()),
                "subset at {t}"
            );
        }
        // a selection that is not a membership test must not match
        let sel = derived::select(always_true(), Type::Nat);
        let (eid, nodes, mut caches) = recognise(&sel);
        assert_eq!(member_elem_type(eid, &nodes, &mut caches), None);
        assert_eq!(subset_elem_type(eid, &nodes, &mut caches), None);
    }

    #[test]
    fn nest_matches_and_near_misses_do_not() {
        for (s, t) in [
            (Type::Nat, Type::Nat),
            (Type::Nat, Type::Bool),
            (Type::prod(Type::Nat, Type::Nat), Type::Nat),
        ] {
            let (eid, nodes, mut caches) = recognise(&derived::nest(&s, &t));
            assert_eq!(
                nest_key_type(eid, &nodes, &mut caches),
                Some(s.clone()),
                "nest({s}, {t})"
            );
        }
        let (eid, nodes, mut caches) = recognise(&derived::unnest());
        assert_eq!(nest_key_type(eid, &nodes, &mut caches), None);
    }

    #[test]
    fn verdicts_are_memoised() {
        let t = Type::set(Type::nat_rel());
        let (eid, nodes, mut caches) = recognise(&derived::eq_at(&t));
        assert_eq!(eq_at_type(eid, &nodes, &mut caches), Some(t.clone()));
        assert_eq!(caches.eq_ats.get(&eid), Some(&Some(t)));
        // the set-equality grammar recurses through ⊆, whose verdicts
        // land in the subset cache as a side effect
        assert!(caches.subsets.values().any(|v| v.is_some()));
        caches.clear();
        assert!(caches.eq_ats.is_empty() && caches.subsets.is_empty());
    }

    fn recognise_join(e: &Expr) -> Option<Arc<JoinShape>> {
        let mut arena = ExprArena::new();
        let eid = arena.intern(e);
        let cartprod = arena.intern(&derived::cartprod());
        join_shape(
            eid,
            &arena.snapshot(),
            cartprod,
            &mut ShapeCaches::default(),
        )
    }

    #[test]
    fn join_matches_key_selections_over_products() {
        let edge = Type::prod(Type::Nat, Type::Nat);
        let pairs = Type::prod(edge.clone(), edge);
        let coord = |outer: Expr, inner: Expr| compose(outer, inner);
        let eq = |x: Expr, y: Expr| compose(eq_nat(), tuple(x, y));
        // b = c, the composition key; b = d ∧ a ≠ c, the siblings test
        let key_bc = eq(coord(snd(), fst()), coord(fst(), snd()));
        let key_bd = eq(coord(snd(), fst()), coord(snd(), snd()));
        let neq_ac = derived::pnot(eq(coord(fst(), fst()), coord(fst(), snd())));
        let sel = |p: Expr| derived::select(p, pairs.clone());

        let join = recognise_join(&compose(sel(key_bc.clone()), derived::self_product()))
            .expect("compose_rel's join");
        assert_eq!(join.input, JoinInput::Dup);
        assert_eq!(
            (join.left_key.clone(), join.right_key.clone()),
            (vec![true], vec![false])
        );
        assert_eq!(join.residual, None);
        let join = recognise_join(&compose(sel(key_bc.clone()), derived::cartprod()))
            .expect("the join on a pair of sets");
        assert_eq!(join.input, JoinInput::Pair);
        // the key conjunct on either side of ∧
        for p in [
            derived::pand(key_bd.clone(), neq_ac.clone()),
            derived::pand(neq_ac.clone(), key_bd.clone()),
        ] {
            let join = recognise_join(&compose(sel(p), derived::self_product()))
                .expect("the siblings join");
            assert_eq!(
                (join.left_key.clone(), join.right_key.clone()),
                (vec![true], vec![true])
            );
            assert!(join.residual.is_some());
            assert_eq!(join.left_paths.len(), 2);
            assert_eq!(join.right_paths.len(), 2);
        }
        // near misses: both key chains on one side, a residual that is
        // not a projection equality, a selection over a non-product
        let same_side = eq(coord(fst(), fst()), coord(snd(), fst()));
        for e in [
            compose(sel(same_side), derived::self_product()),
            compose(
                sel(derived::pand(key_bc.clone(), always_true())),
                derived::self_product(),
            ),
            compose(sel(key_bc.clone()), id()),
            compose(
                sel(key_bc),
                compose(derived::cartprod(), tuple(id(), fst())),
            ),
        ] {
            assert!(recognise_join(&e).is_none(), "{e}");
        }
    }

    #[test]
    fn join_gate_requires_natural_keys_on_every_element() {
        let pairs = Type::prod(Type::nat_rel(), Type::nat_rel());
        let key = compose(
            eq_nat(),
            tuple(compose(snd(), fst()), compose(fst(), snd())),
        );
        let e = compose(derived::select(key, pairs), derived::self_product());
        let mut arena = ExprArena::new();
        let eid = arena.intern(&e);
        let cartprod = arena.intern(&derived::cartprod());
        let mut caches = ShapeCaches::default();
        let join = join_shape(eid, &arena.snapshot(), cartprod, &mut caches).unwrap();
        let mut va = ValueArena::new();
        let good = va.chain(3);
        let (one, yes) = (va.nat(1), va.bool_(true));
        let bad_edge = va.pair(yes, one);
        let bad = va.set([bad_edge]);
        assert!(join_conforms(&mut caches, &va, eid, &join, good, good));
        // the right key reads π₁ of a right element: a boolean there fails
        assert!(!join_conforms(&mut caches, &va, eid, &join, good, bad));
        // the left key reads π₂ of a left element: the boolean is not read
        assert!(join_conforms(&mut caches, &va, eid, &join, bad, good));
        assert_eq!(caches.join_gates.len(), 3);
    }

    #[test]
    fn conformance_follows_the_type_structure() {
        use nra_core::value::intern::ValueArena;
        let mut a = ValueArena::new();
        let unit = a.unit();
        let yes = a.bool_(true);
        let three = a.nat(3);
        let pair = a.pair(three, yes);
        let rel = a.chain(2);
        assert!(value_conforms(&a, unit, &Type::Unit));
        assert!(!value_conforms(&a, three, &Type::Unit));
        assert!(value_conforms(&a, yes, &Type::Bool));
        assert!(value_conforms(&a, three, &Type::Nat));
        assert!(!value_conforms(&a, yes, &Type::Nat));
        assert!(value_conforms(&a, pair, &Type::prod(Type::Nat, Type::Bool)));
        assert!(!value_conforms(
            &a,
            pair,
            &Type::prod(Type::Bool, Type::Nat)
        ));
        assert!(value_conforms(&a, rel, &Type::nat_rel()));
        assert!(!value_conforms(&a, rel, &Type::set(Type::Nat)));
    }
}
