//! The rescue table and the one pass that applies it.
//!
//! A *rescue* is a whole-query rewrite from a powerset-route idiom to
//! its polynomial counterpart — the paper's separation theorem run
//! backwards. Both sides of every entry in [`RESCUES`] are constant
//! expressions, so matching is a single hash-consed `EId` comparison:
//! [`rewrite`] interns each left-hand side once and walks the DAG top
//! down, memoising `EId → EId` so shared subterms are visited once, and
//! replaces every node equal to a left-hand side by its right-hand
//! side. No right-hand side contains a left-hand side, so one pass is
//! already the fixpoint (`tests::one_pass_is_the_fixpoint`).
//!
//! Unchanged nodes keep their `EId`s, so a query no rescue touches
//! comes back as the *same* handle — callers (the eval session, the
//! serving door) use `rewritten != original` as the "optimiser did
//! something" signal without any extra bookkeeping.

use nra_core::expr::intern::ENode;
use nra_core::{builder, queries, EId, Expr, ExprArena};
use std::collections::{BTreeMap, HashMap};

/// One table entry: a powerset-route query and the polynomial query
/// that replaces it.
#[derive(Debug, Clone, Copy)]
pub struct Rescue {
    /// The name [`OptStats::fired`] counts it under.
    pub name: &'static str,
    /// The exponential-space query to recognise.
    pub lhs: fn() -> Expr,
    /// Its replacement, which must strictly lower the space class.
    pub rhs: fn() -> Expr,
}

/// The rescue table: Theorem 4.1's certified-exponential powerset route
/// to TC becomes Theorem 5.2's while route, and the powerset route to
/// `siblings` becomes its powerset-free form.
pub const RESCUES: [Rescue; 2] = [
    Rescue {
        name: "rescue-tc-powerset-route",
        lhs: queries::tc_paths,
        rhs: queries::tc_while,
    },
    Rescue {
        name: "rescue-siblings-powerset-route",
        lhs: queries::siblings_powerset,
        rhs: queries::siblings_direct,
    },
];

/// What one [`rewrite`] invocation did.
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// How many nodes were replaced by a rescue.
    pub rescues: u64,
    /// Per-rescue fire counts, by [`Rescue::name`].
    pub fired: BTreeMap<String, u64>,
}

/// The state of one pass: the interned left-hand sides, the memo, and
/// what fired.
struct Pass {
    lhs: [EId; RESCUES.len()],
    memo: HashMap<EId, EId>,
    stats: OptStats,
}

impl Pass {
    fn walk(&mut self, ea: &mut ExprArena, eid: EId) -> EId {
        if let Some(&done) = self.memo.get(&eid) {
            return done;
        }
        let out = if let Some(i) = self.lhs.iter().position(|&lhs| lhs == eid) {
            let rescue = &RESCUES[i];
            self.stats.rescues += 1;
            *self.stats.fired.entry(rescue.name.to_string()).or_insert(0) += 1;
            ea.intern(&(rescue.rhs)())
        } else {
            self.rebuild(ea, eid)
        };
        self.memo.insert(eid, out);
        out
    }

    /// `eid` with its children rewritten — the same handle when none
    /// of them changed.
    fn rebuild(&mut self, ea: &mut ExprArena, eid: EId) -> EId {
        let e = match ea.node(eid) {
            ENode::Leaf(_) => return eid,
            ENode::Tuple(a, b) => {
                let (a2, b2) = (self.walk(ea, a), self.walk(ea, b));
                if (a2, b2) == (a, b) {
                    return eid;
                }
                builder::tuple(ea.resolve(a2), ea.resolve(b2))
            }
            ENode::Map(f) => {
                let f2 = self.walk(ea, f);
                if f2 == f {
                    return eid;
                }
                builder::map(ea.resolve(f2))
            }
            ENode::While(f) => {
                let f2 = self.walk(ea, f);
                if f2 == f {
                    return eid;
                }
                builder::while_fix(ea.resolve(f2))
            }
            ENode::Compose(g, f) => {
                let (g2, f2) = (self.walk(ea, g), self.walk(ea, f));
                if (g2, f2) == (g, f) {
                    return eid;
                }
                builder::compose(ea.resolve(g2), ea.resolve(f2))
            }
            ENode::Cond(c, t, e) => {
                let (c2, t2, e2) = (self.walk(ea, c), self.walk(ea, t), self.walk(ea, e));
                if (c2, t2, e2) == (c, t, e) {
                    return eid;
                }
                builder::cond(ea.resolve(c2), ea.resolve(t2), ea.resolve(e2))
            }
        };
        ea.intern(&e)
    }
}

/// Replace every occurrence of a [`RESCUES`] left-hand side in the DAG
/// rooted at `root`. Returns the (possibly unchanged) root and what
/// fired.
pub fn rewrite(ea: &mut ExprArena, root: EId) -> (EId, OptStats) {
    let mut pass = Pass {
        lhs: RESCUES.map(|rescue| ea.intern(&(rescue.lhs)())),
        memo: HashMap::new(),
        stats: OptStats::default(),
    };
    let out = pass.walk(ea, root);
    (out, pass.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::rank;
    use nra_symbolic::classify_space;

    fn opt(e: &Expr) -> (Expr, OptStats) {
        let mut ea = ExprArena::new();
        let root = ea.intern(e);
        let (out, stats) = rewrite(&mut ea, root);
        (ea.resolve(out), stats)
    }

    #[test]
    fn powerset_route_tc_is_rescued_at_the_root() {
        let (out, stats) = opt(&queries::tc_paths());
        assert_eq!(out, queries::tc_while());
        assert_eq!(stats.rescues, 1);
        assert!(stats.fired.contains_key("rescue-tc-powerset-route"));
    }

    #[test]
    fn nested_powerset_route_is_rescued_and_context_simplified() {
        // the rescue fires inside its context; the context itself is
        // left as written
        let wrapped = builder::compose(queries::tc_paths(), builder::id());
        let (out, stats) = opt(&wrapped);
        assert_eq!(out, builder::compose(queries::tc_while(), builder::id()));
        assert_eq!(stats.rescues, 1);
    }

    #[test]
    fn siblings_powerset_route_is_rescued() {
        let (out, stats) = opt(&queries::siblings_powerset());
        assert_eq!(out, queries::siblings_direct());
        assert_eq!(stats.rescues, 1);
    }

    #[test]
    fn untouched_queries_keep_their_eid() {
        let mut ea = ExprArena::new();
        let root = ea.intern(&queries::tc_while());
        let (out, stats) = rewrite(&mut ea, root);
        assert_eq!(out, root, "no rescue fired, same handle must come back");
        assert_eq!(stats.rescues, 0);
        assert!(stats.fired.is_empty());
    }

    #[test]
    fn shared_occurrences_are_all_rescued() {
        let twice = builder::tuple(queries::tc_paths(), queries::tc_paths());
        let (out, stats) = opt(&twice);
        assert_eq!(
            out,
            builder::tuple(queries::tc_while(), queries::tc_while())
        );
        // hash-consing shares the subterm, the memo rewrites it once
        assert_eq!(stats.rescues, 1);
    }

    #[test]
    fn every_rescue_strictly_lowers_the_space_class() {
        for rescue in RESCUES {
            let before = classify_space(&(rescue.lhs)());
            let after = classify_space(&(rescue.rhs)());
            assert!(
                rank(&after) < rank(&before),
                "{}: {before:?} -> {after:?}",
                rescue.name
            );
        }
    }

    #[test]
    fn one_pass_is_the_fixpoint() {
        // no right-hand side contains a left-hand side, so rewriting a
        // right-hand side is the identity
        for rescue in RESCUES {
            let mut ea = ExprArena::new();
            let rhs = ea.intern(&(rescue.rhs)());
            let (out, stats) = rewrite(&mut ea, rhs);
            assert_eq!(out, rhs, "{}", rescue.name);
            assert_eq!(stats.rescues, 0, "{}", rescue.name);
        }
    }

    #[test]
    fn rewrite_does_not_worsen_space_class() {
        // powerset over a `while`-route body: Unanalyzed — no rescue
        // matches, so the class cannot move
        let e = builder::compose(queries::tc_while(), builder::powerset());
        let before = classify_space(&e);
        let (out, _) = opt(&e);
        let after = classify_space(&out);
        assert!(rank(&after) <= rank(&before), "{before:?} -> {after:?}");
    }
}
