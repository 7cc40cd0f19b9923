//! # nra-opt
//!
//! A pre-evaluation **rescue pass** over the hash-consed expression
//! DAG, turning the paper's separation theorem into an automatic
//! optimisation: the *powerset route* to transitive closure (certified
//! exponential by `nra-symbolic`, Theorem 4.1) is recognised and
//! rewritten to the *while route* (polynomial, Theorem 5.2) — a query
//! the serving door would reject is **rescued** into the admissible
//! class.
//!
//! * [`mod@rewrite`] — the constant [`RESCUES`] table and the one
//!   memoised pass that replaces each occurrence of a left-hand side;
//! * [`cost`] — the space-class [`rank`] every rescue must strictly
//!   lower, checked over the table by a test.
//!
//! The evaluator knows nothing about rescues: `nra-eval` exposes a
//! [`RewritePass`] hook on [`EvalSession`], and
//! [`install`] plugs this crate's pass into it. An
//! [`EvalConfig::serve`] session with the pass installed is the full
//! stack the serving front runs — rewriting + apply cache + semi-naive
//! iteration.
//!
//! ```
//! use nra_core::{queries, Value};
//! use nra_eval::EvalConfig;
//!
//! // the exponential-route query is rewritten to the while route…
//! let optimised = nra_opt::optimise_expr(&queries::tc_paths());
//! assert_eq!(optimised, queries::tc_while());
//!
//! // …and a session with the pass installed serves it in polynomial
//! // space, bit-for-bit equal to the raw evaluation
//! let mut session = nra_opt::optimising_session(EvalConfig::serve());
//! let input = Value::chain(6);
//! let ev = session.eval(&queries::tc_paths(), &input);
//! assert_eq!(ev.result.unwrap(), Value::chain_tc(6));
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod rewrite;

pub use cost::{rank, Rank};
pub use rewrite::{rewrite, OptStats, Rescue, RESCUES};

use nra_core::{EId, Expr, ExprArena};
use nra_eval::{EvalConfig, EvalSession, RewritePass};

/// Apply the [`RESCUES`] to the DAG rooted at `root`, discarding
/// statistics. The workhorse behind [`pass`].
pub fn optimise(ea: &mut ExprArena, root: EId) -> EId {
    rewrite(ea, root).0
}

/// [`optimise`] with the what-happened statistics.
pub fn optimise_with_stats(ea: &mut ExprArena, root: EId) -> (EId, OptStats) {
    rewrite(ea, root)
}

/// Optimise a tree-form expression in a private arena — the convenience
/// entry point for benches and one-shot callers.
pub fn optimise_expr(e: &Expr) -> Expr {
    let mut ea = ExprArena::new();
    let root = ea.intern(e);
    let out = optimise(&mut ea, root);
    ea.resolve(out)
}

/// This crate's rewrite pass as an injectable [`RewritePass`] for
/// [`EvalSession::set_rewriter`].
pub fn pass() -> RewritePass {
    std::sync::Arc::new(|ea: &mut ExprArena, root: EId| optimise(ea, root))
}

/// Install the default pass on a session: from now on every query the
/// session evaluates is rewritten first, whatever its evaluator mode.
pub fn install(session: &mut EvalSession) {
    session.set_rewriter(Some(pass()));
}

/// A fresh [`EvalSession`] with the pass already installed.
pub fn optimising_session(config: EvalConfig) -> EvalSession {
    let mut session = EvalSession::new(config);
    install(&mut session);
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::{queries, Value};

    #[test]
    fn session_pass_is_transparent_for_results() {
        let input = Value::chain(6);
        let mut plain = EvalSession::new(EvalConfig::serve());
        let mut optimising = optimising_session(EvalConfig::serve());
        for q in [queries::tc_while(), queries::tc_paths(), queries::tc_step()] {
            let raw = plain
                .eval(&q, &input)
                .result
                .expect("raw evaluation succeeds");
            let opt = optimising
                .eval(&q, &input)
                .result
                .expect("optimised evaluation succeeds");
            assert_eq!(raw, opt, "{q}");
        }
    }

    #[test]
    fn rescued_query_escapes_the_space_budget() {
        // chain(12): the powerset route materialises the 2^12-subset
        // family (§3 size ≈ 78k units), the while route peaks at ≈ 32k
        // (the cartesian product inside tc_step) — a budget between the
        // two is satisfiable only through the rewrite
        let input = Value::chain(12);
        let budget = 1 << 16;
        let strict = EvalConfig {
            max_object_size: Some(budget),
            ..EvalConfig::serve()
        };
        let raw = EvalSession::new(strict.clone())
            .eval(&queries::tc_paths(), &input)
            .result;
        assert!(raw.is_err(), "powerset route must blow the budget");
        let rescued = optimising_session(strict)
            .eval(&queries::tc_paths(), &input)
            .result;
        assert_eq!(rescued.unwrap(), Value::chain_tc(12));
    }

    #[test]
    fn optimise_flag_without_installed_pass_is_identity() {
        // a session rewrites if and only if a pass is installed: serve
        // mode alone does not
        let mut session = EvalSession::new(EvalConfig::serve());
        let eid = session.intern_expr(&queries::tc_paths());
        assert_eq!(session.optimise_eid(eid), eid);
    }

    /// The canned queries, the rescue left-hand sides among them.
    fn zoo() -> Vec<Expr> {
        vec![
            queries::compose_rel(),
            queries::tc_step(),
            queries::tc_while(),
            queries::sources(),
            queries::sinks(),
            queries::path_contribution(),
            queries::tc_paths(),
            queries::tc_paths_approx(3),
            queries::tc_naive(),
            queries::tc_naive_approx(3),
            queries::siblings_powerset(),
            queries::siblings_approx(2),
            queries::siblings_direct(),
        ]
    }

    #[test]
    fn each_rescue_fires_on_its_canned_query() {
        // the left-hand sides are the powerset-route queries the
        // serving benchmark submits
        for rescue in RESCUES {
            let mut ea = ExprArena::new();
            let root = ea.intern(&(rescue.lhs)());
            let (out, stats) = optimise_with_stats(&mut ea, root);
            assert_eq!(ea.resolve(out), (rescue.rhs)(), "{}", rescue.name);
            assert_eq!(stats.rescues, 1, "{}", rescue.name);
            assert_eq!(stats.fired.get(rescue.name), Some(&1), "{}", rescue.name);
        }
    }

    #[test]
    fn optimise_is_idempotent_on_the_zoo() {
        let mut rescued = 0;
        for q in zoo() {
            let once = optimise_expr(&q);
            assert_eq!(optimise_expr(&once), once, "{q}");
            rescued += usize::from(once != q);
        }
        assert_eq!(rescued, RESCUES.len(), "only the rescue queries change");
    }

    #[test]
    fn pass_memoises_per_root() {
        let mut session = optimising_session(EvalConfig::serve());
        let eid = session.intern_expr(&queries::tc_paths());
        let first = session.optimise_eid(eid);
        let second = session.optimise_eid(eid);
        assert_eq!(first, second);
        assert_ne!(first, eid, "the rescue must have fired");
    }
}
