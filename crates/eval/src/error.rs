//! Evaluation errors and resource budgets.
//!
//! The theorems predict that certain evaluations *need* exponential space.
//! Rather than letting those runs exhaust memory, the evaluator takes an
//! [`EvalConfig`] whose budgets turn "would need ≥ S space" into a clean
//! [`EvalError::SpaceBudgetExceeded`] carrying the offending size — for
//! `powerset` the size is *predicted combinatorially before materialising
//! anything*, so benches can measure complexities far beyond physical
//! memory.

use std::fmt;

/// The evaluator's two modes. The mode changes what an evaluation
/// costs and what its statistics count — never its result: both
/// differential harnesses hold `Serve` to `Exact` bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// The paper's §3 measurement mode: every rule application is one
    /// derivation node and every object it touches is observed, so
    /// `nodes` and `max_object_size` are the exact eager measure. No
    /// caching, no fusion.
    #[default]
    Exact,
    /// The serving mode, everything that measures as a win:
    ///
    /// * the **apply cache**, a memo table `(EId, VId) → VId` keyed on
    ///   the interned expression and input — a hit returns the cached
    ///   handle in `O(1)` and is counted in
    ///   [`EvalStats::memo_hits`](crate::stats::EvalStats::memo_hits)
    ///   *instead of* re-counting the skipped sub-derivation;
    /// * **semi-naive (delta-driven) iteration**: `while` threads a
    ///   `(total, delta)` pair through its iterates, and the pointwise
    ///   set rules — `map` and `μ` (flatten) — evaluate only on the
    ///   frontier, folding new facts into the previous result via the
    ///   arena's one-pass merge algebra
    ///   ([`set_merge_delta`](nra_core::value::intern::ValueArena::set_merge_delta),
    ///   [`set_merge_frontier`](nra_core::value::intern::ValueArena::set_merge_frontier));
    ///   skipped work is reported in
    ///   [`EvalStats::delta_skipped`](crate::stats::EvalStats::delta_skipped);
    /// * the **fused rules** for the hash-consed Prop 2.1 shapes,
    ///   including the keyed equi-join `σ_{b=c} ∘ (r × r)`, which never
    ///   builds `r × r`.
    ///
    /// `while_iterations` stays exact, and the §3 counters only ever
    /// shrink. Cache hits and delta skips still *charge* their recorded
    /// as-if-uncached cost against [`EvalConfig::max_nodes`], so budget
    /// exhaustion is mode-independent.
    Serve,
}

/// Resource limits and the evaluator mode for one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalConfig {
    /// Abort as soon as any object in the derivation tree would exceed
    /// this size (the paper's complexity measure). `None` = unlimited.
    pub max_object_size: Option<u64>,
    /// Abort after this many derivation-tree nodes. `None` = unlimited.
    pub max_nodes: Option<u64>,
    /// Iteration cap for the `while` extension (it is a genuine fixpoint
    /// loop, so divergence must be cut off).
    pub max_while_iters: u64,
    /// [`Mode::Exact`] (the default) or [`Mode::Serve`].
    pub mode: Mode,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_object_size: None,
            max_nodes: None,
            max_while_iters: 100_000,
            mode: Mode::Exact,
        }
    }
}

impl EvalConfig {
    /// A config with the given space budget (in size units of §3).
    pub fn with_space_budget(budget: u64) -> Self {
        EvalConfig {
            max_object_size: Some(budget),
            ..EvalConfig::default()
        }
    }

    /// An unbudgeted config in [`Mode::Serve`]. Results are bit-for-bit
    /// the exact-mode results; only the cost changes. A session
    /// additionally rewrites its queries once a
    /// [`RewritePass`](crate::RewritePass) is installed
    /// (`nra_opt::install`).
    ///
    /// ```
    /// use nra_core::{queries, Value};
    /// use nra_eval::{evaluate, EvalConfig};
    ///
    /// let input = Value::chain(6);
    /// let exact = evaluate(&queries::tc_while(), &input, &EvalConfig::default());
    /// let serve = evaluate(&queries::tc_while(), &input, &EvalConfig::serve());
    /// // same closure, same fixpoint trajectory…
    /// assert_eq!(exact.result.unwrap(), serve.result.unwrap());
    /// assert_eq!(exact.stats.while_iterations, serve.stats.while_iterations);
    /// // …but the body ran on the frontier only: elements already mapped
    /// // in earlier iterates were folded in, not re-derived, so the §3
    /// // counters only ever shrink
    /// assert!(serve.stats.delta_skipped > 0);
    /// assert!(serve.stats.nodes < exact.stats.nodes);
    /// assert!(serve.stats.max_object_size <= exact.stats.max_object_size);
    /// ```
    pub fn serve() -> Self {
        EvalConfig {
            mode: Mode::Serve,
            ..EvalConfig::default()
        }
    }
}

/// Why an evaluation did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An object of size `required` would occur in the derivation tree,
    /// exceeding the configured `budget`. For `powerset` outputs the
    /// required size is computed combinatorially without materialisation.
    SpaceBudgetExceeded {
        /// Size the evaluation would need.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The derivation tree grew beyond the configured node budget.
    NodeBudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// A `while` loop failed to reach a fixpoint within the iteration cap.
    WhileDiverged {
        /// Iterations performed before giving up.
        iterations: u64,
    },
    /// The input value did not match the shape a primitive requires
    /// (cannot happen for type-checked expressions; kept for defence).
    Stuck {
        /// The primitive that got stuck.
        rule: &'static str,
        /// Description of the shape mismatch.
        detail: String,
    },
    /// A `powerset` application whose result would not be addressable
    /// (more than 2⁶² subsets) was requested without a space budget.
    PowersetOverflow {
        /// Cardinality of the input set.
        input_cardinality: u64,
    },
    /// A [`crate::eval_batch`] worker panicked while evaluating this
    /// job (e.g. a stale fabricated handle). The panic is contained to
    /// the job: the other jobs of the batch still return their results.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::SpaceBudgetExceeded { required, budget } => write!(
                f,
                "space budget exceeded: an object of size {} would occur (budget {})",
                required, budget
            ),
            EvalError::NodeBudgetExceeded { budget } => {
                write!(f, "node budget exceeded ({} rule applications)", budget)
            }
            EvalError::WhileDiverged { iterations } => {
                write!(
                    f,
                    "while loop did not converge after {} iterations",
                    iterations
                )
            }
            EvalError::Stuck { rule, detail } => {
                write!(f, "evaluation stuck at `{}`: {}", rule, detail)
            }
            EvalError::PowersetOverflow { input_cardinality } => write!(
                f,
                "powerset of a {}-element set cannot be materialised",
                input_cardinality
            ),
            EvalError::WorkerPanicked { detail } => {
                write!(f, "batch worker panicked: {}", detail)
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unbounded_except_while() {
        let c = EvalConfig::default();
        assert_eq!(c.max_object_size, None);
        assert_eq!(c.max_nodes, None);
        assert!(c.max_while_iters > 0);
    }

    #[test]
    fn display_messages() {
        let e = EvalError::SpaceBudgetExceeded {
            required: 100,
            budget: 10,
        };
        assert!(e.to_string().contains("size 100"));
        let e = EvalError::WhileDiverged { iterations: 7 };
        assert!(e.to_string().contains('7'));
    }
}
