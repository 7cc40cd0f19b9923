//! The space-class order every rescue must descend.
//!
//! The model is [`nra_symbolic::classify_space`] — the paper's Lemma 5.8
//! dichotomy — folded onto a total order of ranks:
//!
//! ```text
//! Polynomial{d} < BoundedPowerset{m} < Exponential < Unanalyzed
//! ```
//!
//! with `Polynomial` ordered by degree and `BoundedPowerset` by order.
//! `Unanalyzed` ranks *worst*: an expression the analyser cannot place
//! must not be the destination of a rewrite away from one it can. Both
//! sides of every rescue are constants, so the check that a rescue
//! strictly lowers the rank is a test over the table
//! (`rewrite::tests::every_rescue_strictly_lowers_the_space_class`),
//! not a gate consulted at serve time.

use nra_symbolic::SpaceClass;

/// A space class collapsed to an orderable rank (smaller is better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(u8, u64);

/// Rank a space class; see the [module docs](self) for the order.
pub fn rank(class: &SpaceClass) -> Rank {
    match class {
        SpaceClass::Polynomial { degree } => Rank(0, *degree as u64),
        SpaceClass::BoundedPowerset { order } => Rank(1, *order),
        SpaceClass::Exponential { .. } => Rank(2, 0),
        SpaceClass::Unanalyzed { .. } => Rank(3, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::queries;
    use nra_symbolic::classify_space;

    #[test]
    fn ranks_follow_the_dichotomy() {
        let exponential = classify_space(&queries::tc_paths());
        assert!(matches!(exponential, SpaceClass::Exponential { .. }));
        let ladder = [
            SpaceClass::Polynomial { degree: 1 },
            SpaceClass::Polynomial { degree: 2 },
            SpaceClass::BoundedPowerset { order: 2 },
            SpaceClass::BoundedPowerset { order: 3 },
            exponential,
            SpaceClass::Unanalyzed {
                reason: "opaque".into(),
            },
        ];
        for pair in ladder.windows(2) {
            assert!(rank(&pair[0]) < rank(&pair[1]), "{pair:?}");
        }
    }
}
