//! Fixed-point implementations of `C_S` and `C□_S`, used for
//! differential testing of the union-find reachability engine.
//!
//! The paper defines `C_S φ` as the infinite conjunction `⋀_k E_S^k φ`,
//! equivalently the greatest fixed point of `X ↔ E_S(φ ∧ X)`, and
//! `C□_S φ` as the greatest fixed point of `X ↔ E□_S(φ ∧ X)`
//! (Section 3.3). On a finite system the greatest fixed point is reached
//! by iterating from `True`, which is what these functions do — slowly
//! but by-the-definition. [`crate::Evaluator`] computes the same
//! operators via reachability components (Proposition 3.2 /
//! Corollary 3.3); the `gfp_agrees_with_reachability` tests and the
//! property suite check the two agree bit-for-bit.
//!
//! The iteration runs as the compiled plan's native `GfpIter` loop
//! ([`crate::plan`]). [`common_by_formula_iteration`] keeps the
//! by-the-book loop over formulas as the test-only reference for it.

use crate::bitset::Bitset;
use crate::{Evaluator, Formula, NonRigidSet};
use eba_model::{ArmedBudget, BudgetHit, RunBudget, Time};

/// Computes `C_S φ` by greatest-fixed-point iteration of
/// `X ← E_S(φ ∧ X)`, starting from `True`.
///
/// Returns the satisfaction bitset and the number of iterations needed
/// (including the final confirming pass).
pub fn common_by_gfp(eval: &mut Evaluator<'_>, s: NonRigidSet, phi: &Formula) -> (Bitset, usize) {
    unlimited(crate::plan::gfp(
        eval,
        s,
        phi,
        false,
        &RunBudget::unlimited().arm(),
    ))
}

/// Computes `C□_S φ` by greatest-fixed-point iteration of
/// `X ← E□_S(φ ∧ X)` where `E□_S ψ = □̄ E_S ψ`.
pub fn continual_common_by_gfp(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
) -> (Bitset, usize) {
    unlimited(crate::plan::gfp(
        eval,
        s,
        phi,
        true,
        &RunBudget::unlimited().arm(),
    ))
}

/// [`common_by_gfp`] under a budget: the deadline is checked once per
/// iteration.
///
/// # Errors
///
/// Returns the [`BudgetHit`] when the budget ran out mid-iteration.
pub fn common_by_gfp_governed(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    budget: &ArmedBudget,
) -> Result<(Bitset, usize), BudgetHit> {
    crate::plan::gfp(eval, s, phi, false, budget)
}

/// [`continual_common_by_gfp`] under a budget; see
/// [`common_by_gfp_governed`].
///
/// # Errors
///
/// Returns the [`BudgetHit`] when the budget ran out mid-iteration.
pub fn continual_common_by_gfp_governed(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    budget: &ArmedBudget,
) -> Result<(Bitset, usize), BudgetHit> {
    crate::plan::gfp(eval, s, phi, true, budget)
}

/// Unwraps a governed result produced under an unlimited budget, which
/// never fires.
fn unlimited(result: Result<(Bitset, usize), BudgetHit>) -> (Bitset, usize) {
    match result {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// The reference for [`common_by_gfp`] (`continual = false`) and
/// [`continual_common_by_gfp`] (`continual = true`): iterates
/// `X ← E_S(φ ∧ X)` (continual: `X ← □̄ E_S(φ ∧ X)`) from `X = True`
/// until stable, as formulas. Each iterate is registered as a point
/// predicate and the next one is computed by
/// [`Evaluator::eval_reference`], so no step goes through a compiled
/// plan. Test-only; returns the same result and iteration count as the
/// production loop.
///
/// # Panics
///
/// Panics when the evaluator's point-predicate id space is exhausted.
pub fn common_by_formula_iteration(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    continual: bool,
) -> (Bitset, usize) {
    let mut current = Bitset::new_true(eval.num_points());
    let mut iterations = 0;
    loop {
        iterations += 1;
        let x = Formula::PointPred(eval.register_point_pred(current.clone()));
        let step = phi.clone().and(x);
        let step = if continual {
            step.everyone_box(s)
        } else {
            step.everyone(s)
        };
        let next = eval.eval_reference(&step);
        if next == current {
            return (current, iterations);
        }
        current = next;
    }
}

/// Computes the bounded conjunction `⋀_{k=1..depth} E_S^k φ` — the
/// textbook definition of common knowledge truncated at `depth`. On a
/// finite system, `C_S φ` equals the value of this at any depth at least
/// the number of distinct `(i, view)` buckets; the tests use it to
/// cross-check small instances directly against the definition.
pub fn everyone_iterated(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    depth: usize,
) -> Bitset {
    let mut conjunction = Bitset::new_true(eval.num_points());
    let mut layer = phi.clone();
    for _ in 0..depth {
        layer = layer.everyone(s);
        conjunction &= &eval.eval(&layer);
    }
    conjunction
}

/// A convenience report for diffing two satisfaction sets: the number of
/// points where they disagree and a sample point.
#[must_use]
pub fn diff(eval: &Evaluator<'_>, a: &Bitset, b: &Bitset) -> Option<(usize, (usize, Time))> {
    let mut mismatches = 0;
    let mut sample = None;
    for idx in 0..a.len() {
        if a.get(idx) != b.get(idx) {
            mismatches += 1;
            if sample.is_none() {
                let (run, time) = eval.point_of(idx);
                sample = Some((run.index(), time));
            }
        }
    }
    sample.map(|s| (mismatches, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{FailureMode, ProcessorId, Scenario, Value};
    use eba_sim::GeneratedSystem;

    fn systems() -> Vec<GeneratedSystem> {
        vec![
            GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Crash, 2).unwrap()),
            GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Omission, 2).unwrap()),
        ]
    }

    fn formulas() -> Vec<Formula> {
        vec![
            Formula::exists(Value::Zero),
            Formula::exists(Value::One),
            Formula::exists(Value::Zero).not(),
            Formula::exists(Value::One).known_by(ProcessorId::new(0)),
            Formula::False,
            Formula::True,
        ]
    }

    #[test]
    fn gfp_agrees_with_reachability_for_common_knowledge() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let via_reach = eval.eval(&phi.clone().common(NonRigidSet::Nonfaulty));
                let (via_gfp, iters) = common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                assert!(iters < 50, "gfp failed to converge quickly");
                assert_eq!(
                    diff(&eval, &via_reach, &via_gfp),
                    None,
                    "C_N({phi}) differs between union-find and gfp"
                );
            }
        }
    }

    #[test]
    fn gfp_agrees_with_reachability_for_continual_common_knowledge() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let via_reach = eval.eval(&phi.clone().continual_common(NonRigidSet::Nonfaulty));
                let (via_gfp, _) = continual_common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                assert_eq!(
                    diff(&eval, &via_reach, &via_gfp),
                    None,
                    "C□_N({phi}) differs between union-find and gfp"
                );
            }
        }
    }

    #[test]
    fn iterated_everyone_converges_to_common_knowledge() {
        for system in systems() {
            let phi = Formula::exists(Value::Zero);
            let mut eval = Evaluator::new(&system);
            let exact = eval.eval(&phi.clone().common(NonRigidSet::Nonfaulty));
            // E^k must be ⊇ C for every k, and equal for large k.
            for depth in 1..=3 {
                let approx = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, depth);
                assert!(exact.is_subset(&approx), "C ⊆ E^{depth} violated");
            }
            let deep = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, 64);
            assert_eq!(diff(&eval, &exact, &deep), None);
        }
    }

    #[test]
    fn governed_gfp_with_unlimited_budget_matches_ungoverned() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let budget = eba_model::RunBudget::unlimited().arm();
                let (plain, plain_iters) = common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                let (governed, governed_iters) =
                    common_by_gfp_governed(&mut eval, NonRigidSet::Nonfaulty, &phi, &budget)
                        .unwrap();
                assert_eq!(plain, governed, "C_N({phi}) differs under a no-op budget");
                assert_eq!(plain_iters, governed_iters);
                let (plain_box, _) =
                    continual_common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                let (governed_box, _) = continual_common_by_gfp_governed(
                    &mut eval,
                    NonRigidSet::Nonfaulty,
                    &phi,
                    &budget,
                )
                .unwrap();
                assert_eq!(plain_box, governed_box);
            }
        }
    }

    #[test]
    fn governed_gfp_honors_an_expired_deadline() {
        let system = &systems()[0];
        let mut eval = Evaluator::new(system);
        let budget = eba_model::RunBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .arm();
        let phi = Formula::exists(Value::Zero);
        let err =
            common_by_gfp_governed(&mut eval, NonRigidSet::Nonfaulty, &phi, &budget).unwrap_err();
        match err {
            eba_model::BudgetHit::Deadline { .. } => {}
            other => panic!("expected a deadline hit, got {other}"),
        }
    }

    #[test]
    fn gfp_with_empty_set_is_all_true() {
        let system = &systems()[0];
        let mut eval = Evaluator::new(system);
        let empty = eval.register_state_sets(crate::StateSets::empty(3));
        let s = NonRigidSet::NonfaultyAnd(empty);
        let (set, _) = continual_common_by_gfp(&mut eval, s, &Formula::False);
        assert!(set.all(), "C□ over an empty nonrigid set must be vacuous");
    }
}
