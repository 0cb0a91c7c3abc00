//! Section 6.2: the terminating omission-mode protocol `FIP(Z⁰, O⁰)`,
//! its optimization `F*`, and the Lemma A.10/A.11 simplifications.

use eba::prelude::*;
use eba_core::chains::exists_zero_star;
use eba_core::protocols::{f_star, f_star_direct, zero_chain_pair};

fn omission_system(n: usize, t: usize, horizon: u16) -> GeneratedSystem {
    let scenario = Scenario::new(n, t, FailureMode::Omission, horizon).unwrap();
    GeneratedSystem::exhaustive(&scenario)
}

/// Two decision tables agree on every nonfaulty processor of every run.
fn same_nonfaulty_decisions(system: &GeneratedSystem, a: &FipDecisions, b: &FipDecisions) -> bool {
    system.run_ids().all(|run| {
        system
            .nonfaulty(run)
            .iter()
            .all(|p| a.decision(run, p) == b.decision(run, p))
    })
}

/// Lemma A.10/A.11 (combined): one zero-first optimization step leaves
/// `FIP(Z⁰, O⁰)` unchanged — `Z¹ = Z⁰` and `O¹ = O⁰` as decision rules.
#[test]
fn lemma_a10_a11_step_is_identity_on_chain_protocol() {
    let system = omission_system(3, 1, 2);
    let mut ctor = Constructor::new(&system);
    let base = zero_chain_pair(&mut ctor);
    let stepped = ctor.step_zero(&base);
    let d_base = FipDecisions::compute(&system, &base, "FIP(Z⁰,O⁰)");
    let d_stepped = FipDecisions::compute(&system, &stepped, "F¹");
    assert!(
        same_nonfaulty_decisions(&system, &d_base, &d_stepped),
        "step_zero changed the chain protocol's decisions"
    );
}

/// The decision sets `Z_i = B^N_i ∃0*` and `O_i = B^N_i ¬∃0*` of
/// `FIP(Z⁰, O⁰)` as Section 6.2 prints them, over the time-indexed `∃0*`
/// ("a 0-chain of length `≤ m` exists at time `m`"), built next to the
/// run-closed reading of [`zero_chain_pair`].
fn literal_zero_chain_sets(ctor: &mut Constructor<'_>) -> (StateSets, StateSets) {
    let star = {
        let eval = ctor.evaluator();
        let bits = exists_zero_star(eval);
        Formula::PointPred(eval.register_point_pred(bits))
    };
    let zero = ctor.views_satisfying(|i| star.clone().believed_by(i, NonRigidSet::Nonfaulty));
    let one = ctor.views_satisfying(|i| star.clone().not().believed_by(i, NonRigidSet::Nonfaulty));
    (zero, one)
}

/// **Reproduction finding 2**, negative half: `FIP(Z⁰, O⁰)` needs the
/// run-closed reading of `∃0*`. No 0-chain exists at time 0, so under
/// the literal pair `¬∃0*` is believed there and processors decide 1 at
/// time 0 in runs that start with a 0, breaking validity. With the
/// literal `Z_i = B^N_i ∃0*` (beside the run-closed `O⁰`), a processor
/// that has only received a chain prefix cannot decide 0 yet, so some
/// nonfaulty processor decides after Proposition 6.4's bound of `f + 1`.
#[test]
fn zero_chain_protocol_fails_under_the_literal_reading() {
    let system = omission_system(4, 1, 3);
    let mut ctor = Constructor::new(&system);
    let closed = zero_chain_pair(&mut ctor);
    let (literal_zero, literal_one) = literal_zero_chain_sets(&mut ctor);

    let literal = DecisionPair::new(literal_zero.clone(), literal_one);
    let d = FipDecisions::compute(&system, &literal, "FIP(B^N ∃0*, B^N ¬∃0*)");
    let early_one = system.run_ids().any(|run| {
        system.run(run).config.exists(Value::Zero)
            && system.nonfaulty(run).iter().any(|p| {
                d.decision(run, p)
                    .is_some_and(|dec| dec.value == Value::One && dec.time.ticks() == 0)
            })
    });
    assert!(
        early_one,
        "the literal pair must decide 1 at time 0 in a run with a 0"
    );
    let report = verify_properties(&system, &d);
    assert!(!report.validity_violations.is_empty(), "{report}");

    let literal_z = DecisionPair::new(literal_zero, closed.one().clone());
    let d = FipDecisions::compute(&system, &literal_z, "FIP(B^N ∃0*, O⁰)");
    let late = system.run_ids().any(|run| {
        let f = system.run(run).pattern.num_faulty() as u16;
        system
            .nonfaulty(run)
            .iter()
            .any(|p| d.decision_time(run, p).is_some_and(|t| t.ticks() > f + 1))
    });
    assert!(late, "the literal Z⁰ must miss the f + 1 bound somewhere");
}

/// **Reproduction finding** (see `f_star_direct`'s docs): the literal
/// closed form printed in Proposition 6.6 degenerates under the paper's
/// own empty-set convention for `C□` — `C□_{N∧Z⁰} ∃0` is valid, so its
/// decide-1 rule never fires. We verify exactly that: the literal form is
/// a nontrivial agreement protocol, fails the decision property (never
/// decides 1 in all-ones runs), and is strictly dominated by the
/// mechanical Theorem 5.2 construction, which is optimal.
#[test]
fn f_star_literal_closed_form_degenerates() {
    let system = omission_system(3, 1, 2);
    let mut ctor = Constructor::new(&system);
    let mechanical = f_star(&mut ctor);
    let direct = f_star_direct(&mut ctor);
    let d_mech = FipDecisions::compute(&system, &mechanical, "F* (two-step)");
    let d_direct = FipDecisions::compute(&system, &direct, "F* (literal)");

    // C□_{N∧Z⁰} ∃0 is valid in the system …
    let z0 = zero_chain_pair(&mut ctor);
    let z0_id = ctor.evaluator().register_state_sets(z0.zero().clone());
    let c0 = Formula::exists(Value::Zero).continual_common(NonRigidSet::NonfaultyAnd(z0_id));
    assert!(ctor.evaluator().valid(&c0), "C□_{{N∧Z⁰}}∃0 should be valid");

    // … so the literal form never decides 1, failing EBA, while the
    // two-step form is a (verified-optimal) EBA protocol dominating it.
    let report_direct = verify_properties(&system, &d_direct);
    assert!(report_direct.is_nontrivial_agreement());
    assert!(!report_direct.is_eba());
    let report_mech = verify_properties(&system, &d_mech);
    assert!(report_mech.is_eba(), "{report_mech}");
    let dom = dominates(&system, &d_mech, &d_direct);
    assert!(dom.dominates && dom.strict, "{dom}");
}

/// The full Proposition 6.6 statement at a second scenario size: `F*` is
/// an optimal EBA protocol dominating `FIP(Z⁰, O⁰)`.
#[test]
fn f_star_is_optimal_eba_n4() {
    let system = omission_system(4, 1, 3);
    let mut ctor = Constructor::new(&system);
    let base = zero_chain_pair(&mut ctor);
    let star = f_star(&mut ctor);
    let d_base = FipDecisions::compute(&system, &base, "FIP(Z⁰,O⁰)");
    let d_star = FipDecisions::compute(&system, &star, "F*");

    let report = verify_properties(&system, &d_star);
    assert!(report.is_eba(), "{report}");
    let dom = dominates(&system, &d_star, &d_base);
    assert!(dom.dominates, "{dom}");
    assert!(check_optimality(&mut ctor, &star).is_optimal());
}

/// Proposition 6.4 at `n = 4`: decisions by time `f + 1`, exhaustively.
#[test]
fn chain_protocol_decides_by_f_plus_one_n4() {
    let system = omission_system(4, 1, 3);
    let mut ctor = Constructor::new(&system);
    let base = zero_chain_pair(&mut ctor);
    let d = FipDecisions::compute(&system, &base, "FIP(Z⁰,O⁰)");
    for run in system.run_ids() {
        let f = system.run(run).pattern.num_faulty() as u16;
        for p in system.nonfaulty(run) {
            let t = d.decision_time(run, p).expect("EBA decides");
            assert!(t.ticks() <= f + 1, "{p} decided at {t} with f = {f}");
        }
    }
}

/// `F*` must strictly dominate the chain protocol somewhere (otherwise
/// `FIP(Z⁰, O⁰)` would itself be optimal, which Theorem 5.3 denies).
#[test]
fn f_star_improves_somewhere() {
    let system = omission_system(3, 1, 2);
    let mut ctor = Constructor::new(&system);
    let base = zero_chain_pair(&mut ctor);
    let star = f_star(&mut ctor);
    let base_optimal = check_optimality(&mut ctor, &base).is_optimal();
    let d_base = FipDecisions::compute(&system, &base, "FIP(Z⁰,O⁰)");
    let d_star = FipDecisions::compute(&system, &star, "F*");
    let dom = dominates(&system, &d_star, &d_base);
    assert!(dom.dominates);
    assert_eq!(
        dom.strict, !base_optimal,
        "strict improvement iff the base protocol was not optimal"
    );
}
