//! Differential suite for the set representation behind the knowledge
//! cache: on random formulas and across scenario spaces, extensions
//! served through the cache — cold, and again through a cache another
//! evaluator has already warmed — must be **bit-identical** to each other
//! and to the recursive reference evaluator (`Evaluator::eval_reference`)
//! and the formula-iteration gfp reference; decisions, optimality
//! verdicts and gfp iteration counts must not depend on the cache's
//! state; and an incremental session must never serve a set from before
//! an extension.
//!
//! The test names date from when the cache had two set-representation
//! backends. With the dense word-block representation the only one left,
//! each property compares the cache-served production path with a cold
//! run of itself and with an independent reference, so any leak of cached
//! storage into semantics still shows.

use eba::prelude::*;
use eba_kripke::fixpoint;
use proptest::prelude::*;
use std::sync::OnceLock;

fn crash_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    })
}

fn omission_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    })
}

fn general_omission_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(3, 1, FailureMode::GeneralOmission, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    })
}

fn pick_system(which: usize) -> (&'static GeneratedSystem, &'static str) {
    match which {
        0 => (crash_system(), "crash (exhaustive)"),
        1 => (omission_system(), "omission (exhaustive)"),
        _ => (general_omission_system(), "general-omission (exhaustive)"),
    }
}

/// A generator of epistemic-temporal formulas over 3 processors (no
/// registered ids, so formulas are portable across evaluators).
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::exists(Value::Zero)),
        Just(Formula::exists(Value::One)),
        (0usize..3, prop_oneof![Just(Value::Zero), Just(Value::One)])
            .prop_map(|(i, v)| Formula::Initial(ProcessorId::new(i), v)),
        (0usize..3).prop_map(|i| Formula::Nonfaulty(ProcessorId::new(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (0usize..3, inner.clone()).prop_map(|(i, f)| f.known_by(ProcessorId::new(i))),
            (0usize..3, inner.clone())
                .prop_map(|(i, f)| { f.believed_by(ProcessorId::new(i), NonRigidSet::Nonfaulty) }),
            inner
                .clone()
                .prop_map(|f| f.everyone(NonRigidSet::Nonfaulty)),
            inner.clone().prop_map(|f| f.common(NonRigidSet::Nonfaulty)),
            inner
                .clone()
                .prop_map(|f| f.continual_common(NonRigidSet::Nonfaulty)),
            inner.clone().prop_map(Formula::always),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always_all),
            inner.prop_map(Formula::sometime_all),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core differential property: on random formulas over exhaustive
    /// crash, omission and general-omission systems, the cache-served
    /// extension equals the reference evaluator's — cold, and again from
    /// a fresh evaluator whose reachability and scope columns all come
    /// back from the warm cache.
    #[test]
    fn shared_matches_dense_on_random_formulas(
        phi in formula_strategy(),
        which in 0usize..3,
    ) {
        let (system, label) = pick_system(which);
        let want = Evaluator::new(system).eval_reference(&phi);
        let mut cold = Evaluator::new(system);
        let got = cold.eval(&phi);
        prop_assert_eq!(
            &want,
            &*got,
            "cold cache and reference disagree on {} over {}",
            &phi,
            label
        );
        let mut warm = Evaluator::with_cache(system, cold.knowledge_cache().clone());
        let again = warm.eval(&phi);
        prop_assert_eq!(
            &want,
            &*again,
            "a warm cache changed the extension of {} over {}",
            &phi,
            label
        );
    }

    /// Gfp fixpoints for both `C_S` and `C□_S` agree in result *and*
    /// iteration count between a cold cache, a warm cache, and the
    /// formula-iteration reference.
    #[test]
    fn gfp_iteration_counts_are_identical_across_backends(
        phi in formula_strategy(),
        which in 0usize..3,
        continual in proptest::bool::ANY,
    ) {
        let (system, label) = pick_system(which);
        let s = NonRigidSet::Nonfaulty;
        let gfp = |eval: &mut Evaluator<'_>| {
            if continual {
                fixpoint::continual_common_by_gfp(eval, s, &phi)
            } else {
                fixpoint::common_by_gfp(eval, s, &phi)
            }
        };
        let mut cold = Evaluator::new(system);
        let (a, ia) = gfp(&mut cold);
        let mut warm = Evaluator::with_cache(system, cold.knowledge_cache().clone());
        let (b, ib) = gfp(&mut warm);
        let (want, iw) =
            fixpoint::common_by_formula_iteration(&mut Evaluator::new(system), s, &phi, continual);
        prop_assert_eq!(&a, &want, "cold gfp diverges from the reference on {} over {}", &phi, label);
        prop_assert_eq!(&b, &want, "warm gfp diverges from the reference on {} over {}", &phi, label);
        prop_assert_eq!(ia, iw, "cold gfp iteration count diverges on {} over {}", &phi, label);
        prop_assert_eq!(ib, iw, "warm gfp iteration count diverges on {} over {}", &phi, label);
    }
}

/// A pseudo-random state-set family over `system`'s view table, derived
/// deterministically from `seed` (splitmix64 per `(processor, view)`), so
/// the same seed registers the same family on any evaluator.
fn random_family(system: &GeneratedSystem, seed: u64, keep_mod: u64) -> StateSets {
    let n = system.n();
    let mut family = StateSets::empty(n);
    for p in ProcessorId::all(n) {
        for (k, v) in system.table().ids().enumerate() {
            let mut x = seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + k as u64))
                .wrapping_add(0x1000_0000 * p.index() as u64);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            if x.is_multiple_of(keep_mod) {
                family.insert(p, v);
            }
        }
    }
    family
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Registered `N ∧ A` families key the cache by their membership
    /// words: the same family registered on a second evaluator over the
    /// warm cache gets the same id, is served without recomputing any
    /// reachability, and yields the reference evaluator's extensions.
    #[test]
    fn registered_families_agree_across_backends(
        seed in proptest::num::u64::ANY,
        keep_mod in 1u64..5,
    ) {
        let system = omission_system();
        let fam = random_family(system, seed, keep_mod);
        let mut cold = Evaluator::new(system);
        let mut reference = Evaluator::new(system);
        let a = cold.register_state_sets(fam.clone());
        prop_assert_eq!(a, reference.register_state_sets(fam.clone()));
        let phi = Formula::exists(Value::Zero);
        let formulas = [
            phi.clone().common(NonRigidSet::NonfaultyAnd(a)),
            phi.clone().continual_common(NonRigidSet::NonfaultyAnd(a)),
            phi.clone()
                .believed_by(ProcessorId::new(1), NonRigidSet::NonfaultyAnd(a))
                .eventually(),
        ];
        for formula in &formulas {
            prop_assert_eq!(
                &reference.eval_reference(formula),
                &*cold.eval(formula),
                "cold cache and reference disagree on registered-family formula {}",
                formula
            );
        }
        let cache = cold.knowledge_cache().clone();
        let misses = cache.stats().reach_misses;
        prop_assert!(misses > 0, "the cold pass must have filled the cache: {}", cache.stats());
        let mut warm = Evaluator::with_cache(system, cache.clone());
        prop_assert_eq!(a, warm.register_state_sets(fam));
        for formula in &formulas {
            prop_assert_eq!(
                &reference.eval_reference(formula),
                &*warm.eval(formula),
                "warm cache and reference disagree on registered-family formula {}",
                formula
            );
        }
        prop_assert_eq!(
            cache.stats().reach_misses,
            misses,
            "the warm pass recomputed reachability for a cached family: {}",
            cache.stats()
        );
    }
}

/// The optimization pipeline produces the same decision sets, per-run
/// decision tables and Theorem 5.3 optimality verdict whether its
/// constructor starts on a cold cache or on one a previous optimization
/// already warmed.
#[test]
fn decisions_and_optimality_verdicts_agree_across_backends() {
    let system = omission_system();
    let base = DecisionPair::empty(3);
    let mut cold_ctor = Constructor::new(system);
    let optimized_cold = cold_ctor.optimize(&base);
    let warm_cache = cold_ctor.evaluator().knowledge_cache().clone();
    let mut warm_ctor = Constructor::with_cache(system, warm_cache);
    let optimized_warm = warm_ctor.optimize(&base);
    assert_eq!(
        optimized_cold, optimized_warm,
        "optimized decision pairs diverge between a cold and a warm cache"
    );
    let d_cold = FipDecisions::compute(system, &optimized_cold, "cold");
    let d_warm = FipDecisions::compute(system, &optimized_warm, "warm");
    for r in system.run_ids() {
        for i in ProcessorId::all(3) {
            let a = d_cold.decision(r, i).map(|d| (d.time, d.value));
            let b = d_warm.decision(r, i).map(|d| (d.time, d.value));
            assert_eq!(a, b, "decision of {i} in run {} diverges", r.index());
        }
    }
    let v_cold = check_optimality(&mut cold_ctor, &optimized_cold).is_optimal();
    let v_warm = check_optimality(&mut warm_ctor, &optimized_warm).is_optimal();
    assert_eq!(
        v_cold, v_warm,
        "optimality verdicts diverge between a cold and a warm cache"
    );
    assert!(
        v_cold,
        "Theorem 5.2's construction must pass the Theorem 5.3 check"
    );
}

/// Horizon extension: one incremental session grown through several
/// horizons must, at every horizon, match a cold session built directly
/// there and the reference evaluator; each extension advances the cache
/// epoch, and the first query after it recomputes its sets instead of
/// serving ones from the smaller system.
#[test]
fn incremental_sessions_agree_across_backends() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let mut session = EngineSession::exhaustive(&scenario).unwrap();
    let phi = Formula::exists(Value::Zero);
    let formula = phi
        .clone()
        .continual_common(NonRigidSet::Nonfaulty)
        .or(phi.common(NonRigidSet::Nonfaulty).not());
    for h in [2u16, 3, 4] {
        if h > 2 {
            let epoch = session.epoch();
            session.extend_to(h).unwrap();
            assert!(
                session.epoch() > epoch,
                "extension to horizon {h} kept the epoch"
            );
        }
        let cold = EngineSession::exhaustive(&scenario.with_horizon(h).unwrap()).unwrap();
        let misses = session.cache().stats().reach_misses;
        let got = session.evaluator().eval(&formula);
        assert_eq!(
            *got,
            *cold.evaluator().eval(&formula),
            "the grown session diverges from a cold build at horizon {h}"
        );
        assert_eq!(
            *got,
            session.evaluator().eval_reference(&formula),
            "the grown session diverges from the reference at horizon {h}"
        );
        let stats = session.cache().stats();
        assert_eq!(stats.epoch, session.epoch());
        assert!(
            stats.reach_misses > misses,
            "the session must recompute reachability after each extension: {stats}"
        );
    }
    assert_eq!(session.extensions().len(), 2);
}
