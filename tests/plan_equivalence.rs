//! Differential suite for the compiled evaluation plans: on random
//! formulas and across scenario spaces, the plan pipeline (CSR knowledge
//! kernels, word-level `E_S`/`S_S`, native gfp iteration, batched
//! reachability) must produce **bit-identical** extensions to the
//! recursive reference evaluator (`Evaluator::eval_reference`) and the
//! per-set reachability path — including on chaos-supervised
//! reachability and on budget-partial systems. The references are
//! reached only through their own entry points, never through a plan.

use eba::prelude::*;
use eba_kripke::{fixpoint, BatchBuilder, Reachability};
use eba_sim::ViewId;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// A sampled (non-exhaustive) scenario space: the plan kernels must not
/// assume anything about which runs are present.
fn sampled_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(4, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::sampled(&scenario, 120, 0xEBA)
    })
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
            inner
                .clone()
                .prop_map(|f| f.someone(NonRigidSet::Nonfaulty)),
            inner
                .clone()
                .prop_map(|f| f.distributed(NonRigidSet::Nonfaulty)),
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

/// Evaluates `phi` over `system` — compiled plan vs recursive oracle —
/// and asserts the extensions are bit-identical. The plan side runs
/// twice: cold, and again from a fresh evaluator over the first one's
/// warm knowledge cache, so cached reachability and scope columns are
/// checked too.
fn assert_plan_matches_oracle(
    system: &GeneratedSystem,
    phi: &Formula,
    label: &str,
) -> Result<(), TestCaseError> {
    let mut compiled = Evaluator::new(system);
    let via_plan = compiled.eval(phi);
    let via_rec = Evaluator::new(system).eval_reference(phi);
    prop_assert_eq!(
        &*via_plan,
        &via_rec,
        "compiled plan and recursive oracle disagree on {} over {}",
        phi,
        label
    );
    let mut rewarmed = Evaluator::with_cache(system, compiled.knowledge_cache().clone());
    prop_assert_eq!(
        &*rewarmed.eval(phi),
        &via_rec,
        "a warm knowledge cache changed the extension of {} over {}",
        phi,
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core differential property: on random formulas, plan extensions
    /// equal the recursive evaluator's on exhaustive crash, omission, and
    /// general-omission systems and on a sampled scenario space.
    #[test]
    fn plan_matches_recursive_oracle(
        phi in formula_strategy(),
        which in 0usize..4,
    ) {
        let (system, label) = match which {
            0 => (crash_system(), "crash (exhaustive)"),
            1 => (omission_system(), "omission (exhaustive)"),
            2 => (general_omission_system(), "general-omission (exhaustive)"),
            _ => (sampled_system(), "crash (sampled)"),
        };
        assert_plan_matches_oracle(system, &phi, label)?;
    }

    /// The native `GfpIter` loop matches the formula-iteration reference
    /// loop in result *and* iteration count, for both `C_S` and `C□_S`.
    #[test]
    fn gfp_kernel_matches_formula_iteration(
        phi in formula_strategy(),
        which in 0usize..3,
        continual in proptest::bool::ANY,
    ) {
        let system = match which {
            0 => crash_system(),
            1 => omission_system(),
            _ => general_omission_system(),
        };
        let mut plan_eval = Evaluator::new(system);
        let mut rec_eval = Evaluator::new(system);
        let s = NonRigidSet::Nonfaulty;
        let (a, ia) = if continual {
            fixpoint::continual_common_by_gfp(&mut plan_eval, s, &phi)
        } else {
            fixpoint::common_by_gfp(&mut plan_eval, s, &phi)
        };
        let (b, ib) = fixpoint::common_by_formula_iteration(&mut rec_eval, s, &phi, continual);
        prop_assert_eq!(&a, &b, "gfp engines disagree on {}", &phi);
        prop_assert_eq!(ia, ib, "gfp iteration counts diverge on {}", &phi);
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

/// Asserts two reachability structures agree bit for bit: point
/// components (and their count), per-point members, run components, and
/// the `S`-emptiness mask.
fn assert_reach_identical(
    system: &GeneratedSystem,
    want: &Reachability,
    got: &Reachability,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        want.num_point_components(),
        got.num_point_components(),
        "component counts diverge under {}",
        label
    );
    for idx in 0..system.num_points() {
        prop_assert_eq!(
            want.point_component(idx),
            got.point_component(idx),
            "component of point {} diverges under {}",
            idx,
            label
        );
        prop_assert_eq!(want.members(idx), got.members(idx));
    }
    for run in system.run_ids() {
        prop_assert_eq!(
            want.run_component(run),
            got.run_component(run),
            "run component of {} diverges under {}",
            run.index(),
            label
        );
        prop_assert_eq!(want.run_has_s_points(run), got.run_has_s_points(run));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched reachability differential: random nonrigid-set families
    /// resolved by one `BatchBuilder` sweep produce components, run
    /// projections, *and* scope columns bit-identical to the per-set
    /// path's, across the three scenario spaces; and formulas scoped by
    /// the registered families evaluate identically through the plan
    /// and through the reference evaluator.
    #[test]
    fn batched_reachability_matches_per_set_path(
        seed in proptest::num::u64::ANY,
        keep_mod in 1u64..5,
        which in 0usize..3,
    ) {
        let (system, label) = match which {
            0 => (crash_system(), "crash (exhaustive)"),
            1 => (omission_system(), "omission (exhaustive)"),
            _ => (sampled_system(), "crash (sampled)"),
        };
        let mut batched = Evaluator::new(system);
        let mut per_set = Evaluator::new(system);
        let fam_a = random_family(system, seed, keep_mod);
        let fam_b = random_family(system, seed ^ 0xABCD, keep_mod);
        let a = batched.register_state_sets(fam_a.clone());
        let b = batched.register_state_sets(fam_b.clone());
        prop_assert_eq!(a, per_set.register_state_sets(fam_a));
        prop_assert_eq!(b, per_set.register_state_sets(fam_b));
        let family = [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(a),
            NonRigidSet::NonfaultyAnd(b),
        ];
        // One sweep serves every reachability *and* scope request.
        let mut batch = BatchBuilder::new();
        for &s in &family {
            batch.request_reachability(s);
            batch.request_scopes(s);
        }
        batch.run(&mut batched);
        for &s in &family {
            let got = batched.reachability(s);
            let want = per_set.reachability(s);
            assert_reach_identical(system, &want, &got, &format!("{s:?} over {label}"))?;
            prop_assert_eq!(
                &*per_set.scope_columns(s),
                &*batched.scope_columns(s),
                "scope columns diverge under {:?} over {}",
                s,
                label
            );
        }
        let phi = Formula::exists(Value::Zero);
        let s = NonRigidSet::NonfaultyAnd(a);
        for formula in [
            phi.clone().common(s),
            phi.clone().continual_common(s),
            phi.clone().believed_by(ProcessorId::new(1), s).eventually(),
        ] {
            prop_assert_eq!(
                &*batched.eval(&formula),
                &per_set.eval_reference(&formula),
                "registered-family formula {} diverges over {}",
                &formula,
                label
            );
        }
    }
}

/// Scope-column interning: nonrigid sets with *distinct* content keys but
/// identical membership vectors share one `Arc` in the shared cache, and
/// the dedup is visible in the cache counters. `N ∧ A` with `A` the full
/// view table resolves to exactly `N`'s membership — the `N − F(r, t)`
/// shape crash/omission sweeps keep rebuilding.
#[test]
fn interned_scope_columns_dedup_identical_memberships() {
    let system = crash_system();
    let mut eval = Evaluator::new(system);
    // Every view for every processor: the `A_i` test is vacuous.
    let full = random_family(system, 0, 1);
    let id = eval.register_state_sets(full);
    let col_n = eval.scope_columns(NonRigidSet::Nonfaulty);
    let col_full = eval.scope_columns(NonRigidSet::NonfaultyAnd(id));
    assert!(
        Arc::ptr_eq(&col_n, &col_full),
        "identical membership vectors must intern to one Arc"
    );
    let stats = eval.knowledge_cache().stats();
    assert!(
        stats.scope_deduped >= 1,
        "dedup counter must record the hit"
    );
    assert!(stats.scope_interned >= 1);
}

/// Chaos supervision must stay invisible to the batched sweep: with a
/// panic injected into a parallel edge-collection worker, the batch still
/// produces the per-set path's exact structures.
#[test]
fn batched_reachability_matches_per_set_under_chaos() {
    use eba_sim::chaos::{ChaosPlan, FaultInjector, FaultKind, FaultSite};
    // Big enough that the batch sweep fans out to the supervised worker
    // pool, so the injected panic lands in a worker.
    let scenario = Scenario::new(3, 2, FailureMode::Crash, 3).unwrap();
    let system = GeneratedSystem::exhaustive(&scenario);

    let mut per_set = Evaluator::new(&system);
    per_set.set_threads(1);

    let chaos =
        Arc::new(ChaosPlan::new().with_fault(FaultSite::ReachabilityWorker, 0, FaultKind::Panic));
    let mut batched = Evaluator::new(&system);
    batched.set_threads(4);
    batched.set_chaos(Arc::clone(&chaos) as Arc<dyn FaultInjector>);

    let family = [NonRigidSet::Everyone, NonRigidSet::Nonfaulty];
    let got = batched.reachability_batch(&family);
    assert_eq!(chaos.fired(), 1, "the planned worker panic must have fired");
    for (&s, got) in family.iter().zip(got) {
        let want = per_set.reachability(s);
        assert_reach_identical(&system, &want, &got, &format!("{s:?} under chaos")).unwrap();
    }
}

/// Budget-partial systems: the batched sweep over a prefix-of-shards
/// system agrees with the per-set path on every requested set.
#[test]
fn batched_reachability_matches_per_set_on_budget_partial_system() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let outcome = SystemBuilder::new(&scenario)
        .threads(2)
        .shards(8)
        .budget(RunBudget::unlimited().with_max_runs(40))
        .build_governed()
        .expect("governed build failed");
    let system = match outcome {
        BuildOutcome::Partial { system, .. } => system,
        BuildOutcome::Complete { .. } => {
            panic!("max-runs budget should have cut the build short")
        }
    };
    assert!(system.num_runs() > 0, "need a nonempty partial prefix");

    let mut batched = Evaluator::new(&system);
    let mut per_set = Evaluator::new(&system);
    let fam = random_family(&system, 0xEBA, 2);
    let a = batched.register_state_sets(fam.clone());
    assert_eq!(a, per_set.register_state_sets(fam));
    let family = [
        NonRigidSet::Everyone,
        NonRigidSet::Nonfaulty,
        NonRigidSet::NonfaultyAnd(a),
    ];
    let got = batched.reachability_batch(&family);
    for (&s, got) in family.iter().zip(got) {
        let want = per_set.reachability(s);
        assert_reach_identical(&system, &want, &got, &format!("{s:?} on partial system")).unwrap();
        assert_eq!(
            *per_set.scope_columns(s),
            *batched.scope_columns(s),
            "scope columns diverge under {s:?} on the partial system"
        );
    }
}

/// For every processor `i`, the views at which the reference evaluator
/// finds `B^N_i ψ` at every point where `i` has that view — Prop 5.1's
/// decision sets read off explicit per-processor belief formulas.
fn reference_views_believed(eval: &mut Evaluator<'_>, psi: &Formula) -> StateSets {
    let system = eval.system();
    let mut sets = StateSets::empty(system.n());
    for i in ProcessorId::all(system.n()) {
        let holds = eval.eval_reference(&psi.clone().believed_by(i, NonRigidSet::Nonfaulty));
        let mut qualifies: HashMap<ViewId, bool> = HashMap::new();
        for idx in 0..eval.num_points() {
            let (run, time) = eval.point_of(idx);
            *qualifies.entry(system.view(run, i, time)).or_insert(true) &= holds.get(idx);
        }
        for (v, ok) in qualifies {
            if ok {
                sets.insert(i, v);
            }
        }
    }
    sets
}

/// Theorem 5.2's two steps through the reference evaluator only: first
/// `Z′_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0)` (the second step reads only `Z′`),
/// then `Z″_i = B^N_i(∃0 ∧ ¬C□_{N∧Z′} ∃1)`, `O″_i = B^N_i(∃1 ∧ C□_{N∧Z′} ∃1)`.
fn reference_optimize(system: &GeneratedSystem, base: &DecisionPair) -> DecisionPair {
    let mut eval = Evaluator::new(system);
    let o = eval.register_state_sets(base.one().clone());
    let c0 = Formula::exists(Value::Zero).continual_common(NonRigidSet::NonfaultyAnd(o));
    let zero = reference_views_believed(&mut eval, &Formula::exists(Value::Zero).and(c0));
    let z = eval.register_state_sets(zero);
    let c1 = Formula::exists(Value::One).continual_common(NonRigidSet::NonfaultyAnd(z));
    let zero = reference_views_believed(
        &mut eval,
        &Formula::exists(Value::Zero).and(c1.clone().not()),
    );
    let one = reference_views_believed(&mut eval, &Formula::exists(Value::One).and(c1));
    DecisionPair::new(zero, one)
}

/// The optimization pipeline (fused decision-set extraction, batched
/// prefetch) must produce the *same decision sets* as the Prop 5.1
/// formulas evaluated by the reference evaluator, down to the per-run
/// decision vectors, on crash and omission systems; and the result must
/// pass the Theorem 5.3 optimality check.
#[test]
fn construction_decision_vectors_agree() {
    let crash = crash_system();
    let cases = [
        (crash, DecisionPair::empty(3)),
        (
            crash,
            eba_core::protocols::crash_rule(&mut Constructor::new(crash)),
        ),
        (omission_system(), DecisionPair::empty(3)),
    ];
    for (system, base) in cases {
        let mut plan_ctor = Constructor::new(system);
        let optimized_plan = plan_ctor.optimize(&base);
        let optimized_rec = reference_optimize(system, &base);
        assert_eq!(
            optimized_plan, optimized_rec,
            "optimized decision pairs diverge between plan and recursive evaluation"
        );
        // And the run-level decision vectors they induce.
        let d_plan = FipDecisions::compute(system, &optimized_plan, "plan");
        let d_rec = FipDecisions::compute(system, &optimized_rec, "recursive");
        for r in system.run_ids() {
            for i in ProcessorId::all(3) {
                let a = d_plan.decision(r, i).map(|d| (d.time, d.value));
                let b = d_rec.decision(r, i).map(|d| (d.time, d.value));
                assert_eq!(a, b, "decision of {i} in run {} diverges", r.index());
            }
        }
        assert!(
            check_optimality(&mut plan_ctor, &optimized_plan).is_optimal(),
            "Theorem 5.2's construction must pass the Theorem 5.3 check"
        );
    }
}

/// Chaos supervision must stay invisible to the plan pipeline: with a
/// fault injected into a reachability worker, plan evaluation still
/// matches a fault-free recursive oracle bit for bit.
#[test]
fn plan_matches_oracle_under_chaos_supervision() {
    use eba_sim::chaos::{ChaosPlan, FaultInjector, FaultKind, FaultSite};
    use std::sync::Arc;
    // Big enough that reachability edge collection fans out to the
    // supervised worker pool, so the injected panic lands in a worker.
    let scenario = Scenario::new(3, 2, FailureMode::Crash, 3).unwrap();
    let system = GeneratedSystem::exhaustive(&scenario);
    let phi = Formula::exists(Value::Zero);
    let formula = phi
        .clone()
        .continual_common(NonRigidSet::Nonfaulty)
        .or(phi.common(NonRigidSet::Everyone).not());

    let mut oracle = Evaluator::new(&system);
    oracle.set_threads(1);
    let want = oracle.eval_reference(&formula);

    let chaos =
        Arc::new(ChaosPlan::new().with_fault(FaultSite::ReachabilityWorker, 0, FaultKind::Panic));
    let mut chaotic = Evaluator::new(&system);
    chaotic.set_threads(4);
    chaotic.set_chaos(Arc::clone(&chaos) as Arc<dyn FaultInjector>);
    let got = chaotic.eval(&formula);
    assert_eq!(chaos.fired(), 1, "the planned worker panic must have fired");
    assert_eq!(*got, want, "chaos recovery changed a plan extension");
}

/// Budget-partial systems (prefix of shards) still build their point
/// store, and plan extensions on them equal the recursive oracle's.
#[test]
fn plan_matches_oracle_on_budget_partial_system() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let outcome = SystemBuilder::new(&scenario)
        .threads(2)
        .shards(8)
        .budget(RunBudget::unlimited().with_max_runs(40))
        .build_governed()
        .expect("governed build failed");
    let system = match outcome {
        BuildOutcome::Partial { system, .. } => system,
        BuildOutcome::Complete { .. } => {
            panic!("max-runs budget should have cut the build short")
        }
    };
    assert!(system.num_runs() > 0, "need a nonempty partial prefix");
    let store = system.points();
    assert_eq!(store.num_points(), system.num_points());

    let phi = Formula::exists(Value::One);
    for formula in [
        phi.clone().everyone(NonRigidSet::Nonfaulty),
        phi.clone().common(NonRigidSet::Nonfaulty),
        phi.clone().continual_common(NonRigidSet::Nonfaulty).not(),
        phi.clone().distributed(NonRigidSet::Everyone).eventually(),
    ] {
        let mut compiled = Evaluator::new(&system);
        let mut oracle = Evaluator::new(&system);
        assert_eq!(
            *compiled.eval(&formula),
            oracle.eval_reference(&formula),
            "partial-system extensions diverge on {formula}"
        );
    }
}
