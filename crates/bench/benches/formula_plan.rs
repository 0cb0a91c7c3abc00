//! Compiled plans on repeated-formula workloads: the gfp fixpoint
//! (where every iteration re-evaluates `E_S(φ ∧ X)`), timed against the
//! test-only formula-iteration reference, and the optimality sweep
//! (where the constructor evaluates the same decision formulas over and
//! over).
//!
//! Every run shares one warm [`KnowledgeCache`] per scenario so
//! reachability (identical on either gfp path) is amortized away and the
//! measured delta is the evaluation pipeline itself: CSR knowledge
//! kernels + word-level set algebra + native `GfpIter` iteration versus
//! formula re-construction and recursive descent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eba_core::{Constructor, DecisionPair};
use eba_kripke::{fixpoint, Evaluator, Formula, KnowledgeCache, NonRigidSet};
use eba_model::{FailureMode, Scenario, Value};
use eba_sim::GeneratedSystem;
use std::hint::black_box;

/// The scenario spaces under test: two exhaustive spaces and the n=5,
/// t=2 sampled space from the acceptance criteria.
fn systems() -> Vec<(String, GeneratedSystem)> {
    let mut out = Vec::new();
    for scenario in [
        Scenario::new(3, 1, FailureMode::Crash, 3).expect("valid scenario"),
        Scenario::new(3, 1, FailureMode::Omission, 2).expect("valid scenario"),
    ] {
        out.push((scenario.to_string(), GeneratedSystem::exhaustive(&scenario)));
    }
    let big = Scenario::new(5, 2, FailureMode::Crash, 3).expect("valid scenario");
    out.push((
        format!("{big} (sampled)"),
        GeneratedSystem::sampled(&big, 400, 0xEBA),
    ));
    out
}

/// A fresh evaluator per iteration (empty formula cache, so evaluation
/// is actually performed) backed by a warm shared reachability cache.
fn evaluator<'a>(system: &'a GeneratedSystem, cache: &KnowledgeCache) -> Evaluator<'a> {
    Evaluator::with_cache(system, cache.clone())
}

fn gfp_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("formula_plan_gfp");
    for (label, system) in systems() {
        let phi = Formula::exists(Value::Zero);
        let cache = KnowledgeCache::new();
        // Warm the shared reachability cache once for both sides.
        fixpoint::continual_common_by_gfp(
            &mut evaluator(&system, &cache),
            NonRigidSet::Nonfaulty,
            &phi,
        );
        for (mode, plan) in [("recursive", false), ("compiled", true)] {
            group.bench_with_input(BenchmarkId::new(mode, &label), &system, |b, system| {
                b.iter(|| {
                    let mut eval = evaluator(system, &cache);
                    let s = NonRigidSet::Nonfaulty;
                    black_box(if plan {
                        fixpoint::continual_common_by_gfp(&mut eval, s, &phi)
                    } else {
                        fixpoint::common_by_formula_iteration(&mut eval, s, &phi, true)
                    });
                });
            });
        }
    }
    group.finish();
}

fn optimality_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("formula_plan_optimize");
    group.sample_size(10);
    for (label, system) in systems() {
        let cache = KnowledgeCache::new();
        evaluator(&system, &cache)
            .eval(&Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty));
        group.bench_with_input(
            BenchmarkId::new("compiled", &label),
            &system,
            |b, system| {
                b.iter(|| {
                    let mut ctor = Constructor::with_cache(system, cache.clone());
                    black_box(ctor.optimize(&DecisionPair::empty(system.n())));
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = gfp_fixpoint, optimality_sweep
}
criterion_main!(benches);
