//! PR 4 companion: per-set reachability construction vs the batched
//! one-sweep engine of [`eba_kripke::BatchBuilder`].
//!
//! Three workloads, each over the standard spaces (two exhaustive, one
//! sampled at n=5 t=2):
//!
//! * **multi_set / cold** — a four-set family (`Everyone`, `Nonfaulty`,
//!   and two `N ∧ A` candidate families) registered against an empty
//!   [`KnowledgeCache`]: the per-set side pays one CSR traversal per set,
//!   the batched side shares a single membership pass + traversal.
//! * **multi_set / warm** — the same family against a pre-populated
//!   shared cache: both sides reduce to staged lookups, measuring the
//!   overhead of the hash-once keys and the batch's stage-1 drain.
//! * **optimize / cold** — the full two-step optimality sweep from a
//!   cold evaluator (the acceptance workload), where the batch prefetch
//!   in `step_zero`/`step_one` folds the per-step `C□_{N∧A}` and `B^N_i`
//!   set resolutions into one sweep each (batched side only: the
//!   constructor has no per-set mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eba_core::{Constructor, DecisionPair};
use eba_kripke::{Evaluator, KnowledgeCache, NonRigidSet, StateSets};
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

/// The two value-seen candidate families of the benchmark workload
/// (the decision-set shapes an optimize step resolves). Built once per
/// system — the timed loops only clone and register them.
fn candidate_families(system: &GeneratedSystem) -> (StateSets, StateSets) {
    (
        StateSets::with_value_seen(system.table(), system.n(), Value::Zero),
        StateSets::with_value_seen(system.table(), system.n(), Value::One),
    )
}

/// A fresh evaluator with the four-set benchmark family registered:
/// `Everyone`, `Nonfaulty`, and `N ∧ A` for the two candidate families.
fn family<'a>(
    system: &'a GeneratedSystem,
    families: &(StateSets, StateSets),
    cache: &KnowledgeCache,
) -> (Evaluator<'a>, Vec<NonRigidSet>) {
    let mut eval = Evaluator::with_cache(system, cache.clone());
    let z = eval.register_state_sets(families.0.clone());
    let o = eval.register_state_sets(families.1.clone());
    let sets = vec![
        NonRigidSet::Everyone,
        NonRigidSet::Nonfaulty,
        NonRigidSet::NonfaultyAnd(z),
        NonRigidSet::NonfaultyAnd(o),
    ];
    (eval, sets)
}

/// Registers the family on `eval`, via the requested path.
fn register(eval: &mut Evaluator<'_>, sets: &[NonRigidSet], batched: bool) {
    if batched {
        black_box(eval.reachability_batch(sets));
    } else {
        for &s in sets {
            black_box(eval.reachability(s));
        }
    }
}

fn multi_set_registration(c: &mut Criterion) {
    for warm in [false, true] {
        let temp = if warm { "warm" } else { "cold" };
        let mut group = c.benchmark_group(format!("reachability_batch_{temp}"));
        for (label, system) in systems() {
            let families = candidate_families(&system);
            let warm_cache = KnowledgeCache::new();
            if warm {
                let (mut eval, sets) = family(&system, &families, &warm_cache);
                register(&mut eval, &sets, true);
            }
            for (mode, batched) in [("per-set", false), ("batched", true)] {
                group.bench_with_input(BenchmarkId::new(mode, &label), &system, |b, system| {
                    b.iter(|| {
                        // A cold run pays the full construction each
                        // iteration (fresh cache); a warm run drains the
                        // shared cache through a fresh evaluator's memos.
                        let cache = if warm {
                            warm_cache.clone()
                        } else {
                            KnowledgeCache::new()
                        };
                        let (mut eval, sets) = family(system, &families, &cache);
                        register(&mut eval, &sets, batched);
                    });
                });
            }
        }
        group.finish();
    }
}

fn cold_optimality_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability_batch_optimize");
    group.sample_size(10);
    for (label, system) in systems() {
        group.bench_with_input(BenchmarkId::new("batched", &label), &system, |b, system| {
            b.iter(|| {
                let mut ctor = Constructor::new(system);
                black_box(ctor.optimize(&DecisionPair::empty(system.n())));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = multi_set_registration, cold_optimality_sweep
}
criterion_main!(benches);
