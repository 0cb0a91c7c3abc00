//! What every workload returns, and the evaluation step the workloads
//! share.

use crate::trace::{Trace, Tracer};
use eba_kripke::{BatchBuilder, Bitset, Evaluator, Formula, FormulaPlan, Kernel, KnowKind};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// One untraced run of a workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every answer in the timed loop, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The percentile (per mille) `answer_tail_ms` reads. Fixed per
    /// workload, so the figure means the same thing on every run: the
    /// highest of p90/p99/p99.9 that the workload's usual sample count
    /// supports with ten samples beyond it, or the upper quartile where
    /// the sample is too small for any of them.
    pub tail_per_mille: usize,
    /// Wall time of the timed loop, seconds.
    pub wall_s: f64,
    /// Exact resident bytes the engine reports (see each workload).
    pub resident_bytes: u64,
    /// Answers attempted in the timed loop.
    pub attempted: u64,
    /// Answers that were wrong, errors, shed or panicked.
    pub failed: u64,
    /// Human-readable lines: the workload's own metric names, each with
    /// its sample count.
    pub report: Vec<String>,
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Name without the workload prefix, e.g. `sim.build_ms`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// One traced run of a workload.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<LayerMetric>,
    /// The spans.
    pub trace: Trace,
    /// Root span names whose layer shares the table reports.
    pub roots: Vec<&'static str>,
    /// Answers attempted (both phases).
    pub attempted: u64,
    /// Answers that failed their check (both phases).
    pub failed: u64,
}

impl Traced {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(LayerMetric { name, unit, value });
    }

    /// Appends the self-time share (%) of each layer under the answer
    /// roots, for the layers listed.
    pub fn push_shares(&mut self, layers: &[(&'static str, &'static str)]) {
        let shares = self.trace.layer_self(&self.roots);
        let sum: u64 = shares.values().sum();
        for &(layer, name) in layers {
            let own = shares.get(layer).copied().unwrap_or(0);
            self.push(name, "%", 100.0 * own as f64 / sum.max(1) as f64);
        }
    }
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A content hash of a bitset, to compare verdicts without keeping
/// every result alive.
#[must_use]
pub fn bits_hash(bits: &Bitset) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bits.hash(&mut h);
    h.finish()
}

/// Evaluates `formula`. Untraced, this is exactly `Evaluator::eval`.
/// Traced, the same work is split into its three kripke calls: plan
/// compilation, one batched reachability/scope pass for every set the
/// plan needs, and plan execution (which then finds those sets cached).
pub fn evaluate(eval: &mut Evaluator<'_>, formula: &Formula, tr: &mut Tracer) -> Arc<Bitset> {
    if !tr.enabled() {
        return eval.eval(formula);
    }
    let plan = tr.span("kripke.compile", |_| FormulaPlan::compile(formula));
    tr.span("kripke.reach", |_| {
        let mut batch = BatchBuilder::new();
        for kernel in plan.kernels() {
            match kernel {
                Kernel::ReachClose { set, .. } => batch.request_reachability(*set),
                Kernel::KnowClose {
                    kind: KnowKind::Believes(_, s) | KnowKind::Everyone(s) | KnowKind::Someone(s),
                    ..
                } => batch.request_scopes(*s),
                Kernel::GfpIter { set, .. } => batch.request_scopes(*set),
                _ => {}
            }
        }
        batch.run(eval);
    });
    tr.span("kripke.eval", |_| eval.eval_plan(&plan))
}

/// Cache hit ratios (reachability, scope columns) of a stats snapshot.
#[must_use]
pub fn hit_ratios(stats: &eba_kripke::CacheStats) -> (f64, f64) {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    (
        ratio(stats.reach_hits, stats.reach_misses),
        ratio(stats.scope_hits, stats.scope_misses),
    )
}
