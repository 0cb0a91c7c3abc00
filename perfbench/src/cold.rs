//! `cold-check`: whole `eba-check` answers with no warm state.
//!
//! Each answer is the calls `eba-check --n N --t T --mode M --horizon H
//! --threads 1 'CC(E0) -> C(E0)'` makes, made in process so each layer
//! can be timed: parse, build the exhaustive system, evaluate, print the
//! verdict line, tear down. The scenarios come in seeded blocks with a
//! fixed make-up ([`MIX`]), so the seed changes the order and never the
//! mix. System generation is most of every answer,
//! so this is where `sim` work shows.
//!
//! The n=5 t=2 crash T=3 answer (744,992 runs, about 5 s) is too coarse
//! to time on its own: a 55-second run holds about ten of them, and the
//! host's slow phases move a median of ten by more than a quarter. It is
//! built by the traced run's probes instead (`sched.build_1w_ms`,
//! `sched.build_2w_ms`, `model.patterns`).

use crate::common::{evaluate, ms_since, Measured, Traced};
use crate::gen::Rng;
use crate::trace::{Trace, Tracer};
use eba_kripke::parse::parse_formula;
use eba_kripke::{Evaluator, FormulaPlan, KnowledgeCache, SetReprKind};
use eba_model::{enumerate, FailureMode, RunBudget, Scenario};
use eba_sim::{scheduler_stats, BuildOutcome, PointStore, SystemBuilder};
use std::time::{Duration, Instant};

/// The checked formula.
pub const FORMULA: &str = "CC(E0) -> C(E0)";

/// One scenario of the mix and what its answer must be.
#[derive(Clone, Copy, Debug)]
pub struct Cold {
    /// Processors.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Failure mode.
    pub mode: FailureMode,
    /// Horizon.
    pub horizon: u16,
    /// Runs of the exhaustive system.
    pub runs: usize,
    /// Answers on this scenario in a block.
    pub copies: usize,
}

impl Cold {
    const fn new(
        (n, t, mode, horizon): (usize, usize, FailureMode, u16),
        runs: usize,
        copies: usize,
    ) -> Self {
        Cold {
            n,
            t,
            mode,
            horizon,
            runs,
            copies,
        }
    }

    fn scenario(&self) -> Result<Scenario, String> {
        Scenario::new(self.n, self.t, self.mode, self.horizon).map_err(|e| e.to_string())
    }

    /// `n=4 t=1 omission T=3`.
    fn label(&self) -> String {
        format!("n={} t={} {} T={}", self.n, self.t, self.mode, self.horizon)
    }

    /// The verdict line `eba-check` prints: the formula is valid, so it
    /// holds at every point, and a run has `horizon + 1` points.
    fn verdict(&self) -> String {
        format!(
            "VALID ({} points)",
            self.runs * (usize::from(self.horizon) + 1)
        )
    }
}

/// The scenarios of a block of ten answers, cheapest first, with what
/// an answer cost on a 2-core host between its fast and slow phases:
/// three small ones (4–25 ms), 4 × n=5 t=1 crash T=3 (35–120 ms), n=4
/// t=1 omission T=3 (90–260 ms) and 2 × n=6 t=1 crash T=2 (110–320 ms).
/// The median answer is then the middle of the n=5 crash answers, which
/// cost at least twice the small ones and about half the next. The p90
/// answer is the middle of the n=6 ones. One repeated answer would put
/// both percentiles inside the host's noise instead. Every system is
/// below 50 MB, so a run holds 400 to 1,200 answers and no single heavy
/// answer weighs much in it.
pub const MIX: [Cold; 6] = [
    Cold::new((3, 2, FailureMode::Omission, 2), 6_536, 1),
    Cold::new((4, 1, FailureMode::Crash, 3), 1_552, 1),
    Cold::new((4, 1, FailureMode::Omission, 2), 4_112, 1),
    Cold::new((5, 1, FailureMode::Crash, 3), 7_712, 4),
    Cold::new((4, 1, FailureMode::Omission, 3), 32_784, 1),
    Cold::new((6, 1, FailureMode::Crash, 2), 24_640, 2),
];

/// The scenario the traced run's probes build: the n=5 t=2 crash T=3
/// system, with its run count.
const PROBE: Cold = Cold::new((5, 2, FailureMode::Crash, 3), 744_992, 0);

/// The seeded answer order: blocks with each scenario of [`MIX`] its
/// `copies` times, each block shuffled.
pub struct Blocks {
    rng: Rng,
}

impl Blocks {
    /// The block stream of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Blocks {
            rng: Rng::new(seed, 0xC01D),
        }
    }

    /// The next block: indices into [`MIX`].
    pub fn next_block(&mut self) -> Vec<usize> {
        let mut block = make_up();
        self.rng.shuffle(&mut block);
        block
    }
}

/// The indices of one block, in [`MIX`] order.
fn make_up() -> Vec<usize> {
    MIX.iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.copies))
        .collect()
}

/// What one answer produced, for the checks and the metrics.
struct Answer {
    verdict: String,
    exit_code: u8,
    runs: usize,
    resident_bytes: u64,
    reach: (u64, u64),
    scope: (u64, u64),
}

/// One whole answer: parse, build, evaluate, print the verdict line,
/// tear down. With a recording tracer, also times a separate
/// `PointStore::build` on the answer's system before teardown, as its
/// own root span.
fn answer(scenario: &Scenario, tr: &mut Tracer) -> Result<Answer, String> {
    let (answer, system) = tr.span("bench.answer", |tr| -> Result<_, String> {
        let formula = tr
            .span("kripke.parse", |_| parse_formula(FORMULA))
            .map_err(|e| e.to_string())?;
        let outcome = tr.span("sim.build", |_| {
            SystemBuilder::new(scenario)
                .budget(RunBudget::unlimited())
                .symmetry(false)
                .threads(1)
                .build_governed()
        });
        let system = match outcome.map_err(|e| e.to_string())? {
            BuildOutcome::Complete { system, .. } => system,
            BuildOutcome::Partial { .. } => return Err("unbudgeted build was partial".into()),
        };
        let mut eval =
            Evaluator::with_cache(&system, KnowledgeCache::with_repr(SetReprKind::Dense));
        eval.set_threads(1);
        let satisfied = evaluate(&mut eval, &formula, tr);
        let holding = satisfied.count_ones();
        let total = satisfied.len();
        let valid = holding == total;
        let verdict = if valid {
            format!("VALID ({total} points)")
        } else {
            format!("NOT VALID: holds at {holding}/{total} points")
        };
        let cache = eval.knowledge_cache().stats();
        let answer = Answer {
            verdict,
            exit_code: u8::from(!valid),
            runs: system.num_runs(),
            resident_bytes: (system.approx_resident_bytes()
                + eval.knowledge_cache().resident_bytes()) as u64,
            reach: (cache.reach_hits, cache.reach_misses),
            scope: (cache.scope_hits, cache.scope_misses),
        };
        drop(eval);
        Ok((answer, system))
    })?;
    if tr.enabled() {
        tr.span("probe.points", |tr| {
            let n = system.n();
            let times = system.horizon().index() + 1;
            let matrix = tr.span("bench.matrix", |_| {
                let columns: Vec<_> = (0..n)
                    .map(|p| system.points().column(eba_model::ProcessorId::new(p)))
                    .collect();
                let mut matrix = Vec::with_capacity(system.num_points() * n);
                for point in 0..system.num_points() {
                    matrix.extend(columns.iter().map(|c| c[point]));
                }
                matrix
            });
            let store = tr.span("sim.points", |_| {
                PointStore::build(n, times, system.num_runs(), &matrix, system.table())
            });
            drop(matrix);
            drop(store);
        });
    }
    tr.span("bench.teardown", |tr| tr.span("sim.drop", |_| drop(system)));
    Ok(answer)
}

fn check(cold: &Cold, answer: &Answer) -> bool {
    answer.verdict == cold.verdict() && answer.exit_code == 0 && answer.runs == cold.runs
}

/// The scenarios of [`MIX`], validated.
fn scenarios() -> Result<Vec<Scenario>, String> {
    MIX.iter().map(Cold::scenario).collect()
}

/// Set-up: parse and validate the inputs, then warm the pipeline with
/// one whole answer on each scenario, so the first timed answers do not
/// pay one-time process costs.
fn setup() -> Result<(f64, Vec<Scenario>), String> {
    let start = Instant::now();
    parse_formula(FORMULA).map_err(|e| e.to_string())?;
    let scenarios = scenarios()?;
    for (cold, scenario) in MIX.iter().zip(&scenarios) {
        let a = answer(scenario, &mut Tracer::off())?;
        if !check(cold, &a) {
            return Err(format!("warm-up answer on {}: {}", cold.label(), a.verdict));
        }
    }
    Ok((start.elapsed().as_secs_f64(), scenarios))
}

/// Runs one block of answers, pushing each latency (ms) and counting
/// attempts and failures. Returns the largest resident bytes of an
/// answer.
fn run_block(
    block: &[usize],
    scenarios: &[Scenario],
    out: &mut Measured,
    verdicts: &mut Vec<String>,
) -> u64 {
    let mut resident = 0;
    for &k in block {
        let t0 = Instant::now();
        let result = answer(&scenarios[k], &mut Tracer::off());
        out.latencies_ms.push(ms_since(t0));
        out.attempted += 1;
        match result {
            Ok(a) => {
                if !check(&MIX[k], &a) {
                    out.failed += 1;
                    verdicts.push(format!(
                        "{:?}: {} (exit {})",
                        MIX[k], a.verdict, a.exit_code
                    ));
                }
                resident = resident.max(a.resident_bytes);
            }
            Err(e) => {
                out.failed += 1;
                verdicts.push(format!("{:?}: error: {e}", MIX[k]));
            }
        }
    }
    resident
}

/// The untraced run: whole blocks back to back until `seconds` have
/// passed (at least one).
pub fn measure(seed: u64, seconds: u64, setups: usize) -> Result<Measured, String> {
    let mut out = Measured {
        tail_per_mille: 900,
        ..Measured::default()
    };
    let mut scenarios = Vec::new();
    for _ in 0..setups {
        let (s, sc) = setup()?;
        out.setup_s.push(s);
        scenarios = sc;
    }
    let mut blocks = Blocks::new(seed);
    let mut wrong = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut kinds = Vec::new();
    while kinds.is_empty() || start.elapsed() < budget {
        let block = blocks.next_block();
        let resident = run_block(&block, &scenarios, &mut out, &mut wrong);
        out.resident_bytes = out.resident_bytes.max(resident);
        kinds.extend(block);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.report.push(format!(
        "{} blocks of {} answers; wrong answers: {}",
        kinds.len() / make_up().len(),
        make_up().len(),
        if wrong.is_empty() {
            "none".to_owned()
        } else {
            wrong.join("; ")
        }
    ));
    for (k, cold) in MIX.iter().enumerate() {
        let ms: Vec<f64> = kinds
            .iter()
            .zip(&out.latencies_ms)
            .filter(|(&kind, _)| kind == k)
            .map(|(_, &ms)| ms)
            .collect();
        out.report.push(format!(
            "answers on {}: {}",
            cold.label(),
            crate::stats::describe_ms(&ms)
        ));
    }
    Ok(out)
}

/// The traced run: one untraced block, then traced blocks for
/// `seconds / 4` (at least one), then the probes: pattern enumeration
/// and a 1-worker and a 2-worker build of n=5 t=2 crash T=3, the second
/// with its scheduler counters.
pub fn traced(seed: u64, seconds: u64) -> Result<Traced, String> {
    let (_, scenarios) = setup()?;
    let mut out = Traced {
        roots: vec!["bench.answer", "bench.teardown"],
        ..Traced::default()
    };
    let mut blocks = Blocks::new(seed);
    let mut plain = Measured::default();
    run_block(
        &blocks.next_block(),
        &scenarios,
        &mut plain,
        &mut Vec::new(),
    );
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    let untraced_ms = plain.latencies_ms.iter().sum::<f64>() / plain.latencies_ms.len() as f64;

    let origin = Instant::now();
    let mut tr = Tracer::on(origin);
    let budget = Duration::from_secs(seconds / 4);
    let (mut answers, mut reach, mut scope) = (0_usize, (0, 0), (0, 0));
    let mut resident = 0;
    while answers == 0 || origin.elapsed() < budget {
        for k in blocks.next_block() {
            let a = answer(&scenarios[k], &mut tr)?;
            out.attempted += 1;
            out.failed += u64::from(!check(&MIX[k], &a));
            answers += 1;
            reach = (reach.0 + a.reach.0, reach.1 + a.reach.1);
            scope = (scope.0 + a.scope.0, scope.1 + a.scope.1);
            resident += a.resident_bytes;
        }
    }
    let probe = PROBE.scenario()?;
    let patterns = tr.span("model.enumerate", |_| enumerate::patterns(&probe).count());
    let one = tr.span("sched.build_1w", |_| {
        SystemBuilder::new(&probe).threads(1).build()
    });
    out.attempted += 1;
    let one = one.map_err(|e| e.to_string())?;
    out.failed += u64::from(one.num_runs() != PROBE.runs);
    let (runs, views, points) = (one.num_runs(), one.table().len(), one.num_points());
    tr.span("probe.drop", |_| drop(one));
    let before = scheduler_stats();
    let two = tr.span("sched.build_2w", |_| {
        SystemBuilder::new(&probe).threads(2).build()
    });
    let after = scheduler_stats();
    out.attempted += 1;
    out.failed += u64::from(!two.as_ref().is_ok_and(|s| s.num_runs() == PROBE.runs));
    tr.span("probe.drop", |_| drop(two));
    let wall = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut trace = Trace::default();
    trace.add(tr, wall);

    let t = &trace;
    // Per answer: a span's total over the traced blocks ÷ answers. The
    // blocks have a fixed make-up, so this is the same mix on every run.
    let per_answer = |name: &str| t.durations_ms(name).iter().sum::<f64>() / answers as f64;
    let build_1w_ms = t.median_ms("sched.build_1w");
    let build_2w_ms = t.median_ms("sched.build_2w");
    let spread = if after.last_span_max_us == 0 {
        0.0
    } else {
        (after.last_span_max_us - after.last_span_min_us) as f64 / after.last_span_max_us as f64
    };
    let ratio = |(hits, misses): (u64, u64)| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    // The traced answer is its answer and teardown spans; the points
    // probe between them is extra work the untraced answer does not do.
    let traced_ms = (per_answer("bench.answer") + per_answer("bench.teardown")).max(0.0);
    let kernels = FormulaPlan::compile(&parse_formula(FORMULA).map_err(|e| e.to_string())?).len();

    out.push("model.enumerate_ms", "ms", t.median_ms("model.enumerate"));
    out.push("model.patterns", "count", patterns as f64);
    out.push("sim.build_ms", "ms", per_answer("sim.build"));
    out.push("sim.points_ms", "ms", per_answer("sim.points"));
    out.push("sim.drop_ms", "ms", per_answer("sim.drop"));
    out.push("sim.runs", "count", runs as f64);
    out.push("sim.views", "count", views as f64);
    out.push("sim.points", "count", points as f64);
    out.push("sched.items", "count", (after.items - before.items) as f64);
    out.push(
        "sched.steals",
        "count",
        (after.steals - before.steals) as f64,
    );
    out.push("sched.span_spread", "fraction", spread);
    out.push("sched.build_1w_ms", "ms", build_1w_ms);
    out.push("sched.build_2w_ms", "ms", build_2w_ms);
    out.push("sched.scaling_2w", "ratio", build_1w_ms / build_2w_ms);
    out.push(
        "kripke.compile_us",
        "us",
        t.median_ms("kripke.compile") * 1e3,
    );
    out.push("kripke.plan_kernels", "count", kernels as f64);
    out.push("kripke.reach_ms", "ms", per_answer("kripke.reach"));
    out.push("kripke.eval_ms", "ms", per_answer("kripke.eval"));
    out.push("kripke.reach_hit_ratio", "fraction", ratio(reach));
    out.push("kripke.scope_hit_ratio", "fraction", ratio(scope));
    out.push(
        "kripke.resident_bytes",
        "bytes",
        resident as f64 / answers as f64,
    );
    out.push("trace.overhead_ms", "ms", traced_ms - untraced_ms);
    out.push("trace.uncovered_pct", "%", t.uncovered_pct());
    out.trace = trace;
    out.push_shares(&[("sim", "sim.self_pct"), ("kripke", "kripke.self_pct")]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_have_a_fixed_make_up_and_a_seeded_order() {
        let take = |seed| {
            let mut b = Blocks::new(seed);
            (0..4).flat_map(|_| b.next_block()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
        assert_eq!(make_up().len(), 10);
        let mut b = Blocks::new(9);
        for _ in 0..8 {
            let mut block = b.next_block();
            block.sort_unstable();
            assert_eq!(block, make_up());
        }
    }

    #[test]
    fn every_mix_scenario_is_valid_and_answers_as_expected() {
        for cold in &MIX {
            let a = answer(&cold.scenario().expect("valid"), &mut Tracer::off()).expect("answers");
            assert!(check(cold, &a), "{cold:?}: {}", a.verdict);
        }
    }
}
