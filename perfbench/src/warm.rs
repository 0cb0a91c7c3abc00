//! `warm-query`: a closed loop of seeded queries against warm sessions.
//!
//! Two `EngineSession`s — n=4 t=1 omission T=3, and n=5 t=2 crash T=3
//! symmetry-quotiented — answer about 90% formula checks and 10%
//! Theorem 5.2 optimizations with their Theorem 5.3 optimality check.
//! `kripke` and `core` do nearly all the work and `sim` none: the mirror
//! image of `cold-check`. Formula checks only read the knowledge cache;
//! optimizations also write new families into it.

use crate::common::{bits_hash, evaluate, hit_ratios, ms_since, Measured, Traced};
use crate::gen::{Base, Query, QueryStream, SessionShape};
use crate::stats;
use crate::trace::{Trace, Tracer};
use eba_core::protocols::{crash_rule, f_lambda, zero_chain_pair};
use eba_core::{check_optimality, Constructor, DecisionPair, EngineSession, SessionScope};
use eba_kripke::parse::parse_formula;
use eba_kripke::{fixpoint, Evaluator, Formula, KnowledgeCache, NonRigidSet};
use eba_model::{FailureMode, Scenario, Value};
use eba_sim::SystemBuilder;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The sessions' shapes, in session-index order.
pub const SHAPES: [SessionShape; 2] = [
    SessionShape {
        n: 4,
        quotient: false,
        base: Base::ZeroChain,
    },
    SessionShape {
        n: 5,
        quotient: true,
        base: Base::CrashRule,
    },
];

/// `resident_mb` is read after this many queries: a fixed prefix of the
/// seeded stream, so the figure does not grow with query speed.
pub const RESIDENT_AFTER: usize = 200;

fn open_sessions() -> Result<Vec<EngineSession>, String> {
    let omission = Scenario::new(4, 1, FailureMode::Omission, 3).map_err(|e| e.to_string())?;
    let crash = Scenario::new(5, 2, FailureMode::Crash, 3).map_err(|e| e.to_string())?;
    let a = EngineSession::exhaustive(&omission).map_err(|e| e.to_string())?;
    let quotient = SystemBuilder::new(&crash)
        .symmetry(true)
        .build()
        .map_err(|e| e.to_string())?;
    let b = EngineSession::from_system(quotient, SessionScope::FullSpace);
    Ok(vec![a, b])
}

fn resident_bytes(sessions: &[EngineSession]) -> u64 {
    sessions
        .iter()
        .map(|s| (s.system().approx_resident_bytes() + s.cache().resident_bytes()) as u64)
        .sum()
}

/// What a query answered, kept for the checks after the timed loop.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    /// Points where the formula holds, and a hash of that set.
    Verdict { holds: usize, hash: u64 },
    /// Whether the optimized pair was reported optimal.
    Optimal(bool),
}

fn base_pair(base: Base, ctor: &mut Constructor<'_>, n: usize) -> DecisionPair {
    match base {
        Base::FLambda => f_lambda(n),
        Base::ZeroChain => zero_chain_pair(ctor),
        Base::CrashRule => crash_rule(ctor),
    }
}

fn run_query(sessions: &[EngineSession], query: &Query, tr: &mut Tracer) -> Result<Answer, String> {
    tr.span("bench.query", |tr| match query {
        Query::Check { session, formula } => {
            let f = tr
                .span("kripke.parse", |_| parse_formula(formula))
                .map_err(|e| e.to_string())?;
            let mut eval = sessions[*session].evaluator();
            eval.set_threads(1);
            let bits = evaluate(&mut eval, &f, tr);
            Ok(Answer::Verdict {
                holds: bits.count_ones(),
                hash: bits_hash(&bits),
            })
        }
        Query::Optimize { session, base } => {
            let mut ctor = sessions[*session].constructor();
            ctor.evaluator().set_threads(1);
            let n = SHAPES[*session].n;
            let base = tr.span("core.base", |_| base_pair(*base, &mut ctor, n));
            let pair = tr.span("core.optimize", |_| ctor.optimize(&base));
            let optimal = tr.span("core.optimality", |_| check_optimality(&mut ctor, &pair));
            Ok(Answer::Optimal(optimal.is_optimal()))
        }
    })
}

/// Runs `stream` against `sessions` until `budget` has passed, or for
/// exactly `count` queries when given.
struct Loop {
    queries: Vec<Query>,
    answers: Vec<Result<Answer, String>>,
    latencies_ms: Vec<f64>,
    resident_bytes: u64,
    wall_s: f64,
}

fn run_loop(
    sessions: &[EngineSession],
    seed: u64,
    budget: Duration,
    count: Option<usize>,
    tr: &mut Tracer,
) -> Loop {
    let mut stream = QueryStream::new(seed, &SHAPES);
    let mut out = Loop {
        queries: Vec::new(),
        answers: Vec::new(),
        latencies_ms: Vec::new(),
        resident_bytes: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    loop {
        let done = match count {
            Some(c) => out.queries.len() >= c,
            None => out.queries.len() >= RESIDENT_AFTER && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        let query = stream.next_query();
        let t0 = Instant::now();
        let answer = run_query(sessions, &query, tr);
        out.latencies_ms.push(ms_since(t0));
        out.queries.push(query);
        out.answers.push(answer);
        if out.queries.len() == RESIDENT_AFTER {
            out.resident_bytes = resident_bytes(sessions);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Checks every answer: each verdict against a single-worker evaluation
/// of the same formula on a fresh knowledge cache, each optimization
/// against Theorems 5.2/5.3 (the optimized pair is optimal). Returns the
/// number of wrong answers. The reference evaluator of each session is
/// made once, so it reuses subformula results across formulas, which the
/// timed queries (a fresh evaluator each) do not.
fn check(sessions: &[EngineSession], run: &Loop) -> u64 {
    let mut references: Vec<Evaluator<'_>> = sessions
        .iter()
        .map(|s| {
            let mut eval = Evaluator::with_cache(s.system(), KnowledgeCache::new());
            eval.set_threads(1);
            eval
        })
        .collect();
    let mut memo: HashMap<(usize, &str), Option<Answer>> = HashMap::new();
    let mut wrong = 0;
    for (query, answer) in run.queries.iter().zip(&run.answers) {
        let expected = match query {
            Query::Check { session, formula } => memo
                .entry((*session, formula.as_str()))
                .or_insert_with(|| {
                    let bits = references[*session].eval(&parse_formula(formula).ok()?);
                    Some(Answer::Verdict {
                        holds: bits.count_ones(),
                        hash: bits_hash(&bits),
                    })
                })
                .clone(),
            Query::Optimize { .. } => Some(Answer::Optimal(true)),
        };
        if expected.is_none() || answer.as_ref().ok() != expected.as_ref() {
            wrong += 1;
        }
    }
    wrong
}

/// Set-up: open both sessions (each builds its system).
fn setup() -> Result<(f64, Vec<EngineSession>), String> {
    let start = Instant::now();
    let sessions = open_sessions()?;
    Ok((start.elapsed().as_secs_f64(), sessions))
}

/// The untraced run.
pub fn measure(seed: u64, seconds: u64, setups: usize) -> Result<Measured, String> {
    let mut out = Measured {
        tail_per_mille: 990,
        ..Measured::default()
    };
    let mut sessions = Vec::new();
    for _ in 0..setups {
        let (s, opened) = setup()?;
        out.setup_s.push(s);
        sessions = opened;
    }
    let run = run_loop(
        &sessions,
        seed,
        Duration::from_secs(seconds),
        None,
        &mut Tracer::off(),
    );
    out.failed = check(&sessions, &run);
    out.attempted = run.queries.len() as u64;
    out.wall_s = run.wall_s;
    out.resident_bytes = run.resident_bytes;
    let optimize_ms: Vec<f64> = run
        .queries
        .iter()
        .zip(&run.latencies_ms)
        .filter(|(q, _)| matches!(q, Query::Optimize { .. }))
        .map(|(_, ms)| *ms)
        .collect();
    out.report.push(format!(
        "queries_per_s {:.2} (n={} in {:.2} s)",
        run.queries.len() as f64 / run.wall_s,
        run.queries.len(),
        run.wall_s
    ));
    out.report.push(format!(
        "query latency: {}",
        stats::describe_ms(&run.latencies_ms)
    ));
    out.report
        .push(format!("optimize_ms: {}", stats::describe_ms(&optimize_ms)));
    out.latencies_ms = run.latencies_ms;
    Ok(out)
}

/// The traced run: the same seeded stream on fresh sessions, untraced
/// for `seconds / 4`, then traced for exactly as many queries on fresh
/// sessions again; then the probes: greatest-fixed-point iteration
/// counts and Theorem 5.2 fixed-point step counts.
pub fn traced(seed: u64, seconds: u64) -> Result<Traced, String> {
    let mut out = Traced {
        roots: vec!["bench.query"],
        ..Traced::default()
    };
    let (_, sessions) = setup()?;
    let plain = run_loop(
        &sessions,
        seed,
        Duration::from_secs(seconds / 4),
        None,
        &mut Tracer::off(),
    );
    out.attempted += plain.queries.len() as u64;
    out.failed += check(&sessions, &plain);
    drop(sessions);

    let (_, sessions) = setup()?;
    let origin = Instant::now();
    let mut tr = Tracer::on(origin);
    let run = run_loop(
        &sessions,
        seed,
        Duration::ZERO,
        Some(plain.queries.len()),
        &mut tr,
    );
    let mut gfp_iters = Vec::new();
    let mut steps = Vec::new();
    for (index, session) in sessions.iter().enumerate() {
        let mut eval = session.evaluator();
        eval.set_threads(1);
        for v in [Value::Zero, Value::One] {
            let phi = Formula::exists(v);
            let (bits, iters) = tr.span("kripke.gfp", |_| {
                fixpoint::common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi)
            });
            gfp_iters.push(iters as f64);
            let by_reach = eval.eval(&phi.common(NonRigidSet::Nonfaulty));
            out.attempted += 1;
            out.failed += u64::from(*by_reach != bits);
        }
        drop(eval);
        for base in [Base::FLambda, SHAPES[index].base] {
            let mut ctor = session.constructor();
            ctor.evaluator().set_threads(1);
            let n = SHAPES[index].n;
            let (_, count) = tr.span("core.fixpoint", |_| {
                let pair = base_pair(base, &mut ctor, n);
                ctor.optimize_to_fixed_point(&pair, 6)
            });
            steps.push(count as f64);
        }
    }
    let wall = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out.attempted += run.queries.len() as u64;
    out.failed += check(&sessions, &run);
    let stats_now = sessions
        .iter()
        .map(|s| s.cache().stats())
        .collect::<Vec<_>>();
    let cache_bytes: u64 = stats_now.iter().map(|s| s.resident_bytes).sum();
    let (reach_hits, scope_hits) = {
        let mut total = stats_now[0];
        for s in &stats_now[1..] {
            total.reach_hits += s.reach_hits;
            total.reach_misses += s.reach_misses;
            total.scope_hits += s.scope_hits;
            total.scope_misses += s.scope_misses;
        }
        hit_ratios(&total)
    };
    let mut trace = Trace::default();
    trace.add(tr, wall);
    out.trace = trace;
    let t = &out.trace;
    let kernels: Vec<f64> = run
        .queries
        .iter()
        .filter_map(|q| match q {
            Query::Check { formula, .. } => parse_formula(formula).ok(),
            Query::Optimize { .. } => None,
        })
        .map(|f| eba_kripke::FormulaPlan::compile(&f).len() as f64)
        .collect();
    let overhead = stats::median(&t.durations_ms("bench.query")).unwrap_or(0.0)
        - stats::median(&plain.latencies_ms).unwrap_or(0.0);
    let metrics = [
        (
            "kripke.compile_us",
            "us",
            t.median_ms("kripke.compile") * 1e3,
        ),
        (
            "kripke.plan_kernels",
            "count",
            stats::median(&kernels).unwrap_or(0.0),
        ),
        ("kripke.reach_ms", "ms", t.median_ms("kripke.reach")),
        ("kripke.eval_ms", "ms", t.median_ms("kripke.eval")),
        (
            "kripke.gfp_iters",
            "count",
            stats::median(&gfp_iters).unwrap_or(0.0),
        ),
        ("kripke.reach_hit_ratio", "fraction", reach_hits),
        ("kripke.scope_hit_ratio", "fraction", scope_hits),
        ("kripke.resident_bytes", "bytes", cache_bytes as f64),
        ("core.base_ms", "ms", t.median_ms("core.base")),
        ("core.optimize_ms", "ms", t.median_ms("core.optimize")),
        ("core.optimality_ms", "ms", t.median_ms("core.optimality")),
        (
            "core.fixpoint_steps",
            "count",
            stats::median(&steps).unwrap_or(0.0),
        ),
        ("trace.overhead_ms", "ms", overhead),
        ("trace.uncovered_pct", "%", t.uncovered_pct()),
    ];
    for (name, unit, value) in metrics {
        out.push(name, unit, value);
    }
    out.push_shares(&[("kripke", "kripke.self_pct"), ("core", "core.self_pct")]);
    Ok(out)
}
