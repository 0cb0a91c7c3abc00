//! `serve-mixed`: an in-process `eba-serve` daemon on loopback, driven by
//! two closed-loop TCP clients with a seeded request mix.
//!
//! Checks, `optimize`, `sweep` (n=4 t=1 omission, horizons 2..3) and
//! `stats` are spread over four scenarios, with the pool's memory budget
//! below the working set: pool hits (reads) sit beside builds,
//! evictions and extensions (writes). Only this workload exercises
//! `serve` framing, admission and the pool, and `sim` extension.

use crate::common::{ms_since, Measured, Traced};
use crate::gen::RequestMix;
use crate::stats;
use crate::trace::{Trace, Tracer};
use eba_core::{EngineSession, SessionScope};
use eba_serve::json::Json;
use eba_serve::{
    execute, oracle, PoolKey, QueryContext, Request, RetryPolicy, ServeConfig, Server, SessionPool,
    StatsSnapshot,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Pool memory budget (approximate resident bytes). The n=4 t=1
/// omission session alone is about 38 MB, so the pool holds it with the
/// small scenarios, or the quotiented n=5 session with them, never
/// everything: about half of all checkouts build.
pub const POOL_BUDGET: u64 = 48 << 20;

fn config() -> ServeConfig {
    ServeConfig {
        mem_budget_bytes: POOL_BUDGET,
        threads_per_query: Some(1),
        ..ServeConfig::default()
    }
}

/// A daemon running on its own thread.
struct Daemon {
    addr: SocketAddr,
    drain: &'static AtomicBool,
    pool: Arc<SessionPool>,
    handle: JoinHandle<StatsSnapshot>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(config()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let drain = server.drain_flag();
        let pool = server.pool();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            drain,
            pool,
            handle,
        })
    }

    /// Drains the daemon and waits for its thread.
    fn stop(self) -> Result<StatsSnapshot, String> {
        self.drain.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_owned())
    }
}

/// One line-delimited JSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Sends `line` and returns the response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).map_err(|e| e.to_string())?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.buf.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Set-up: start the daemon, connect the clients, and warm the pool
/// with one check on each scenario of the mix (the budget keeps what
/// fits).
fn setup() -> Result<(f64, Daemon, Vec<Client>), String> {
    let start = Instant::now();
    let daemon = Daemon::start()?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    for line in RequestMix::warm_up() {
        let response = clients[0].request(&line)?;
        if !response.starts_with(r#"{"ok":true"#) {
            return Err(format!("warm-up request failed: {response}"));
        }
    }
    Ok((start.elapsed().as_secs_f64(), daemon, clients))
}

/// One exchange of the timed loop.
#[derive(Debug)]
struct Exchange {
    line: String,
    response: Result<String, String>,
    rtt_ms: f64,
}

/// The pool key a request checks out, if any (budgeted checks bypass
/// the pool; the sweep checks out its base horizon).
fn pool_key(req: &Request) -> Option<PoolKey> {
    match req {
        Request::Check(c) if c.deadline_ms.is_none() && c.max_runs.is_none() => {
            Some(PoolKey { spec: c.spec })
        }
        Request::Optimize(spec) => Some(PoolKey { spec: *spec }),
        Request::Sweep(s) => {
            let mut spec = s.spec;
            spec.horizon = s.from;
            spec.sampled = None;
            Some(PoolKey { spec })
        }
        _ => None,
    }
}

/// The traced in-process replay of one request: the daemon's own steps
/// (parse, pool checkout, execute, frame) as separate calls, on a pool
/// of the same budget. Sweeps also get an extension probe.
fn replay(line: &str, pool: &SessionPool, tr: &mut Tracer) -> String {
    let (framed, sweep) = tr.span("bench.request", |tr| {
        let req = match tr.span("serve.parse", |_| Request::from_line(line)) {
            Ok(req) => req,
            Err(e) => return (e.to_frame().to_line(), None),
        };
        let key = pool_key(&req);
        if let Some(key) = key {
            let hit = tr.span("serve.checkout", |_| pool.checkout(key).map(|(_, hit)| hit));
            tr.rename_last(match hit {
                Ok(true) => "serve.checkout_hit",
                _ => "serve.checkout_build",
            });
        }
        let ctx = QueryContext {
            pool,
            interrupt: None,
            threads: Some(1),
        };
        let result = tr.span("serve.execute", |_| execute(&req, &ctx));
        let framed = tr.span("serve.frame", |_| match result {
            Ok(frame) => frame.to_line(),
            Err(e) => e.to_frame().to_line(),
        });
        let sweep = match &req {
            Request::Sweep(sweep) => key.map(|key| (key, sweep.to)),
            _ => None,
        };
        (framed, sweep)
    });
    if let Some((key, to)) = sweep {
        tr.span("probe.extend", |tr| {
            if let Ok((base, _)) = pool.checkout(key) {
                let mut session =
                    EngineSession::from_system(base.system().clone(), SessionScope::FullSpace);
                session.set_threads(1);
                let _ = tr.span("sim.extend", |_| session.extend_to(to));
            }
        });
    }
    framed
}

/// Checks every response against `eba_serve::oracle`, memoized per
/// distinct request line. `stats` responses describe the live pool and
/// have no oracle; they must be well-formed `stats` frames. Returns the
/// number of wrong, error, shed or panicked responses.
fn check<'a>(
    exchanges: impl Iterator<Item = (&'a str, &'a Result<String, String>)>,
    memo: &mut HashMap<String, String>,
) -> u64 {
    let mut wrong = 0;
    for (line, response) in exchanges {
        let Ok(response) = response else {
            wrong += 1;
            continue;
        };
        let ok = if line.contains(r#""op":"stats""#) {
            eba_serve::json::parse(response).is_ok_and(|frame| {
                frame.get("ok") == Some(&Json::Bool(true))
                    && frame.get("op").and_then(Json::as_str) == Some("stats")
            })
        } else {
            let expected = memo.entry(line.to_owned()).or_insert_with(|| {
                Request::from_line(line).map_or_else(|e| e.to_frame().to_line(), |req| oracle(&req))
            });
            response == expected && !response.contains("internal-panic")
        };
        wrong += u64::from(!ok);
    }
    wrong
}

/// What one closed loop produced.
struct LoopOutcome {
    exchanges: Vec<Exchange>,
    /// (request line, replayed response) pairs of a traced loop.
    replays: Vec<(String, String)>,
    /// Peak pool resident bytes seen after any response.
    peak_resident: u64,
    trace: Trace,
    wall_s: f64,
}

/// Runs the closed loop for `budget`: each client thread sends its next
/// request once the previous response arrived. With `replay_pool`,
/// every exchange is followed by its traced in-process replay.
fn run_clients(
    daemon: &Daemon,
    clients: Vec<Client>,
    seed: u64,
    budget: Duration,
    replay_pool: Option<&SessionPool>,
    origin: Instant,
) -> Result<LoopOutcome, String> {
    let mix = RequestMix::new(seed);
    let peak = AtomicU64::new(0);
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, mut client)| {
                let (mix, peak, pool) = (&mix, &peak, &daemon.pool);
                scope.spawn(move || {
                    let mut stream = mix.client(seed, index);
                    let mut tr = if replay_pool.is_some() {
                        Tracer::on(origin)
                    } else {
                        Tracer::off()
                    };
                    let mut exchanges = Vec::new();
                    let mut replays = Vec::new();
                    let began = Instant::now();
                    while start.elapsed() < budget {
                        let line = stream.next_line();
                        let t0 = Instant::now();
                        let response = tr.span("serve.roundtrip", |_| client.request(&line));
                        let rtt_ms = ms_since(t0);
                        peak.fetch_max(pool.stats().resident_bytes, Ordering::Relaxed);
                        let failed = response.is_err();
                        if let Some(replay_pool) = replay_pool {
                            replays.push((line.clone(), replay(&line, replay_pool, &mut tr)));
                        }
                        exchanges.push(Exchange {
                            line,
                            response,
                            rtt_ms,
                        });
                        if failed {
                            break;
                        }
                    }
                    let wall = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (exchanges, replays, tr, wall)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_owned()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut out = LoopOutcome {
        exchanges: Vec::new(),
        replays: Vec::new(),
        peak_resident: peak.into_inner(),
        trace: Trace::default(),
        wall_s: start.elapsed().as_secs_f64(),
    };
    for (exchanges, replays, tr, wall) in per_client {
        out.exchanges.extend(exchanges);
        out.replays.extend(replays);
        if tr.enabled() {
            out.trace.add(tr, wall);
        }
    }
    Ok(out)
}

/// The untraced run.
pub fn measure(seed: u64, seconds: u64, setups: usize) -> Result<Measured, String> {
    let mut out = Measured {
        tail_per_mille: 900,
        ..Measured::default()
    };
    let mut running = None;
    for i in 0..setups {
        let (s, daemon, clients) = setup()?;
        out.setup_s.push(s);
        if i + 1 < setups {
            drop(clients);
            daemon.stop()?;
        } else {
            running = Some((daemon, clients));
        }
    }
    let (daemon, clients) = running.ok_or("no set-up ran")?;
    let LoopOutcome {
        exchanges,
        peak_resident: peak,
        wall_s,
        ..
    } = run_clients(
        &daemon,
        clients,
        seed,
        Duration::from_secs(seconds),
        None,
        Instant::now(),
    )?;
    let snapshot = daemon.stop()?;
    let mut memo = HashMap::new();
    out.failed = check(
        exchanges.iter().map(|e| (e.line.as_str(), &e.response)),
        &mut memo,
    ) + snapshot.panics;
    out.attempted = exchanges.len() as u64;
    out.wall_s = wall_s;
    out.resident_bytes = peak;
    out.latencies_ms = exchanges.iter().map(|e| e.rtt_ms).collect();
    let lookups = snapshot.pool.hits + snapshot.pool.misses;
    out.report.push(format!(
        "serve_qps {:.2} (n={} in {:.2} s, {CLIENTS} clients)",
        exchanges.len() as f64 / wall_s,
        exchanges.len(),
        wall_s
    ));
    out.report.push(format!(
        "round trip: {}",
        stats::describe_ms(&out.latencies_ms)
    ));
    for op in ["check", "optimize", "sweep", "stats"] {
        let tag = format!(r#""op":"{op}""#);
        let rtts: Vec<f64> = exchanges
            .iter()
            .filter(|e| e.line.contains(&tag))
            .map(|e| e.rtt_ms)
            .collect();
        out.report
            .push(format!("round trip of {op}: {}", stats::describe_ms(&rtts)));
    }
    out.report.push(format!(
        "pool: {} checkouts, {:.1}% built, {} evictions, {} shed, {} panics; {} distinct request lines",
        lookups,
        100.0 * snapshot.pool.misses as f64 / lookups.max(1) as f64,
        snapshot.pool.evictions,
        snapshot.shed,
        snapshot.panics,
        memo.len()
    ));
    Ok(out)
}

/// The traced run: an untraced loop for `seconds / 4`, then a traced
/// loop for as long on a fresh daemon, where each exchange is followed
/// by its in-process replay.
pub fn traced(seed: u64, seconds: u64) -> Result<Traced, String> {
    let mut out = Traced {
        roots: vec!["bench.request", "serve.roundtrip"],
        ..Traced::default()
    };
    let budget = Duration::from_secs(seconds / 4);
    let mut memo = HashMap::new();

    let (_, daemon, clients) = setup()?;
    let plain = run_clients(&daemon, clients, seed, budget, None, Instant::now())?.exchanges;
    let snapshot = daemon.stop()?;
    out.attempted += plain.len() as u64;
    out.failed += check(
        plain.iter().map(|e| (e.line.as_str(), &e.response)),
        &mut memo,
    ) + snapshot.panics;

    let (_, daemon, clients) = setup()?;
    let replay_pool = SessionPool::new(POOL_BUDGET, RetryPolicy::default(), None);
    let origin = Instant::now();
    let LoopOutcome {
        exchanges,
        replays,
        trace,
        ..
    } = run_clients(&daemon, clients, seed, budget, Some(&replay_pool), origin)?;
    let snapshot = daemon.stop()?;
    out.attempted += (exchanges.len() + replays.len()) as u64;
    out.failed += check(
        exchanges.iter().map(|e| (e.line.as_str(), &e.response)),
        &mut memo,
    ) + snapshot.panics;
    let replayed: Vec<(String, Result<String, String>)> =
        replays.into_iter().map(|(l, r)| (l, Ok(r))).collect();
    out.failed += check(replayed.iter().map(|(l, r)| (l.as_str(), r)), &mut memo);
    out.trace = trace;
    let t = &out.trace;
    let requests = t.durations_ms("bench.request");
    let trips = t.durations_ms("serve.roundtrip");
    let overhead: Vec<f64> = trips.iter().zip(&requests).map(|(a, b)| a - b).collect();
    let lookups = snapshot.pool.hits + snapshot.pool.misses;
    let traced_rtt = stats::median(&trips).unwrap_or(0.0);
    let plain_rtt =
        stats::median(&plain.iter().map(|e| e.rtt_ms).collect::<Vec<_>>()).unwrap_or(0.0);
    let metrics = [
        ("serve.parse_us", "us", t.median_ms("serve.parse") * 1e3),
        (
            "serve.checkout_hit_ms",
            "ms",
            t.median_ms("serve.checkout_hit"),
        ),
        (
            "serve.checkout_build_ms",
            "ms",
            t.median_ms("serve.checkout_build"),
        ),
        ("serve.execute_ms", "ms", t.median_ms("serve.execute")),
        ("serve.frame_us", "us", t.median_ms("serve.frame") * 1e3),
        (
            "serve.overhead_ms",
            "ms",
            stats::median(&overhead).unwrap_or(0.0),
        ),
        (
            "serve.pool_hit_ratio",
            "fraction",
            snapshot.pool.hits as f64 / lookups.max(1) as f64,
        ),
        ("serve.evictions", "count", snapshot.pool.evictions as f64),
        ("serve.shed", "count", snapshot.shed as f64),
        ("serve.retries", "count", snapshot.pool.retries as f64),
        ("sim.extend_ms", "ms", t.median_ms("sim.extend")),
        ("trace.overhead_ms", "ms", traced_rtt - plain_rtt),
        ("trace.uncovered_pct", "%", t.uncovered_pct()),
    ];
    for (name, unit, value) in metrics {
        out.push(name, unit, value);
    }
    out.push_shares(&[("serve", "serve.self_pct")]);
    Ok(out)
}
