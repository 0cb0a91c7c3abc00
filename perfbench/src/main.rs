//! End-to-end benchmark of whole answers, with a traced per-layer
//! breakdown. See `perfbench/README.md`.
//!
//! ```text
//! eba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! eba-perfbench --record <runs> [--seed <first>]
//! ```
//!
//! With `--trace 0` the named workload runs untraced and the last line
//! of standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1` every workload (warm-query too, which `BENCHMARK.json`
//! does not gate) runs once more with spans recorded around each call
//! into an engine layer, and the JSON object carries the per-layer
//! metrics, keyed `<workload>.<layer>.<metric>`. `--record` runs every
//! workload of `BENCHMARK.json` `<runs>` times on consecutive seeds, in
//! child processes, and appends the medians and quartiles to
//! `perfbench/records.jsonl`.

mod cold;
mod common;
mod gen;
mod record;
mod serve;
mod stats;
mod trace;
mod warm;

use common::{Measured, Traced};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

/// Every workload, in the order `--trace 1` runs them.
pub const WORKLOADS: [&str; 3] = ["cold-check", "warm-query", "serve-mixed"];

/// Where `--trace 1` writes every recorded span, one JSON line each,
/// relative to the directory the benchmark runs in.
const SPANS: &str = "perfbench/spans.jsonl";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => {
                out.record = Some(value()?.parse().map_err(|e| format!("--record: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.record.is_none() && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            out.workload
        ));
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

/// Peak resident set size of this process (VmHWM), in bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb * 1024)
}

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn measure(args: &Args) -> Result<Measured, String> {
    match args.workload.as_str() {
        "cold-check" => cold::measure(args.seed, args.seconds, SETUPS),
        "warm-query" => warm::measure(args.seed, args.seconds, SETUPS),
        _ => serve::measure(args.seed, args.seconds, SETUPS),
    }
}

fn traced(workload: &str, args: &Args) -> Result<Traced, String> {
    match workload {
        "cold-check" => cold::traced(args.seed, args.seconds),
        "warm-query" => warm::traced(args.seed, args.seconds),
        _ => serve::traced(args.seed, args.seconds),
    }
}

/// The untraced run of one workload and its end-to-end metrics.
fn run_untraced(args: &Args) -> Result<String, String> {
    let m = measure(args)?;
    let peak = peak_rss_bytes()?;
    let setup = stats::median(&m.setup_s).ok_or("no set-up ran")?;
    let p50 = stats::median(&m.latencies_ms).ok_or("no answers")?;
    let tail =
        stats::quantile(&m.latencies_ms, m.tail_per_mille as f64 / 1000.0).ok_or("no answers")?;
    let rate = m.latencies_ms.len() as f64 / m.wall_s;
    println!(
        "# workload {} seed {} ({} s)",
        args.workload, args.seed, args.seconds
    );
    for line in &m.report {
        println!("# {line}");
    }
    println!(
        "# setup_s {setup:.4} s median (n={}); answers {}",
        m.setup_s.len(),
        stats::describe_ms(&m.latencies_ms),
    );
    println!(
        "# answer_tail_ms is the {} ({} of {} samples beyond it)",
        stats::label(m.tail_per_mille),
        stats::beyond(m.latencies_ms.len(), m.tail_per_mille),
        m.latencies_ms.len()
    );
    println!(
        "# error_rate {}/{} = {:.4}",
        m.failed,
        m.attempted,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    let metrics = [
        ("setup_s", "s", setup),
        ("answer_p50_ms", "ms", p50),
        ("answer_tail_ms", "ms", tail),
        ("answers_per_s", "1/s", rate),
        ("resident_mb", "MB", m.resident_bytes as f64 / 1e6),
        ("peak_rss_mb", "MB", peak as f64 / 1e6),
    ]
    .map(|(name, unit, value)| Metric {
        name: name.to_owned(),
        unit,
        value,
    });
    check_finite(&metrics)?;
    Ok(result_line(m.failed == 0, m.attempted, m.failed, &metrics))
}

/// The traced run of every workload and their per-layer metrics.
fn run_traced(args: &Args) -> Result<String, String> {
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let spans_file = std::fs::File::create(SPANS).map_err(|e| format!("{SPANS}: {e}"))?;
    let mut spans = std::io::BufWriter::new(spans_file);
    for workload in WORKLOADS {
        let t = traced(workload, args)?;
        t.trace
            .write_jsonl(workload, &mut spans)
            .map_err(|e| format!("{SPANS}: {e}"))?;
        print!("{}", t.trace.table(workload, &t.roots));
        for m in &t.metrics {
            println!("# {workload}.{} = {} {}", m.name, m.value, m.unit);
        }
        attempted += t.attempted;
        failed += t.failed;
        metrics.extend(t.metrics.iter().map(|m| Metric {
            name: format!("{workload}.{}", m.name),
            unit: m.unit,
            value: m.value,
        }));
    }
    spans.flush().map_err(|e| format!("{SPANS}: {e}"))?;
    println!("# spans written to {SPANS}");
    check_finite(&metrics)?;
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

fn check_finite(metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a number: {}", m.name, m.value)),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|args| match args.record {
        Some(runs) => record::record(runs, args.seed).map(|()| None),
        None if args.trace => run_traced(&args).map(Some),
        None => run_untraced(&args).map(Some),
    });
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("eba-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(&strings(&[
            "--workload",
            "warm-query",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "cold-check", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "cold-check", "--seconds", "0"])).is_err());
    }

    #[test]
    fn the_result_line_is_json_with_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.25,
            }],
        );
        let json = eba_serve::json::parse(&line).expect("the result line is JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let metric = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric present");
        assert_eq!(metric.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
