//! `--record`: repeated runs on consecutive seeds, summarized into one
//! appended line of `perfbench/records.jsonl`.
//!
//! The workloads and run length are those of `BENCHMARK.json`. Each run
//! is a child process (so `peak_rss_mb` is that run's own), run
//! the way an outside harness runs the benchmark. The record carries the
//! host's core count, the build profile, the commit, the seeds, and per
//! workload and metric the median, quartiles and quartile spread (as a
//! share of the median), plus one traced run's per-layer metrics.

use crate::stats;
use eba_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::Command;

/// Where records are appended, relative to the repository root.
pub const RECORDS: &str = "perfbench/records.jsonl";

/// `run_seconds` and the workload names of `BENCHMARK.json`.
fn benchmark_spec() -> Result<(u64, Vec<String>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    Ok((seconds, workloads))
}

/// Runs the benchmark once in a child process and parses its result line.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: incorrect answers: {last}"));
    }
    Ok(result)
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Per metric: (unit, values in run order).
type Series = BTreeMap<String, (String, Vec<f64>)>;

fn collect(series: &mut Series, result: &Json) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        if let Some(value) = m.get("value").and_then(number) {
            series
                .entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn summary_json(series: &Series) -> String {
    let mut out = String::from("{");
    for (i, (name, (unit, values))) in series.iter().enumerate() {
        let median = stats::median(values).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        let sep = if i == 0 { "" } else { ", " };
        let each = values
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"unit": "{unit}", "median": {median}, "q1": {q1}, "q3": {q3}, "spread": {spread}, "n": {}, "values": [{each}]}}"#,
            values.len()
        );
    }
    out.push('}');
    out
}

/// Runs every workload of `BENCHMARK.json` `runs` times on seeds
/// `first..first + runs`, plus one traced run, prints the summary, and
/// appends it to [`RECORDS`].
pub fn record(runs: usize, first: u64) -> Result<(), String> {
    if runs == 0 {
        return Err("--record needs at least one run".into());
    }
    let (seconds, workloads) = benchmark_spec()?;
    let first_workload = workloads
        .first()
        .ok_or("BENCHMARK.json lists no workloads")?;
    let seeds: Vec<u64> = (first..first + runs as u64).collect();
    let mut body = String::new();
    for (i, workload) in workloads.iter().enumerate() {
        let mut series = Series::new();
        for &seed in &seeds {
            let result = run_child(workload, seed, seconds, false)?;
            collect(&mut series, &result);
            eprintln!("{workload} seed {seed}: done");
        }
        for (name, (unit, values)) in &series {
            let median = stats::median(values).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
            println!(
                "{workload:<12} {name:<16} median {median:>12.4} {unit:<4} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>6.2}% (n={})",
                100.0 * (q3 - q1) / median.abs().max(f64::MIN_POSITIVE),
                values.len()
            );
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, r#"{sep}"{workload}": {}"#, summary_json(&series));
    }
    let mut layers = Series::new();
    collect(
        &mut layers,
        &run_child(first_workload, first, seconds, true)?,
    );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let seeds_json = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        r#"{{"unix_time": {unix}, "commit": "{}", "nproc": {nproc}, "profile": "release", "run_seconds": {seconds}, "seeds": [{seeds_json}], "end_to_end": {{{body}}}, "per_layer_seed": {first}, "per_layer": {}}}"#,
        commit(),
        summary_json(&layers)
    );
    json::parse(&line).map_err(|e| format!("record line is not JSON: {e}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(RECORDS)
        .map_err(|e| format!("{RECORDS}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{RECORDS}: {e}"))?;
    println!("appended a record to {RECORDS}");
    Ok(())
}
