//! Command line of the benchmark.
//!
//! ```sh
//! setbench --workload <ingest|query_mix|subscribe|collect|all> [--seed N]
//!          [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! setbench compare <dirA> <dirB> [--spec BENCHMARK.json]
//! ```
//!
//! The harness that runs `BENCHMARK.json` passes `--seconds` with its
//! `run_seconds`; the default is the same value. `--smoke` runs only each
//! workload's minimum unit count.
//!
//! A run prints every metric by name with its unit, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics, or per-layer ones with `--trace 1`).

use setbench::harness::{Config, Report};
use setbench::json::quote;
use setbench::workloads::{self, WORKLOADS};
use setbench::{compare, host};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  setbench --workload <ingest|query_mix|subscribe|collect|all> [--seed N] [--seconds S]
           [--trace 0|1] [--out DIR] [--smoke]
  setbench compare <dirA> <dirB> [--spec BENCHMARK.json]";

struct Args {
    cfg: Config,
    out: Option<PathBuf>,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("{err}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut workload = String::new();
    let mut parsed = Args {
        cfg: Config {
            workload: "all",
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            sabotage: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = value()?.clone(),
            "--seed" => parsed.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.cfg.smoke = true,
            "--sabotage" => parsed.cfg.sabotage = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match WORKLOADS.iter().find(|&&w| w == workload) {
        Some(w) => parsed.cfg.workload = w,
        None if workload == "all" => {}
        None => return Err(format!("--workload must be one of {WORKLOADS:?} or all")),
    }
    if !parsed.cfg.seconds.is_finite() || parsed.cfg.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    let parsed = match parse_run(&args) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if let Some(dir) = &parsed.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if parsed.cfg.workload == "all" {
        return run_all(&args);
    }
    match run_one(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("setbench {}: {e}", parsed.cfg.workload);
            ExitCode::FAILURE
        }
    }
}

/// Each workload in its own process, so its set-up time and peak memory
/// are its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.to_string();
        }
        let status = Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let workload = args.cfg.workload;
    let report = workloads::run(workload, &args.cfg)?;
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<10} {:<40} {:>18} {}", workload, m.name, m.value, m.unit);
    }
    for name in &report.unsupported {
        println!(
            "{:<10} {name}: fewer than {} samples beyond it",
            workload,
            setbench::stats::MIN_BEYOND
        );
    }
    if let Some(dir) = &args.out {
        write_result(dir, args, &report)?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(report.metrics.iter())
    );
    Ok(())
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a setbench::harness::Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            // A non-finite value would make the line invalid JSON; it can
            // only come from a broken run, which the checks then report.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The run's result file (and, traced, its spans as a Chrome trace).
fn write_result(dir: &Path, args: &Args, report: &Report) -> Result<(), String> {
    let cfg = &args.cfg;
    let stem = format!(
        "{}-seed{}{}",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "-traced" } else { "" }
    );
    let mode = if cfg.smoke { "smoke" } else { "full" };
    let unsupported: Vec<String> = report.unsupported.iter().map(|n| quote(n)).collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"provenance\": {},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"units\": {},\n  \
         \"latency_samples\": {},\n  \"error_samples\": {},\n  \"unsupported\": [{}],\n  \
         \"metrics\": {}\n}}\n",
        quote(cfg.workload),
        cfg.seed,
        cfg.trace,
        host::provenance_json(cfg.seed, mode, cfg.trace, cfg.seconds),
        report.failed == 0,
        report.attempted,
        report.failed,
        report.units,
        report.latency_samples,
        report.error_samples,
        unsupported.join(", "),
        metrics_json(report.metrics.iter().chain(&report.extra)),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    if cfg.trace {
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, setstream_obs::chrome::render_events(&report.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => return usage("--spec needs a path"),
            },
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return usage("compare takes two result directories");
    };
    let loaded = compare::load_spec(&spec)
        .and_then(|spec| Ok((spec, compare::load_runs(a)?, compare::load_runs(b)?)));
    match loaded {
        Ok((spec, runs_a, runs_b)) => {
            if compare::compare(&runs_a, &runs_b, &spec) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("setbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}
