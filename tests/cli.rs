//! Integration tests for the `setstream` command-line tool, driving the
//! compiled binary end-to-end.

use std::io::Write;
use std::process::Command;

fn setstream(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_setstream"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_temp_trace(lines: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "setstream-cli-test-{}-{}.trace",
        std::process::id(),
        lines.len()
    ));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(lines.as_bytes()).unwrap();
    path
}

#[test]
fn simplify_command() {
    let (out, err, ok) = setstream(&["simplify", "A | (A & B)"]);
    assert!(ok);
    assert_eq!(out.trim(), "A");
    assert!(err.contains("2 operator(s) → 0"));
}

#[test]
fn cells_command() {
    let (out, _, ok) = setstream(&["cells", "(A - B) & C"]);
    assert!(ok);
    assert!(out.contains("1 / 7"));
    assert!(out.contains("{A, C}"));
}

#[test]
fn plan_command() {
    let (out, _, ok) = setstream(&["plan", "--epsilon", "0.2", "--delta", "0.1"]);
    assert!(ok);
    assert!(out.contains("sketch copies r"));
    assert!(out.contains("second level s"));
}

#[test]
fn exact_and_estimate_agree_on_a_trace() {
    // A = {1,2,3}, B = {2,3,4}, with a deletion removing 4 from B.
    let trace = "A +1 1\nA +1 2\nA +1 3\nB +1 2\nB +1 3\nB +1 4\nB -1 4\n";
    let path = write_temp_trace(trace);
    let path_str = path.to_str().unwrap();

    let (out, _, ok) = setstream(&["exact", "A & B", "--trace", path_str]);
    assert!(ok);
    assert_eq!(out.trim(), "2");

    let (out, _, ok) = setstream(&[
        "estimate", "A & B", "--trace", path_str, "--copies", "64", "--second-level", "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("|E| ≈"), "{out}");
    std::fs::remove_file(path).ok();
}

#[test]
fn generate_then_exact_pipeline() {
    let (trace_out, gen_err, ok) = setstream(&[
        "generate", "--streams", "2", "--union", "1000", "--expr", "A & B", "--ratio", "0.5",
        "--seed", "3",
    ]);
    assert!(ok);
    assert!(gen_err.contains("exact |A & B|"));
    let path = write_temp_trace(&trace_out);
    let (exact_out, _, ok) = setstream(&["exact", "A & B", "--trace", path.to_str().unwrap()]);
    assert!(ok);
    let n: usize = exact_out.trim().parse().unwrap();
    // ratio 0.5 of ~1000 → roughly 500.
    assert!((380..=620).contains(&n), "exact intersection {n}");
    std::fs::remove_file(path).ok();
}

/// Exit code and stderr of a run.
fn setstream_status(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_setstream"))
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, err, ok) = setstream(&["estimate", "A &&& B", "--trace", "/nonexistent"]);
    assert!(!ok);
    assert!(err.contains("error"));

    // Usage errors print the usage and exit 2.
    let (code, err) = setstream_status(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"), "{err}");
    let (code, err) = setstream_status(&[]);
    assert_eq!(code, Some(2));
    assert!(err.contains("missing command") && err.contains("usage:"), "{err}");

    // A failing command prints its one error line and exits 1.
    let (code, err) = setstream_status(&["exact", "A", "--trace", "/definitely/not/here"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("cannot open"));
    assert!(!err.contains("usage:"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    let (code, err) = setstream_status(&["scrape", "--addr", "127.0.0.1:1"]);
    assert_eq!(code, Some(1));
    assert!(err.starts_with("error:") && !err.contains("usage:"), "{err}");
}

#[test]
fn help_prints_usage() {
    let (out, _, ok) = setstream(&["help"]);
    assert!(ok);
    assert!(out.contains("usage:"));
}

#[test]
fn stats_command_emits_a_valid_exposition() {
    let (out, _, ok) = setstream(&[
        "stats", "--rounds", "2", "--events", "500", "--sites", "2", "--sample", "0.1",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("round 0:"), "{out}");
    assert!(out.contains("coordinator :"), "{out}");
    // The metric dump after the blank line is the same render `/metrics`
    // serves — it must parse as Prometheus exposition text.
    let exposition = out
        .split("\n\n")
        .filter(|s| !s.trim().is_empty())
        .last()
        .expect("metrics section");
    let summary =
        setstream_apps::obs::export::parse_exposition(exposition).expect("valid exposition");
    assert!(summary.families.iter().any(|f| f == "setstream_quality_updates_seen_total"));
    assert!(summary.families.iter().any(|f| f == "setstream_alarm_active"));
    assert!(summary.helped > 0, "families carry HELP text");
}

/// Spawn `setstream serve` on an ephemeral port and wait for its
/// announcement line; the guard kills the child on drop.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_setstream"))
        .args(["serve", "--port", "0", "--events", "400", "--sites", "2"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("announce line");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_scrape_and_top_round_trip() {
    let (mut child, addr) = spawn_serve(&["--rounds", "2", "--interval-ms", "10"]);

    let (metrics, scrape_err, ok) = setstream(&["scrape", "--addr", &addr]);
    assert!(ok, "{scrape_err}");
    assert!(scrape_err.contains("scrape OK"), "{scrape_err}");
    assert!(metrics.contains("# TYPE setstream_http_requests_total counter"), "server reports on itself");

    let (health, _, ok) = setstream(&["scrape", "--addr", &addr, "--path", "/health"]);
    assert!(ok);
    assert!(health.contains("\"collection\""), "{health}");
    assert!(health.contains("\"alarms\""), "{health}");

    let (trace, _, ok) = setstream(&["scrape", "--addr", &addr, "--path", "/trace"]);
    assert!(ok);
    assert!(trace.contains("\"traceEvents\""), "{trace}");

    let (dash, _, ok) = setstream(&["top", "--addr", &addr, "--iterations", "1"]);
    assert!(ok, "{dash}");
    assert!(dash.contains("setstream top"), "{dash}");
    assert!(dash.contains("ingest"), "{dash}");
    assert!(dash.contains("alarms"), "{dash}");

    let (_, err, ok) = setstream(&["scrape", "--addr", &addr, "--path", "/nope"]);
    assert!(!ok);
    assert!(err.contains("HTTP 404"), "{err}");

    child.kill().ok();
    child.wait().ok();
}
