//! Standing-query subscription benchmark with machine-readable output.
//!
//! Pits the incremental path (`StreamEngine::publish_epoch`, which keeps
//! one cached estimate per expression class and re-estimates a class only
//! when a stream it reads changed) against the from-scratch baseline
//! (evaluating every subscription's expression with
//! `StreamEngine::evaluate`) on a subscription family with ~90% sharing:
//! `n` subscriptions drawn from a pool of `n/10` distinct expressions, so
//! the family collapses to a handful of classes. Each round touches 2 of
//! the 8 streams; the incremental path re-estimates only the classes that
//! read them, once each, while the baseline re-estimates all `n`.
//! Results go to `BENCH_subs.json` so later changes have a perf
//! trajectory to compare against.
//!
//! ```sh
//! cargo run --release -p setstream-bench --bin subs_bench             # full (10k/100k/1M)
//! cargo run --release -p setstream-bench --bin subs_bench -- --quick  # smoke test (10k/100k)
//! cargo run --release -p setstream-bench --bin subs_bench -- --out results/BENCH_subs.json
//! ```

use setstream_core::SketchFamily;
use setstream_engine::{StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};
use std::fmt::Write as _;
use std::time::Instant;

const COPIES: usize = 64;
const SECOND_LEVEL: u32 = 16;
const N_STREAMS: u32 = 8;
const N_SUBS: usize = 40;
/// Updates applied per measured round, split over 2 of the 8 streams.
const ROUND_DELTA: usize = 512;

struct Args {
    quick: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut out = Args {
        quick: false,
        out: "BENCH_subs.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--out" => out.out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    out
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("{err}");
    }
    eprintln!("options: --quick (smaller workload) | --out PATH (default BENCH_subs.json)");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The distinct-expression pool: `N_SUBS / 10` expressions over 8
/// streams, each registered 10 times (90% of registrations join an
/// existing class). The first three read streams A/B, which the per-round
/// deltas change; the last one doesn't, so it serves its cached estimate.
fn expr_pool() -> Vec<SetExpr> {
    ["(A & B) | (C - D)", "(A | B) & (E - F)", "(B - C) | (G & H)", "(C & D) | (E - G)"]
        .iter()
        .map(|t| t.parse().expect("pool expressions parse"))
        .collect()
}

/// Deterministic workload: `n` updates spread round-robin over the 8
/// streams with overlapping element domains (so intersections and
/// differences are non-trivial).
fn base_workload(n: usize) -> Vec<Update> {
    (0..n as u64)
        .map(|i| {
            let stream = StreamId((i % N_STREAMS as u64) as u32);
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Update::insert(stream, (x >> 16) % (n as u64 / 2).max(1), 1)
        })
        .collect()
}

/// The per-round delta: `ROUND_DELTA` inserts split over streams A and B.
fn round_delta(round: usize, n: usize) -> Vec<Update> {
    (0..ROUND_DELTA as u64)
        .map(|i| {
            let x = (round as u64 * ROUND_DELTA as u64 + i)
                .wrapping_mul(0xA24B_AED4_963E_E407);
            Update::insert(StreamId((i % 2) as u32), (x >> 16) % (n as u64), 1)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let sizes: &[usize] = if args.quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let rounds = if args.quick { 4usize } else { 8 };

    let family = SketchFamily::builder()
        .copies(COPIES)
        .second_level(SECOND_LEVEL)
        .seed(7)
        .build();
    let pool = expr_pool();
    let options = SubscriptionOptions::builder()
        .tolerance(Tolerance::Relative(0.01))
        .build()
        .expect("valid tolerance");

    println!(
        "subs_bench: r = {COPIES}, s = {SECOND_LEVEL}, {N_SUBS} subscriptions over {} distinct expressions, {rounds} rounds",
        pool.len()
    );

    let mut rows = String::new();
    let mut speedup_gate = 0.0f64;
    let mut speedup_100k = 0.0f64;
    for &size in sizes {
        let mut engine = StreamEngine::new(family);
        engine.process_batch(&base_workload(size));
        // 90% sharing: each pool expression registered N_SUBS/pool times.
        let exprs: Vec<SetExpr> = (0..N_SUBS).map(|i| pool[i % pool.len()].clone()).collect();
        for expr in &exprs {
            engine
                .subscribe(expr.clone(), options)
                .expect("subscription registers");
        }
        let classes = engine.subscription_classes();
        // Warm epoch: absorb the Initial notifications so measured rounds
        // exercise the steady state.
        let _ = engine.publish_epoch();

        let mut best_full = f64::INFINITY;
        let mut best_inc = f64::INFINITY;
        let mut evaluated_per_round = 0u64;
        for round in 0..rounds {
            engine.process_batch(&round_delta(round, size));

            // From-scratch baseline: every subscription re-estimated via
            // the one-shot `evaluate` path (no cache, no sharing).
            let t = Instant::now();
            for expr in &exprs {
                let est = engine.evaluate(expr).expect("evaluate succeeds");
                std::hint::black_box(est.value);
            }
            best_full = best_full.min(t.elapsed().as_secs_f64() * 1e9);

            // Incremental: re-estimate only the classes that read a
            // changed stream, once per class.
            let before = engine.subscription_metrics().nodes_evaluated.get();
            let t = Instant::now();
            let events = engine.publish_epoch();
            best_inc = best_inc.min(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(events.len());
            evaluated_per_round = engine.subscription_metrics().nodes_evaluated.get() - before;
        }
        let speedup = best_full / best_inc;
        speedup_gate = speedup;
        if size == 100_000 {
            speedup_100k = speedup;
        }
        println!(
            "  size={size:<8} full {best_full:>12.0} ns/round   incremental {best_inc:>12.0} ns/round   speedup {speedup:.1}x   ({evaluated_per_round} of {classes} classes re-estimated)"
        );
        let _ = write!(
            rows,
            "{}{{\"size\":{size},\"subs\":{N_SUBS},\"distinct_exprs\":{},\"classes\":{classes},\
             \"full_ns_per_round\":{best_full:.0},\"incremental_ns_per_round\":{best_inc:.0},\
             \"speedup\":{speedup:.3},\"classes_reestimated_per_round\":{evaluated_per_round}}}",
            if rows.is_empty() { "" } else { ",\n    " },
            pool.len()
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"subs\",\n  \"quick\": {},\n  \"host\": {},\n  \
         \"speedup_100k\": {speedup_100k:.3},\n  \
         \"speedup_at_largest\": {speedup_gate:.3},\n  \"results\": [\n    {rows}\n  ]\n}}\n",
        args.quick,
        setstream_bench::host::host_json()
    );
    setstream_bench::host::write_json(&args.out, &json);
}
