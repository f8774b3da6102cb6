//! Ingestion-throughput benchmark with machine-readable output.
//!
//! Measures the two maintenance paths — scalar (element-major
//! `SketchVector::update`) and batched (copy-major `update_batch`) — the
//! cost per update and copy of short stream batches against full chunks
//! (`stream_batch` rows), and the metrics overhead of the engine's ingest
//! path, and writes the
//! results to `BENCH_ingest.json` so later changes have a perf trajectory
//! to compare against. The quality and tracing overheads go to
//! `BENCH_obs.json`.
//!
//! ```sh
//! cargo run --release -p setstream-bench --bin ingest_bench             # full
//! cargo run --release -p setstream-bench --bin ingest_bench -- --quick  # smoke test
//! cargo run --release -p setstream-bench --bin ingest_bench -- --out results/BENCH_ingest.json
//! ```

use setstream_bench::host::write_json;
use setstream_bench::PAPER_S;
use setstream_core::SketchFamily;
use setstream_distributed::{Coordinator, Site};
use setstream_engine::{QualityConfig, QualityMonitor, StreamEngine};
use setstream_obs::{RingRecorder, TraceHandle};
use setstream_stream::{StreamId, Update};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    obs_out: String,
}

fn parse_args() -> Args {
    let mut out = Args {
        quick: false,
        out: "BENCH_ingest.json".to_string(),
        obs_out: "BENCH_obs.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--out" => out.out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--obs-out" => {
                out.obs_out = args.next().unwrap_or_else(|| usage("--obs-out needs a path"))
            }
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
    eprintln!(
        "options: --quick (smaller workload) | --out PATH (default BENCH_ingest.json) | \
         --obs-out PATH (default BENCH_obs.json)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Workload shapes by deletion density. `insert_only` (like the criterion
/// `vector_update_batch` workload) gives every 512-update chunk one delta
/// plane; `mixed10`/`mixed50` interleave 10%/50% deletions, so every
/// chunk carries mixed signs and two planes (two's complement `±1`).
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    InsertOnly,
    Mixed10,
    Mixed50,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::InsertOnly => "insert_only",
            Shape::Mixed10 => "mixed10",
            Shape::Mixed50 => "mixed50",
        }
    }
}

fn workload(n: usize, shape: Shape) -> Vec<Update> {
    (0..n as u64)
        .map(|i| Update {
            stream: StreamId(0),
            element: i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3,
            delta: match shape {
                Shape::InsertOnly => 1,
                Shape::Mixed10 if i % 10 == 9 => -1,
                Shape::Mixed50 if i % 2 == 1 => -1,
                _ => 1,
            },
        })
        .collect()
}

fn family(r: usize) -> SketchFamily {
    SketchFamily::builder().copies(r).second_level(PAPER_S).seed(1).build()
}

/// Wall-clock seconds `f` takes. Its result passes through `black_box`
/// after the clock stops, defeating dead-code elimination (mixed50 nets
/// to zero counts, so an emptiness check would reject that shape) without
/// timing the result's drop.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(out);
    dt
}

/// Quantile `q` of `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

/// Time side `a` against side `b` over `n` operations (each `per`: an
/// update, or an update applied to one sketch copy) as `pairs`
/// interleaved pairs, each closure returning the seconds one rep took.
/// The sides alternate rep by rep and swap which runs first every pair,
/// so host drift lands on both alike, and each ratio `b / a` compares two
/// neighbouring reps. Prints the result under `label` and returns the
/// ratios' quartiles `[q1, median, q3]` (the gate reads the median) with
/// the JSON fields of the result row: the sides named `na` and `nb`, the
/// ratio `nr`.
fn paired(
    label: &str,
    [na, nb, nr]: [&str; 3],
    pairs: usize,
    (n, per): (usize, &str),
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> ([f64; 3], String) {
    let mut t = [Vec::new(), Vec::new()];
    for i in 0..pairs {
        for side in [i % 2, 1 - i % 2] {
            t[side].push(if side == 0 { a() } else { b() });
        }
    }
    let ratios: Vec<f64> = t[1].iter().zip(&t[0]).map(|(y, x)| y / x).collect();
    let [a_ns, b_ns] = t.map(|t| quantile(&t, 0.5) * 1e9 / n as f64);
    let [q1, median, q3] = [0.25, 0.5, 0.75].map(|q| quantile(&ratios, q));
    println!("  {label}: {na} {a_ns:.1} ns/{per}   {nb} {b_ns:.1} ns/{per}   ratio {median:.3}x [{q1:.3}, {q3:.3}]");
    let fields = format!(
        "\"pairs\":{pairs},\"{na}_ns_per_{per}\":{a_ns:.1},\"{nb}_ns_per_{per}\":{b_ns:.1},\
         \"{nr}\":{median:.3},\"{nr}_q1\":{q1:.3},\"{nr}_q3\":{q3:.3}"
    );
    ([q1, median, q3], fields)
}

/// Streams a `stream_batch` engine batch spreads over, and the updates
/// per stream of the full-chunk row the others are timed against.
const STREAMS: usize = 8;
const FULL_GROUP: usize = 4096;

/// `n` updates round-robin over [`STREAMS`] streams, with elements of 32
/// bits and deltas in `-3..=7` (four two's complement planes, like
/// setbench's churn).
fn stream_workload(n: usize) -> Vec<Update> {
    (0..n as u64)
        .map(|i| {
            let h = setstream_hash::splitmix64(i);
            Update {
                stream: StreamId((i % STREAMS as u64) as u32),
                element: h & 0xffff_ffff,
                delta: (h >> 40) as i64 % 11 - 3,
            }
        })
        .collect()
}

/// Feed `updates` to `engine` in batches of `group` updates per stream.
fn ingest_in_batches(engine: &mut StreamEngine, updates: &[Update], group: usize) {
    for batch in updates.chunks(STREAMS * group) {
        engine.process_batch(batch);
    }
}

/// Seconds one engine ingest of `updates` takes, plus whatever `after`
/// adds inside the timed region.
fn engine_secs(r: usize, updates: &[Update], after: impl FnOnce()) -> f64 {
    let mut engine = StreamEngine::new(family(r));
    let dt = secs(|| {
        engine.process_batch(updates);
        after()
    });
    assert!(engine.stats().updates > 0, "engine must have ingested");
    dt
}

fn main() {
    let args = parse_args();
    let n_scalar = if args.quick { 2_000usize } else { 20_000 };
    // The overhead ratios (metrics, quality, tracing) gate in tier1.sh,
    // so they need enough work per timing for the ratio to be signal
    // rather than scheduler noise: at 2k updates the quick ratios
    // routinely landed below 1.0. They get their own larger sample. They
    // and the batch speedups are timed as interleaved pairs (see
    // `paired`).
    let (n_obs, pairs) = if args.quick {
        (20_000usize, 9usize)
    } else {
        (60_000, 15)
    };

    let mut rows = String::new();
    println!("ingest_bench: s = {PAPER_S}, scalar/batch over {n_scalar} updates");

    // Scalar vs batched, across the paper's r sweep, on all three
    // workload shapes, each row timed as interleaved pairs (see `paired`).
    // `speedup_batch_r512` reports the insert-only shape — the common
    // stream case and the one the criterion bench measures; the mixed
    // shapes pin the signed-delta planes.
    let mut speedup_r512 = 0.0;
    let mut speedup_mixed10_r512 = 0.0;
    let mut speedup_mixed50_r512 = 0.0;
    for shape in [Shape::InsertOnly, Shape::Mixed10, Shape::Mixed50] {
        for r in [64usize, 256, 512] {
            let updates = workload(n_scalar, shape);
            let ([_, speedup, _], fields) = paired(
                &format!("[{}] r={r}", shape.name()),
                ["batch", "scalar", "speedup"],
                pairs,
                (n_scalar, "update"),
                || {
                    secs(|| {
                        let mut v = family(r).new_vector();
                        v.update_batch(&updates);
                        v
                    })
                },
                || {
                    secs(|| {
                        let mut v = family(r).new_vector();
                        for u in &updates {
                            v.process(u);
                        }
                        v
                    })
                },
            );
            if r == 512 {
                match shape {
                    Shape::InsertOnly => speedup_r512 = speedup,
                    Shape::Mixed10 => speedup_mixed10_r512 = speedup,
                    Shape::Mixed50 => speedup_mixed50_r512 = speedup,
                }
            }
            let _ = write!(
                rows,
                "{}{{\"mode\":\"scalar_vs_batch\",\"workload\":\"{}\",\"r\":{r},\"s\":{PAPER_S},\
                 \"updates\":{n_scalar},{fields}}}",
                if rows.is_empty() { "" } else { ",\n    " },
                shape.name()
            );
        }
    }

    // Observability overhead: the raw batched kernel against the
    // instrumented engine path (always-on atomic counters + per-batch
    // ingest stats) on the same insert-only workload. The ratio is the
    // price of leaving metrics on; the budget is 5% (see tier1.sh).
    let r_obs = 512usize;
    let updates = workload(n_obs, Shape::InsertOnly);
    let ([metrics_q1, metrics_overhead, metrics_q3], fields) = paired(
        &format!("metrics overhead r={r_obs}"),
        ["raw", "engine", "overhead"],
        pairs,
        (updates.len(), "update"),
        || secs(|| {
            let mut v = family(r_obs).new_vector();
            v.update_batch(&updates);
            v
        }),
        || engine_secs(r_obs, &updates, || ()),
    );
    let _ = write!(
        rows,
        ",\n    {{\"mode\":\"metrics_overhead\",\"r\":{r_obs},\"s\":{PAPER_S},\"updates\":{n_obs},{fields}}}"
    );

    // Short stream batches: one engine batch spread over 8 streams at
    // query_mix's shape (r = 256, s = 32, deltas -3..7). The engine
    // slices each stream's group on its own, so a short group pays a
    // chunk's fixed per-copy work for few updates. Each row is timed
    // against the 4 096-update row as interleaved pairs over the same
    // number of updates, on engines warmed by one untimed rep.
    let r_stream = 256usize;
    let n_stream = STREAMS * FULL_GROUP * if args.quick { 1 } else { 2 };
    let stream_updates = stream_workload(n_stream);
    let mut full = StreamEngine::new(family(r_stream));
    ingest_in_batches(&mut full, &stream_updates, FULL_GROUP);
    let mut stream_ratio_64 = 0.0;
    for group in [16usize, 64, 512] {
        let mut short = StreamEngine::new(family(r_stream));
        ingest_in_batches(&mut short, &stream_updates, group);
        let ([_, ratio, _], fields) = paired(
            &format!("stream batch {group} vs {FULL_GROUP} per stream, r={r_stream}"),
            ["full", "short", "ratio"],
            pairs,
            (n_stream * r_stream, "update_copy"),
            || secs(|| ingest_in_batches(&mut full, &stream_updates, FULL_GROUP)),
            || secs(|| ingest_in_batches(&mut short, &stream_updates, group)),
        );
        if group == 64 {
            stream_ratio_64 = ratio;
        }
        let _ = write!(
            rows,
            ",\n    {{\"mode\":\"stream_batch\",\"updates_per_stream\":{group},\
             \"full_updates_per_stream\":{FULL_GROUP},\"streams\":{STREAMS},\"r\":{r_stream},\
             \"s\":{PAPER_S},\"updates\":{n_stream},{fields}}}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"quick\": {},\n  \"host\": {},\n  \
         \"speedup_batch_r512\": {speedup_r512:.3},\n  \
         \"speedup_batch_mixed10_r512\": {speedup_mixed10_r512:.3},\n  \
         \"speedup_batch_mixed50_r512\": {speedup_mixed50_r512:.3},\n  \
         \"metrics_overhead\": {metrics_overhead:.3},\n  \
         \"metrics_overhead_quartiles\": [{metrics_q1:.3}, {metrics_q3:.3}],\n  \
         \"stream_batch_ratio_64\": {stream_ratio_64:.3},\n  \
         \"results\": [\n    {rows}\n  ]\n}}\n",
        args.quick,
        setstream_bench::host::host_json()
    );
    write_json(&args.out, &json);

    // Quality-plane overhead: the instrumented engine path alone vs the
    // same path with a QualityMonitor shadow-sampling the batch. Rate 0.0
    // prices the per-update hash test alone; rate 0.01 is the documented
    // operating point (hash + ~1% shadow multiset maintenance) and is the
    // number tier1.sh gates at ≤5% (+ quick-bench noise margin).
    let mut obs_rows = String::new();
    let [_, quality] = [0.0f64, 0.01].map(|rate| {
        let config = QualityConfig { sampling_rate: rate, ..QualityConfig::default() };
        let monitor = QualityMonitor::new(config).expect("valid bench config");
        let (ratio, fields) = paired(
            &format!("quality overhead rate={rate}"),
            ["engine", "engine_plus_monitor", "overhead"],
            pairs,
            (updates.len(), "update"),
            || engine_secs(r_obs, &updates, || ()),
            || engine_secs(r_obs, &updates, || monitor.observe_batch(&updates)),
        );
        let _ = write!(
            obs_rows,
            "{}{{\"mode\":\"quality_overhead\",\"sampling_rate\":{rate},\"r\":{r_obs},\
             \"s\":{PAPER_S},\"updates\":{n_obs},{fields}}}",
            if obs_rows.is_empty() { "" } else { ",\n    " }
        );
        ratio
    });
    // Tracing & lineage overhead: a continuous-collection cycle —
    // observe a 512-update slice, cut an epoch (Hello/Delta/Commit
    // frames), ingest them at a coordinator — run with a noop
    // TraceHandle vs a recording one. The coordinator's lineage ring is
    // always-on in both runs (it has no off switch), so the ratio prices
    // exactly the optional layer: span records at cut/merge/commit plus
    // the 24-byte trace-context extension on every frame. Collection
    // runs the transport-scale family (r = 64, the `setstream site`
    // default) — at r = 512 a first-epoch delta overflows the frame cap.
    const EPOCH_LEN: usize = 512;
    let r_cycle = 64usize;
    let cycle_secs = |trace: &TraceHandle| -> f64 {
        let mut site = Site::new(1, family(r_cycle));
        site.set_trace(trace.clone());
        let coordinator = Coordinator::new(family(r_cycle)).with_trace(trace.clone(), "coordinator");
        secs(|| {
            for slice in updates.chunks(EPOCH_LEN) {
                site.observe_batch(slice);
                let cut = site.cut_epoch().expect("epoch cut");
                for frame in &cut.frames {
                    coordinator.ingest_frame(frame).expect("coordinator ingest");
                }
            }
        })
    };
    let recording = TraceHandle::new(Arc::new(RingRecorder::new(4096)));
    let ([tracing_q1, tracing_overhead, tracing_q3], fields) = paired(
        &format!("tracing overhead r={r_cycle} epoch={EPOCH_LEN}"),
        ["noop", "traced", "overhead"],
        pairs,
        (updates.len(), "update"),
        || cycle_secs(&TraceHandle::noop()),
        || cycle_secs(&recording),
    );
    let _ = write!(
        obs_rows,
        ",\n    {{\"mode\":\"tracing_overhead\",\"r\":{r_cycle},\"s\":{PAPER_S},\"updates\":{n_obs},\
         \"epoch_len\":{EPOCH_LEN},{fields}}}"
    );

    let [quality_q1, quality_overhead, quality_q3] = quality;
    let obs_json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"quick\": {},\n  \"host\": {},\n  \
         \"quality_overhead\": {quality_overhead:.3},\n  \
         \"quality_overhead_quartiles\": [{quality_q1:.3}, {quality_q3:.3}],\n  \
         \"tracing_overhead\": {tracing_overhead:.3},\n  \
         \"tracing_overhead_quartiles\": [{tracing_q1:.3}, {tracing_q3:.3}],\n  \
         \"results\": [\n    {obs_rows}\n  ]\n}}\n",
        args.quick,
        setstream_bench::host::host_json()
    );
    write_json(&args.obs_out, &obs_json);
}
