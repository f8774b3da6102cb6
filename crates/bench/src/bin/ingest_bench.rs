//! Ingestion-throughput benchmark with machine-readable output.
//!
//! Measures the three maintenance paths introduced by the batched
//! ingestion work — scalar (element-major `SketchVector::update`),
//! batched (copy-major `update_batch`), and sharded-parallel
//! (`ShardedIngestor` over crossbeam workers) — and writes the results to
//! `BENCH_ingest.json` so later changes have a perf trajectory to compare
//! against.
//!
//! ```sh
//! cargo run --release -p setstream-bench --bin ingest_bench             # full
//! cargo run --release -p setstream-bench --bin ingest_bench -- --quick  # smoke test
//! cargo run --release -p setstream-bench --bin ingest_bench -- --out results/BENCH_ingest.json
//! ```

use setstream_core::{SketchFamily, SketchVector};
use setstream_distributed::{Coordinator, Site};
use setstream_engine::{QualityConfig, QualityMonitor, ShardedIngestor, StreamEngine};
use setstream_obs::{RingRecorder, TraceHandle};
use setstream_stream::{StreamId, Update};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const PAPER_S: u32 = 32;

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

/// Workload shapes by deletion density. `insert_only` hits the
/// uniform-delta group kernel (like the criterion `vector_update_batch`
/// workload); `mixed10`/`mixed50` interleave 10%/50% deletions so every
/// 512-update chunk carries mixed signs and ingest runs the weighted
/// (signed-delta) kernel throughout.
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

/// Best-of-`reps` wall-clock nanoseconds per update for `f` applied to the
/// whole slice (minimum filters scheduler noise; each rep re-runs the
/// full ingestion).
fn time_ns_per_update(updates: &[Update], reps: usize, mut f: impl FnMut(&[Update]) -> SketchVector) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f(updates);
        let dt = t.elapsed().as_secs_f64();
        // Defeat dead-code elimination (mixed50 nets to zero counts, so
        // an emptiness check would reject that shape).
        std::hint::black_box(&v);
        best = best.min(dt * 1e9 / updates.len() as f64);
    }
    best
}

fn main() {
    let args = parse_args();
    let (n_scalar, n_parallel, reps) = if args.quick {
        (2_000usize, 8_192usize, 2usize)
    } else {
        (20_000, 131_072, 3)
    };
    // The overhead ratios (metrics, quality, tracing) gate at ≤5% in
    // tier1.sh, so they need enough work per timing for the ratio to be
    // signal rather than scheduler noise: at 2k updates the quick ratios
    // routinely landed below 1.0. They get their own larger sample and
    // more min-of-N reps than the throughput sweeps.
    let (n_obs, obs_reps) = if args.quick {
        (20_000usize, 5usize)
    } else {
        (60_000, 7)
    };

    let mut rows = String::new();
    println!("ingest_bench: s = {PAPER_S}, scalar/batch over {n_scalar} updates, parallel over {n_parallel}");

    // Scalar vs batched, across the paper's r sweep, on all three
    // workload shapes. `speedup_batch_r512` reports the insert-only
    // shape — the common stream case and the one the criterion bench
    // measures; the mixed shapes pin the signed-delta kernel.
    let mut speedup_r512 = 0.0;
    let mut speedup_mixed10_r512 = 0.0;
    let mut speedup_mixed50_r512 = 0.0;
    for shape in [Shape::InsertOnly, Shape::Mixed10, Shape::Mixed50] {
        for r in [64usize, 256, 512] {
            let updates = workload(n_scalar, shape);
            let scalar = time_ns_per_update(&updates, reps, |us| {
                let mut v = family(r).new_vector();
                for u in us {
                    v.process(u);
                }
                v
            });
            let batch = time_ns_per_update(&updates, reps, |us| {
                let mut v = family(r).new_vector();
                v.update_batch(us);
                v
            });
            let speedup = scalar / batch;
            if r == 512 {
                match shape {
                    Shape::InsertOnly => speedup_r512 = speedup,
                    Shape::Mixed10 => speedup_mixed10_r512 = speedup,
                    Shape::Mixed50 => speedup_mixed50_r512 = speedup,
                }
            }
            println!("  [{}] r={r:<4} scalar {scalar:>10.1} ns/update   batch {batch:>10.1} ns/update   speedup {speedup:.2}x", shape.name());
            let _ = write!(
                rows,
                "{}{{\"mode\":\"scalar_vs_batch\",\"workload\":\"{}\",\"r\":{r},\"s\":{PAPER_S},\
                 \"updates\":{n_scalar},\
                 \"scalar_ns_per_update\":{scalar:.1},\"batch_ns_per_update\":{batch:.1},\
                 \"speedup\":{speedup:.3}}}",
                if rows.is_empty() { "" } else { ",\n    " },
                shape.name()
            );
        }
    }

    // Staged-pipeline thread scaling at a mid-size r. Meaningful only
    // when the recorded host `cores` covers the thread count — on
    // smaller hosts the extra rows measure oversubscription.
    let r_par = 128usize;
    let updates = workload(n_parallel, Shape::Mixed10);
    let mut base_1t = 0.0;
    let mut scaling_4t = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let ingestor = ShardedIngestor::new(family(r_par), threads);
        let ns = time_ns_per_update(&updates, reps, |us| ingestor.ingest_vector(us));
        if threads == 1 {
            base_1t = ns;
        }
        let scaling = base_1t / ns;
        if threads == 4 {
            scaling_4t = scaling;
        }
        println!("  parallel r={r_par} threads={threads}  {ns:>10.1} ns/update   scaling {scaling:.2}x");
        let _ = write!(
            rows,
            ",\n    {{\"mode\":\"parallel\",\"r\":{r_par},\"s\":{PAPER_S},\"updates\":{n_parallel},\
             \"threads\":{threads},\"ns_per_update\":{ns:.1},\"scaling_vs_1_thread\":{scaling:.3}}}"
        );
    }

    // Observability overhead: the raw batched kernel against the
    // instrumented engine path (always-on atomic counters + per-batch
    // ingest stats) on the same insert-only workload. The ratio is the
    // price of leaving metrics on; the budget is 5% (see tier1.sh).
    let r_obs = 512usize;
    let updates = workload(n_obs, Shape::InsertOnly);
    let raw = time_ns_per_update(&updates, obs_reps, |us| {
        let mut v = family(r_obs).new_vector();
        v.update_batch(us);
        v
    });
    let engine_ns = {
        let mut best = f64::INFINITY;
        for _ in 0..obs_reps {
            let mut engine = StreamEngine::new(family(r_obs));
            let t = Instant::now();
            engine.process_batch(&updates);
            let dt = t.elapsed().as_secs_f64();
            assert!(engine.stats().updates > 0, "engine must have ingested");
            best = best.min(dt * 1e9 / updates.len() as f64);
        }
        best
    };
    let metrics_overhead = engine_ns / raw;
    println!(
        "  metrics overhead r={r_obs}: raw {raw:.1} ns/update   engine(metrics on) {engine_ns:.1} ns/update   ratio {metrics_overhead:.3}x"
    );
    let _ = write!(
        rows,
        ",\n    {{\"mode\":\"metrics_overhead\",\"r\":{r_obs},\"s\":{PAPER_S},\"updates\":{n_obs},\
         \"raw_ns_per_update\":{raw:.1},\"engine_ns_per_update\":{engine_ns:.1},\
         \"overhead\":{metrics_overhead:.3}}}"
    );

    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"quick\": {},\n  \"host\": {},\n  \
         \"speedup_batch_r512\": {speedup_r512:.3},\n  \
         \"speedup_batch_mixed10_r512\": {speedup_mixed10_r512:.3},\n  \
         \"speedup_batch_mixed50_r512\": {speedup_mixed50_r512:.3},\n  \
         \"parallel_scaling_4t\": {scaling_4t:.3},\n  \
         \"metrics_overhead\": {metrics_overhead:.3},\n  \"results\": [\n    {rows}\n  ]\n}}\n",
        args.quick,
        setstream_bench::host::host_json()
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);

    // Quality-plane overhead: the instrumented engine path alone vs the
    // same path with a QualityMonitor shadow-sampling the batch. Rate 0.0
    // prices the per-update hash test alone; rate 0.01 is the documented
    // operating point (hash + ~1% shadow multiset maintenance) and is the
    // number tier1.sh gates at ≤5% (+ quick-bench noise margin).
    let mut obs_rows = String::new();
    let mut quality_overhead = 0.0;
    for rate in [0.0f64, 0.01] {
        let monitor = QualityMonitor::new(QualityConfig {
            sampling_rate: rate,
            ..QualityConfig::default()
        })
        .expect("valid bench config");
        let monitored_ns = {
            let mut best = f64::INFINITY;
            for _ in 0..obs_reps {
                let mut engine = StreamEngine::new(family(r_obs));
                let t = Instant::now();
                engine.process_batch(&updates);
                monitor.observe_batch(&updates);
                let dt = t.elapsed().as_secs_f64();
                assert!(engine.stats().updates > 0, "engine must have ingested");
                best = best.min(dt * 1e9 / updates.len() as f64);
            }
            best
        };
        let overhead = monitored_ns / engine_ns;
        if rate > 0.0 {
            quality_overhead = overhead;
        }
        println!(
            "  quality overhead rate={rate}: engine {engine_ns:.1} ns/update   +monitor {monitored_ns:.1} ns/update   ratio {overhead:.3}x"
        );
        let _ = write!(
            obs_rows,
            "{}{{\"mode\":\"quality_overhead\",\"sampling_rate\":{rate},\"r\":{r_obs},\
             \"s\":{PAPER_S},\"updates\":{n_obs},\
             \"engine_ns_per_update\":{engine_ns:.1},\
             \"engine_plus_monitor_ns_per_update\":{monitored_ns:.1},\
             \"overhead\":{overhead:.3}}}",
            if obs_rows.is_empty() { "" } else { ",\n    " }
        );
    }
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
    let cycle_ns = |trace: &TraceHandle| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..obs_reps {
            let mut site = Site::new(1, family(r_cycle));
            site.set_trace(trace.clone());
            let coordinator =
                Coordinator::new(family(r_cycle)).with_trace(trace.clone(), "coordinator");
            let t = Instant::now();
            for slice in updates.chunks(EPOCH_LEN) {
                site.observe_batch(slice);
                let cut = site.cut_epoch().expect("epoch cut");
                for frame in &cut.frames {
                    coordinator.ingest_frame(frame).expect("coordinator ingest");
                }
            }
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&coordinator);
            best = best.min(dt * 1e9 / updates.len() as f64);
        }
        best
    };
    let noop_ns = cycle_ns(&TraceHandle::noop());
    let recording = TraceHandle::new(Arc::new(RingRecorder::new(4096)));
    let traced_ns = cycle_ns(&recording);
    let tracing_overhead = traced_ns / noop_ns;
    println!(
        "  tracing overhead r={r_cycle} epoch={EPOCH_LEN}: noop {noop_ns:.1} ns/update   traced {traced_ns:.1} ns/update   ratio {tracing_overhead:.3}x"
    );
    let _ = write!(
        obs_rows,
        ",\n    {{\"mode\":\"tracing_overhead\",\"r\":{r_cycle},\"s\":{PAPER_S},\"updates\":{n_obs},\
         \"epoch_len\":{EPOCH_LEN},\
         \"noop_ns_per_update\":{noop_ns:.1},\"traced_ns_per_update\":{traced_ns:.1},\
         \"overhead\":{tracing_overhead:.3}}}"
    );

    let obs_json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"quick\": {},\n  \"host\": {},\n  \
         \"quality_overhead\": {quality_overhead:.3},\n  \
         \"tracing_overhead\": {tracing_overhead:.3},\n  \"results\": [\n    {obs_rows}\n  ]\n}}\n",
        args.quick,
        setstream_bench::host::host_json()
    );
    std::fs::write(&args.obs_out, &obs_json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.obs_out);
        std::process::exit(1);
    });
    println!("wrote {}", args.obs_out);
}
