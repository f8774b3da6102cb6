//! `ingest`: batches of Venn-stream updates with deletions straight into
//! `StreamEngine::process_batch` at paper scale (r = 512, s = 32).
//!
//! All busy time is the hash and sketch-apply kernels, and the 16 MiB
//! synopsis per stream outruns the caches. Estimation, the expression DAG
//! and the wire are bypassed, so changes to those must leave this
//! workload unchanged.

use crate::data::{self, Exact, Feed};
use crate::harness::{self, ratio, Config, Meter, Metric, Report};
use rand::Rng;
use setstream_core::SketchFamily;
use setstream_engine::StreamEngine;
use setstream_expr::SetExpr;
use setstream_stream::gen::UpdateBuilder;

struct Size {
    copies: usize,
    second_level: u32,
    union: usize,
    batch: usize,
    min_units: u64,
    /// Accuracy is sampled after every `sample_every`-th batch.
    sample_every: u64,
}

const FULL: Size = Size {
    copies: 512,
    second_level: 32,
    union: 1 << 17,
    batch: 8192,
    min_units: 100,
    sample_every: 10,
};

const SMOKE: Size = Size {
    copies: 8,
    second_level: 8,
    union: 1 << 9,
    batch: 256,
    min_units: 8,
    sample_every: 4,
};

/// Fixed expressions over the four streams whose accuracy is sampled.
const EXPRS: [&str; 8] = [
    "A | B",
    "A & B",
    "A - B",
    "(A & B) - C",
    "(A | B) & (C | D)",
    "A & B & C",
    "(A - B) | (C - D)",
    "A | B | C | D",
];

pub fn run(cfg: &Config) -> Result<Report, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut fixed = data::dataset_rng(1);
    let streams = data::venn_streams(4, size.union, &UpdateBuilder::with_churn(), &mut fixed);
    let family = SketchFamily::builder()
        .copies(size.copies)
        .second_level(size.second_level)
        .seed(fixed.gen())
        .build();
    let mut feed = Feed::new(data::arrivals(&streams, &mut data::rng(cfg.seed, 1)));
    let exprs: Vec<SetExpr> = EXPRS
        .iter()
        .map(|t| t.parse().map_err(|e| format!("{t}: {e}")))
        .collect::<Result<_, _>>()?;

    let warmup = feed.take(size.batch);
    let (mut engine, setup_s) = harness::setup(|| {
        let mut engine = StreamEngine::new(family);
        engine.process_batch(&warmup);
        Ok(engine)
    })?;

    let mut meter = Meter::new(cfg.trace);
    let mut exact = Exact::default();
    meter.attempt(exact.apply(&warmup));
    let metrics = engine.metrics().clone();
    let (updates0, fast0) = (
        metrics.ingest_updates.get(),
        metrics.ingest_fastpath_updates.get(),
    );

    meter.drive(cfg, size.min_units, |i, meter| {
        let batch = feed.take(size.batch);
        meter.latency_start();
        meter.time("engine.ingest", batch.len(), || {
            engine.process_batch(&batch)
        });
        meter.latency_end();
        meter.attempt(true);
        meter.end_unit(batch.len() as u64);
        if i < size.min_units {
            meter.attempt(exact.apply(&batch));
            if i % size.sample_every == size.sample_every - 1 {
                for expr in &exprs {
                    match engine.evaluate(expr) {
                        Ok(est) => {
                            let (truth, union) = exact.truth(expr);
                            meter.error_sample(est.value, truth, union);
                        }
                        Err(_) => meter.attempt(false),
                    }
                }
            }
        }
        Ok(())
    })?;

    let fastpath = ratio(
        metrics.ingest_fastpath_updates.get() - fast0,
        metrics.ingest_updates.get() - updates0,
    );
    Ok(meter.finish(
        setup_s,
        vec![Metric::new(
            "engine.ingest.fastpath_ratio",
            fastpath,
            "ratio",
        )],
    ))
}
