//! `query_mix`: ad-hoc estimates interleaved with writes on the same
//! synopses (r = 256, s = 32, 8 preloaded Venn streams). Each unit is 19
//! `StreamEngine::evaluate` calls drawn from a pool of 400 random
//! expressions (2–5 operators, no sharing between them), then one
//! 512-update `process_batch`.
//!
//! Estimator reads take most of the busy time, with writes beside them,
//! so a layout change that speeds one side and slows the other shows
//! here.

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
    pool: usize,
    batch: usize,
    min_units: u64,
}

const FULL: Size = Size {
    copies: 256,
    second_level: 32,
    union: 1 << 13,
    pool: 400,
    batch: 512,
    min_units: 150,
};

const SMOKE: Size = Size {
    copies: 8,
    second_level: 8,
    union: 1 << 8,
    pool: 20,
    batch: 32,
    min_units: 6,
};

const QUERIES_PER_UNIT: usize = 19;
/// Answers per unit checked against exact replay (the first ones).
const SAMPLED_PER_UNIT: usize = 4;
const STREAMS: usize = 8;

pub fn run(cfg: &Config) -> Result<Report, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut fixed = data::dataset_rng(2);
    let streams = data::venn_streams(
        STREAMS,
        size.union,
        &UpdateBuilder::with_churn(),
        &mut fixed,
    );
    let pool: Vec<SetExpr> = data::random_exprs(size.pool, STREAMS as u32, &mut fixed);
    let family = SketchFamily::builder()
        .copies(size.copies)
        .second_level(size.second_level)
        .seed(fixed.gen())
        .build();
    let mut rng = data::rng(cfg.seed, 2);
    let mut feed = Feed::new(data::arrivals(&streams, &mut rng));

    // Preload one full pass of the streams, then run one untimed unit;
    // the measured units replay the pass again.
    let preload = feed.take(feed.pass_len());
    let warm_queries: Vec<&SetExpr> = (0..QUERIES_PER_UNIT)
        .map(|_| &pool[rng.gen_range(0..pool.len())])
        .collect();
    let warm_batch = feed.take(size.batch);
    let (mut engine, setup_s) = harness::setup(|| {
        let mut engine = StreamEngine::new(family);
        engine.process_batch(&preload);
        for &expr in &warm_queries {
            engine
                .evaluate(expr)
                .map_err(|e| format!("warm-up query: {e}"))?;
        }
        engine.process_batch(&warm_batch);
        Ok(engine)
    })?;

    let mut meter = Meter::new(cfg.trace);
    let mut exact = Exact::default();
    meter.attempt(exact.apply(&preload) && exact.apply(&warm_batch));
    let metrics = engine.metrics().clone();
    let (updates0, fast0) = (
        metrics.ingest_updates.get(),
        metrics.ingest_fastpath_updates.get(),
    );

    meter.drive(cfg, size.min_units, |i, meter| {
        for k in 0..QUERIES_PER_UNIT {
            let expr = &pool[rng.gen_range(0..pool.len())];
            meter.latency_start();
            let result = meter.time("engine.evaluate", 0, || engine.evaluate(expr));
            meter.latency_end();
            meter.attempt(result.is_ok());
            if let (Ok(est), true) = (result, k < SAMPLED_PER_UNIT && i < size.min_units) {
                let (truth, union) = exact.truth(expr);
                meter.error_sample(est.value, truth, union);
            }
        }
        let batch = feed.take(size.batch);
        meter.latency_start();
        meter.time("engine.ingest", batch.len(), || {
            engine.process_batch(&batch)
        });
        meter.latency_end();
        meter.attempt(true);
        meter.end_unit(QUERIES_PER_UNIT as u64);
        if i < size.min_units {
            meter.attempt(exact.apply(&batch));
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
