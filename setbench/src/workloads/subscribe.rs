//! `subscribe`: standing queries over 16 streams (r = 128, s = 32). 240
//! subscriptions share 60 distinct random expressions with a 2% relative
//! tolerance. Each unit writes 1024 updates to two Zipf-hot streams and
//! publishes an epoch; the result is the epoch's `ChangeEvent`s.
//!
//! This exercises expression interning, dirty-stream taint and
//! incremental re-estimation while most roots stay clean: estimator
//! speed-ups move this and `query_mix`, DAG changes move only this.

use crate::data::{self, Exact, Feed};
use crate::harness::{self, ratio, Config, Meter, Metric, Report};
use rand::rngs::StdRng;
use rand::Rng;
use setstream_core::SketchFamily;
use setstream_engine::{ChangeEvent, StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::gen::{UpdateBuilder, ZipfSampler};
use setstream_stream::Update;
use std::collections::BTreeMap;

struct Size {
    copies: usize,
    second_level: u32,
    union: usize,
    distinct: usize,
    per_expr: usize,
    /// Updates per stream per unit (two streams per unit).
    half_round: usize,
    check_every: u64,
    min_units: u64,
}

const FULL: Size = Size {
    copies: 128,
    second_level: 32,
    union: 1 << 13,
    distinct: 60,
    per_expr: 4,
    half_round: 512,
    check_every: 100,
    min_units: 600,
};

const SMOKE: Size = Size {
    copies: 8,
    second_level: 8,
    union: 1 << 8,
    distinct: 6,
    per_expr: 2,
    half_round: 16,
    check_every: 4,
    min_units: 8,
};

const STREAMS: usize = 16;
/// Zipf skew over streams when picking the two written each unit.
const HOT_SKEW: f64 = 1.0;

/// The writer: per-stream feeds and the stream-popularity draw.
struct Writer {
    feeds: Vec<Feed>,
    zipf: ZipfSampler,
    rng: StdRng,
}

impl Writer {
    fn round(&mut self, half: usize) -> Vec<Update> {
        let mut out = Vec::with_capacity(2 * half);
        for _ in 0..2 {
            let stream = self.zipf.sample(&mut self.rng) as usize;
            out.extend(self.feeds[stream].take(half));
        }
        out
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut fixed = data::dataset_rng(3);
    let streams = data::venn_streams(
        STREAMS,
        size.union,
        &UpdateBuilder::with_churn(),
        &mut fixed,
    );
    let exprs: Vec<SetExpr> = data::random_exprs(size.distinct, STREAMS as u32, &mut fixed);
    let family = SketchFamily::builder()
        .copies(size.copies)
        .second_level(size.second_level)
        .seed(fixed.gen())
        .build();
    let mut rng = data::rng(cfg.seed, 3);
    let preload = data::arrivals(&streams, &mut rng);
    let options = SubscriptionOptions::builder()
        .tolerance(Tolerance::Relative(0.02))
        .build()
        .map_err(|e| e.to_string())?;
    // A pass of every stream is preloaded; units replay the passes again.
    let mut writer = Writer {
        feeds: streams.into_iter().map(Feed::new).collect(),
        zipf: ZipfSampler::new(STREAMS, HOT_SKEW),
        rng,
    };

    let warmup = writer.round(size.half_round);
    let (mut engine, setup_s) = harness::setup(|| {
        let mut engine = StreamEngine::new(family);
        engine.process_batch(&preload);
        for i in 0..size.distinct * size.per_expr {
            engine
                .subscribe(exprs[i % size.distinct].clone(), options)
                .map_err(|e| e.to_string())?;
        }
        engine.publish_epoch();
        engine.process_batch(&warmup);
        engine.publish_epoch();
        Ok(engine)
    })?;

    let mut meter = Meter::new(cfg.trace);
    let mut exact = Exact::default();
    meter.attempt(exact.apply(&preload) && exact.apply(&warmup));
    let subs = engine.subscription_metrics().clone();
    let metrics = engine.metrics().clone();
    let start = (
        subs.rounds.get(),
        subs.nodes_evaluated.get(),
        subs.nodes_cached.get(),
        subs.notifications.get(),
        metrics.ingest_updates.get(),
        metrics.ingest_fastpath_updates.get(),
    );

    meter.drive(cfg, size.min_units, |i, meter| {
        let round = writer.round(size.half_round);
        meter.latency_start();
        meter.time("engine.ingest", round.len(), || {
            engine.process_batch(&round)
        });
        let events = meter.time("engine.publish", 0, || engine.publish_epoch());
        meter.latency_end();
        meter.attempt(true);
        meter.end_unit(round.len() as u64);
        if i < size.min_units {
            meter.attempt(exact.apply(&round));
        }
        if i % size.check_every == 0 {
            check_cache(&engine, &events, meter);
            if i < size.min_units {
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

    let rounds = subs.rounds.get() - start.0;
    let evaluated = subs.nodes_evaluated.get() - start.1;
    let cached = subs.nodes_cached.get() - start.2;
    let counters = vec![
        Metric::new(
            "engine.ingest.fastpath_ratio",
            ratio(
                metrics.ingest_fastpath_updates.get() - start.5,
                metrics.ingest_updates.get() - start.4,
            ),
            "ratio",
        ),
        Metric::new(
            "engine.publish.nodes_per_round",
            ratio(evaluated, rounds),
            "count",
        ),
        Metric::new(
            "engine.publish.cache_hit_ratio",
            ratio(cached, evaluated + cached),
            "ratio",
        ),
        Metric::new(
            "engine.publish.events_per_round",
            ratio(subs.notifications.get() - start.3, rounds),
            "count",
        ),
    ];
    Ok(meter.finish(setup_s, counters))
}

/// Every subscription's cached value must be bit-identical to a fresh
/// `evaluate`: a subscription notified this epoch carries the cached
/// value in its event; one that stayed quiet must still sit inside its
/// tolerance band around the value it was last notified of.
fn check_cache(engine: &StreamEngine, events: &[ChangeEvent], meter: &mut Meter) {
    let notified: BTreeMap<_, f64> = events.iter().map(|e| (e.sub_id, e.new)).collect();
    for sub in engine.subscriptions() {
        let fresh = engine.evaluate(sub.expr());
        let ok = match (fresh, notified.get(&sub.id())) {
            (Ok(est), Some(new)) => est.value.to_bits() == new.to_bits(),
            (Ok(est), None) => sub
                .last_notified()
                .is_some_and(|last| !sub.options().tolerance().exceeded(last, est.value)),
            (Err(_), notified) => notified.is_none(),
        };
        meter.attempt(ok);
    }
}
