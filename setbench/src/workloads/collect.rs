//! `collect`: continuous collection over loopback TCP. Four `Site`s with
//! two streams each (r = 64, s = 8, the `setstream site` defaults) share
//! two `TcpCollector` connections to a `RelayNode`, whose upstream
//! connection feeds the root `CoordinatorServer`. Each unit is one epoch:
//! every site observes 1000 updates, then each cuts and ships its epoch,
//! the relay flushes upstream, and the root answers `A | B`, `A & B` and
//! `A - B`.
//!
//! Nearly all busy time is delta cut, checkpoint seal, frame encode,
//! socket, relay merge and coordinator apply; site ingest is a few
//! percent. Wire and delta changes show here and nowhere else.

use crate::data::{self, Exact, Feed};
use crate::harness::{self, ratio, Config, Meter, Metric, Report};
use rand::Rng;
use setstream_core::SketchFamily;
use setstream_distributed::transport::{ServerHandle, TransportError};
use setstream_distributed::{
    Coordinator, CoordinatorServer, RelayNode, ServerRole, Site, TcpCollector, TransportMetrics,
    TransportOptions,
};
use setstream_engine::StreamEngine;
use setstream_expr::SetExpr;
use setstream_stream::gen::UpdateBuilder;
use setstream_stream::{StreamId, Update};
use std::sync::Arc;

struct Size {
    copies: usize,
    second_level: u32,
    /// Union size of each site's own two-stream Venn dataset.
    union: usize,
    epoch_updates: usize,
    check_every: u64,
    sample_every: u64,
    min_units: u64,
}

const FULL: Size = Size {
    copies: 64,
    second_level: 8,
    union: 1 << 14,
    epoch_updates: 1000,
    check_every: 16,
    sample_every: 4,
    min_units: 100,
};

const SMOKE: Size = Size {
    copies: 4,
    second_level: 4,
    union: 1 << 8,
    epoch_updates: 64,
    check_every: 4,
    sample_every: 2,
    min_units: 6,
};

const SITES: usize = 4;
/// Load-side connections; sites are multiplexed over them.
const CONNECTIONS: usize = 2;
const RELAY_ID: u32 = 1000;
const QUERIES: [&str; 3] = ["A | B", "A & B", "A - B"];
const STREAMS: [StreamId; 2] = [StreamId(0), StreamId(1)];

/// The running deployment. Field order is drop order: clients first,
/// then the relay, then the root server.
struct Pipeline {
    sites: Vec<Site>,
    collectors: Vec<TcpCollector>,
    relay: RelayNode,
    root: Arc<Coordinator>,
    _root_server: ServerHandle,
    /// Transport counters per hop: site → relay, relay (both sides),
    /// root server.
    hops: [Arc<TransportMetrics>; 3],
    frame_bytes: u64,
    checkpoint_bytes: u64,
    cuts: u64,
}

impl Pipeline {
    fn start(family: SketchFamily) -> Result<Pipeline, String> {
        let opts = TransportOptions::default();
        let hops = [(); 3].map(|_| Arc::new(TransportMetrics::new()));
        let root = Arc::new(Coordinator::new(family));
        let root_server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&root),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&hops[2]),
        )
        .map_err(|e| format!("root server: {e}"))?;
        let relay = RelayNode::spawn(
            "127.0.0.1:0",
            root_server.addr(),
            RELAY_ID,
            family,
            opts,
            Arc::clone(&hops[1]),
        )
        .map_err(|e| format!("relay: {e}"))?;
        let collectors = (0..CONNECTIONS)
            .map(|_| TcpCollector::new(relay.addr(), opts, Arc::clone(&hops[0])))
            .collect();
        Ok(Pipeline {
            sites: (1..=SITES as u32).map(|id| Site::new(id, family)).collect(),
            collectors,
            relay,
            root,
            _root_server: root_server,
            hops,
            frame_bytes: 0,
            checkpoint_bytes: 0,
            cuts: 0,
        })
    }

    /// One epoch; `batches` holds each site's updates. Returns the root's
    /// answers to [`QUERIES`] (`None` where a query failed).
    fn epoch(
        &mut self,
        batches: &[Vec<Update>],
        queries: &[SetExpr],
        meter: &mut Meter,
    ) -> Result<Vec<Option<f64>>, String> {
        for (site, batch) in self.sites.iter_mut().zip(batches) {
            meter.time("site.observe", batch.len(), || site.observe_batch(batch));
        }
        meter.latency_start();
        for (k, site) in self.sites.iter_mut().enumerate() {
            let cut = meter
                .time("site.cut", 0, || site.cut_epoch())
                .map_err(|e| format!("site {} cut: {e}", site.id()))?;
            self.cuts += 1;
            self.frame_bytes += cut.frames.iter().map(|f| f.len() as u64).sum::<u64>();
            self.checkpoint_bytes += cut.checkpoint.len() as u64;
            let collector = &mut self.collectors[k % CONNECTIONS];
            let shipped = meter.time("transport.ship", 0, || {
                collector.ship(cut.epoch, cut.frames)?;
                collector.flush()
            });
            match shipped {
                Ok(()) => meter.attempt(true),
                Err(TransportError::ResyncRequired) => {
                    meter.attempt(false);
                    let frames = site.resync_frames().map_err(|e| e.to_string())?;
                    collector
                        .ship(site.epoch(), frames)
                        .and_then(|()| collector.flush())
                        .map_err(|e| format!("site {} resync: {e}", site.id()))?;
                }
                Err(e) => return Err(format!("site {} ship: {e}", site.id())),
            }
        }
        let flushed = meter.time("relay.flush", 0, || self.relay.flush_upstream());
        flushed.map_err(|e| format!("relay flush: {e}"))?;
        meter.attempt(true);
        let mut answers = Vec::with_capacity(queries.len());
        for expr in queries {
            let answer = meter.time("coordinator.query", 0, || self.root.query(expr));
            meter.attempt(answer.is_ok());
            answers.push(answer.ok().map(|a| a.estimate.value));
        }
        meter.latency_end();
        Ok(answers)
    }

    /// Is the root's merged state cell-identical to `reference`?
    fn matches(&self, reference: &StreamEngine) -> bool {
        STREAMS.iter().all(|&stream| {
            match (
                self.root.merged_synopsis(stream),
                reference.synopsis(stream),
            ) {
                (Some(merged), Some(central)) => merged
                    .sketches()
                    .iter()
                    .zip(central.sketches())
                    .all(|(m, c)| m.counters() == c.counters()),
                _ => false,
            }
        })
    }

    fn totals(&self) -> Totals {
        let coordinators = [&self.root, self.relay.coordinator()];
        let sum = |f: fn(&TransportMetrics) -> u64| self.hops.iter().map(|h| f(h)).sum();
        Totals {
            hop_bytes: self.hops.each_ref().map(|h| h.bytes_out.get()),
            site_frames: self.hops[0].frames_out.get(),
            retransmits: self.hops[0].retransmits.get(),
            stalls: sum(|h| h.backpressure_stalls.get()),
            timeouts: sum(|h| h.timeouts.get()),
            merges: self.hops[1].relay_merges.get(),
            rejections: coordinators
                .iter()
                .map(|c| c.metrics().rejections_total())
                .sum(),
            resyncs: coordinators
                .iter()
                .map(|c| c.metrics().resync_flags.get())
                .sum(),
            frame_bytes: self.frame_bytes,
            checkpoint_bytes: self.checkpoint_bytes,
            cuts: self.cuts,
        }
    }
}

/// Counter readings; the run reports the change across the measured loop.
struct Totals {
    hop_bytes: [u64; 3],
    site_frames: u64,
    retransmits: u64,
    stalls: u64,
    timeouts: u64,
    merges: u64,
    rejections: u64,
    resyncs: u64,
    frame_bytes: u64,
    checkpoint_bytes: u64,
    cuts: u64,
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut fixed = data::dataset_rng(4);
    let mut rng = data::rng(cfg.seed, 4);
    // Each site has its own elements; a site only deletes copies it
    // inserted itself, so the sum over sites stays a legal stream.
    let mut feeds: Vec<Feed> = (0..SITES)
        .map(|_| {
            let streams =
                data::venn_streams(2, size.union, &UpdateBuilder::with_churn(), &mut fixed);
            Feed::new(data::arrivals(&streams, &mut rng))
        })
        .collect();
    let family = SketchFamily::builder()
        .copies(size.copies)
        .second_level(size.second_level)
        .seed(fixed.gen())
        .build();
    let queries: Vec<SetExpr> = QUERIES
        .iter()
        .map(|t| t.parse().map_err(|e| format!("{t}: {e}")))
        .collect::<Result<_, _>>()?;
    let take = |feeds: &mut [Feed]| -> Vec<Vec<Update>> {
        feeds
            .iter_mut()
            .map(|f| f.take(size.epoch_updates))
            .collect()
    };

    // The warm-up epoch ships every stream's full synopsis.
    let warmup = take(&mut feeds);
    let (mut pipeline, setup_s) = harness::setup(|| {
        let mut pipeline = Pipeline::start(family)?;
        let mut untimed = Meter::new(false);
        let answers = pipeline.epoch(&warmup, &queries, &mut untimed)?;
        if answers.iter().any(Option::is_none) {
            return Err("warm-up query failed".to_string());
        }
        Ok(pipeline)
    })?;

    let mut meter = Meter::new(cfg.trace);
    let mut reference = StreamEngine::new(family);
    let mut exact = Exact::default();
    for batch in &warmup {
        reference.process_batch(batch);
        meter.attempt(exact.apply(batch));
    }
    if cfg.sabotage {
        reference.process(&Update::insert(StreamId(0), 1, 1));
    }
    let before = pipeline.totals();

    let units = meter.drive(cfg, size.min_units, |i, meter| {
        let batches = take(&mut feeds);
        let answers = pipeline.epoch(&batches, &queries, meter)?;
        meter.end_unit((SITES * size.epoch_updates) as u64);
        for batch in &batches {
            reference.process_batch(batch);
        }
        if i < size.min_units {
            for batch in &batches {
                meter.attempt(exact.apply(batch));
            }
            if i % size.sample_every == size.sample_every - 1 {
                for (expr, answer) in queries.iter().zip(&answers) {
                    let (truth, union) = exact.truth(expr);
                    meter.error_sample(answer.unwrap_or(f64::NAN), truth, union);
                }
            }
        }
        if i % size.check_every == size.check_every - 1 {
            meter.attempt(pipeline.matches(&reference));
        }
        Ok(())
    })?;
    meter.attempt(pipeline.matches(&reference));

    let after = pipeline.totals();
    let updates = units * (SITES * size.epoch_updates) as u64;
    let cuts = after.cuts - before.cuts;
    let hop = |i: usize| after.hop_bytes[i] - before.hop_bytes[i];
    let site_frames = after.site_frames - before.site_frames;
    let counters = vec![
        Metric::new(
            "site.cut.frame_bytes_per_cut",
            ratio(after.frame_bytes - before.frame_bytes, cuts),
            "bytes",
        ),
        Metric::new(
            "site.cut.checkpoint_bytes_per_cut",
            ratio(after.checkpoint_bytes - before.checkpoint_bytes, cuts),
            "bytes",
        ),
        Metric::new(
            "transport.ship.bytes_per_update",
            ratio(hop(0), updates),
            "bytes",
        ),
        Metric::new(
            "transport.ship.frames_per_epoch",
            ratio(site_frames, units),
            "count",
        ),
        Metric::new(
            "transport.ship.retransmit_ratio",
            ratio(after.retransmits - before.retransmits, site_frames),
            "ratio",
        ),
        Metric::new(
            "transport.ship.backpressure_stalls",
            (after.stalls - before.stalls) as f64,
            "count",
        ),
        Metric::new(
            "transport.ship.timeouts",
            (after.timeouts - before.timeouts) as f64,
            "count",
        ),
        Metric::new(
            "relay.flush.bytes_per_update",
            ratio(hop(1), updates),
            "bytes",
        ),
        Metric::new(
            "relay.flush.merges_per_epoch",
            ratio(after.merges - before.merges, units),
            "count",
        ),
        Metric::new(
            "coordinator.rejections",
            (after.rejections - before.rejections) as f64,
            "count",
        ),
        Metric::new(
            "coordinator.resyncs",
            (after.resyncs - before.resyncs) as f64,
            "count",
        ),
        Metric::new(
            "wire_bytes_per_update",
            ratio(hop(0) + hop(1) + hop(2), updates),
            "bytes",
        ),
    ];
    Ok(meter.finish(setup_s, counters))
}
