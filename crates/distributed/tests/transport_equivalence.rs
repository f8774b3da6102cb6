//! One collection protocol, two transports: the same sites, seed and
//! fault script run once through in-memory pipes and once through
//! `FaultyListener` proxies into a `CoordinatorServer` over loopback TCP.
//! Both runs must commit identical lineage and cell-identical merged
//! synopses, because both drive the same `CollectionSession` into the
//! same `CoordinatorHandler` through the same per-connection `LossyLink`s.
//!
//! The script uses drops, duplicates, corruption and a partition window.
//! Reorder and delay stay out: over TCP they act per proxy read chunk,
//! which depends on timing. The read timeout sits far above loopback
//! round-trip time, so only scripted losses time out.
//!
//! `SETSTREAM_FAULT_SEED` replays a schedule (the seed is echoed on
//! failure).

use setstream_core::SketchFamily;
use setstream_distributed::coordinator::Coordinator;
use setstream_distributed::metrics::TransportMetrics;
use setstream_distributed::network::{fault_seed, FaultSpec, MemoryPipe, SeedEcho};
use setstream_distributed::session::{CollectionReport, Collector, Link};
use setstream_distributed::site::Site;
use setstream_distributed::transport::{
    CoordinatorServer, FaultyListener, ServerRole, TcpCollector, TransportError, TransportOptions,
};
use setstream_stream::{StreamId, Update};
use std::sync::Arc;
use std::time::Duration;

const SITES: u32 = 3;
const ROUNDS: u64 = 4;
/// Crashes after cutting (but before shipping) its round-2 epoch and
/// restores from the sealed checkpoint, so both runs resync it.
const CRASH_SITE: u32 = 1;

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(8)
        .second_level(4)
        .seed(0xe9)
        .build()
}

fn script() -> FaultSpec {
    FaultSpec {
        drop: 0.06,
        duplicate: 0.1,
        corrupt: 0.05,
        partition_every: 29,
        partition_for: 3,
        ..FaultSpec::reliable()
    }
}

fn opts() -> TransportOptions {
    TransportOptions::builder()
        .io_timeout(Duration::from_millis(1500))
        .backoff(Duration::from_millis(1))
        .max_attempts(64)
        .build()
        .unwrap()
}

/// Site `site`'s link seed under run seed `seed`.
fn link_seed(seed: u64, site: u32) -> u64 {
    seed.wrapping_add(u64::from(site) * 1000)
}

/// Drive every site for `ROUNDS` epochs through its collector, crashing
/// `CRASH_SITE` once.
fn run<L: Link>(fam: SketchFamily, collectors: &mut [Collector<L>]) -> u32 {
    let mut sites: Vec<Site> = (0..SITES).map(|id| Site::new(id, fam)).collect();
    let mut resyncs = 0;
    for round in 0..ROUNDS {
        for (site, collector) in sites.iter_mut().zip(collectors.iter_mut()) {
            for j in 0..40u64 {
                let element = u64::from(site.id()) * 100_000 + round * 1000 + j;
                let update = if j % 7 == 6 {
                    Update::delete(StreamId((j % 2) as u32), element - 1, 1)
                } else {
                    Update::insert(StreamId((j % 2) as u32), element, 1)
                };
                site.observe(&update);
            }
            if round == 2 && site.id() == CRASH_SITE {
                let cut = site.cut_epoch().unwrap();
                *site = Site::restore_from_bytes(&cut.checkpoint).unwrap();
            }
            let report: CollectionReport = collector.collect(site).unwrap();
            resyncs += report.resyncs;
        }
    }
    resyncs
}

fn through_pipes(seed: u64) -> (Arc<Coordinator>, u32) {
    let fam = family();
    let coord = Arc::new(Coordinator::new(fam));
    let metrics = Arc::new(TransportMetrics::new());
    let mut pipes: Vec<MemoryPipe> = (0..SITES)
        .map(|id| {
            MemoryPipe::new(
                Arc::clone(&coord),
                script(),
                link_seed(seed, id),
                opts(),
                Arc::clone(&metrics),
            )
            .unwrap()
        })
        .collect();
    let resyncs = run(fam, &mut pipes);
    (coord, resyncs)
}

fn through_tcp(seed: u64) -> (Arc<Coordinator>, u32) {
    let fam = family();
    let coord = Arc::new(Coordinator::new(fam));
    let metrics = Arc::new(TransportMetrics::new());
    let mut server = CoordinatorServer::spawn(
        "127.0.0.1:0",
        Arc::clone(&coord),
        ServerRole::Coordinator,
        opts(),
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut proxies: Vec<FaultyListener> = (0..SITES)
        .map(|id| FaultyListener::spawn(server.addr(), script(), link_seed(seed, id)).unwrap())
        .collect();
    let mut collectors: Vec<TcpCollector> = proxies
        .iter()
        .map(|p| TcpCollector::new(p.addr(), opts(), Arc::clone(&metrics)))
        .collect();
    let resyncs = run(fam, &mut collectors);
    drop(collectors);
    for proxy in proxies.iter_mut() {
        proxy.shutdown();
    }
    server.shutdown();
    (coord, resyncs)
}

/// Every lineage field except the trace id and the two wall clocks.
fn lineage(coord: &Coordinator) -> Vec<String> {
    coord
        .lineage()
        .snapshot()
        .into_iter()
        .map(|e| {
            format!(
                "stream={} epoch={} sites={:?} fanin={} retransmits={} retransmit_sites={:?} \
                 resyncs={} credit_stalls={} committed={}",
                e.stream,
                e.epoch,
                e.sites,
                e.fanin,
                e.retransmits,
                e.retransmit_sites,
                e.resyncs,
                e.credit_stalls,
                e.is_committed()
            )
        })
        .collect()
}

#[test]
fn pipe_and_tcp_commit_identical_lineage_and_cells() {
    let base = fault_seed(0xe9_0001);
    for seed in base..base + 3 {
        let _echo = SeedEcho::new(seed);
        let (pipe, pipe_resyncs) = through_pipes(seed);
        let (tcp, tcp_resyncs) = through_tcp(seed);

        assert!(pipe_resyncs >= 1, "the crash must resync");
        assert_eq!(pipe_resyncs, tcp_resyncs, "seed {seed}: resyncs");
        assert_eq!(lineage(&pipe), lineage(&tcp), "seed {seed}: lineage");
        assert!(
            pipe.metrics().rejections_for("wire") > 0
                || pipe.metrics().rejections_for("stale_epoch") > 0,
            "seed {seed}: the script never bit"
        );
        for stream in [StreamId(0), StreamId(1)] {
            let a = pipe.merged_synopsis(stream).unwrap();
            let b = tcp.merged_synopsis(stream).unwrap();
            for (x, y) in a.sketches().iter().zip(b.sketches()) {
                assert_eq!(x.counters(), y.counters(), "seed {seed}: stream {stream}");
            }
        }
    }
}

/// A site whose stored coins differ is refused after one attempt on
/// either transport — also for an epoch with no deltas, whose `Commit`
/// applies while its `Hello` is refused.
#[test]
fn coin_mismatch_is_a_typed_refusal_after_one_attempt_on_both_transports() {
    let fam = family();
    let wrong = SketchFamily::builder()
        .copies(8)
        .second_level(4)
        .seed(0xbad)
        .build();
    let busy = || {
        let mut site = Site::new(7, wrong);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site
    };
    let idle = || Site::new(8, wrong);

    for (mut site, frames) in [(busy(), 3), (idle(), 2)] {
        let id = site.id();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let mut pipe = MemoryPipe::new(
            coord,
            FaultSpec::reliable(),
            1,
            opts(),
            Arc::clone(&metrics),
        )
        .unwrap();
        match pipe.collect(&mut site) {
            Err(TransportError::Refused { site, epoch: 1 }) => assert_eq!(site, id),
            other => panic!("pipe: expected Refused, got {other:?}"),
        }
        assert_eq!(pipe.link().faults().sent, frames, "pipe: one attempt");
        assert_eq!(metrics.retransmits.get(), 0);
    }

    for (mut site, frames) in [(busy(), 3), (idle(), 2)] {
        let id = site.id();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let mut server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            coord,
            ServerRole::Coordinator,
            opts(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let client_metrics = Arc::new(TransportMetrics::new());
        let mut collector = TcpCollector::new(server.addr(), opts(), Arc::clone(&client_metrics));
        match collector.collect(&mut site) {
            Err(TransportError::Refused { site, epoch: 1 }) => assert_eq!(site, id),
            other => panic!("tcp: expected Refused, got {other:?}"),
        }
        assert_eq!(client_metrics.frames_out.get(), frames, "tcp: one attempt");
        assert_eq!(client_metrics.retransmits.get(), 0);
        server.shutdown();
    }
}
