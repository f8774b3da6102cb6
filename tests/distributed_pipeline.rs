//! Integration: the stored-coins distributed pipeline — sites, wire
//! frames, coordinator — agrees exactly with a centralized deployment.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setstream_core::{estimate, EstimatorOptions, SketchFamily};
use setstream_distributed::coordinator::CoordinatorError;
use setstream_distributed::network::{FaultSpec, MemoryPipe};
use setstream_distributed::wire;
use setstream_distributed::{Coordinator, Site, TransportMetrics, TransportOptions};
use setstream_engine::StreamEngine;
use setstream_stream::{StreamId, Update};
use std::sync::Arc;

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(128)
        .second_level(16)
        .seed(0xfeed)
        .build()
}

/// Generate a workload and return (per-site update batches, all updates).
fn sharded_workload(n_sites: usize, seed: u64) -> (Vec<Vec<Update>>, Vec<Update>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_site: Vec<Vec<Update>> = vec![Vec::new(); n_sites];
    let mut all = Vec::new();
    // Stream A = dense ids, stream B = overlapping shifted ids; with 25%
    // deletions routed to arbitrary sites.
    let mut live: Vec<Update> = Vec::new();
    for _ in 0..30_000 {
        let stream = StreamId(rng.gen_range(0..2));
        let e = match stream.0 {
            0 => rng.gen_range(0..8_000u64),
            _ => rng.gen_range(4_000..12_000u64),
        };
        let u = Update::insert(stream, e, 1);
        per_site[rng.gen_range(0..n_sites)].push(u);
        all.push(u);
        if rng.gen_bool(0.25) {
            live.push(Update::delete(stream, e, 1));
        }
    }
    for d in live {
        per_site[rng.gen_range(0..n_sites)].push(d);
        all.push(d);
    }
    (per_site, all)
}

#[test]
fn distributed_equals_centralized_exactly() {
    let fam = family();
    let (per_site, all) = sharded_workload(5, 11);

    // Distributed: five sites, frames, coordinator.
    let mut sites: Vec<Site> = (0..5).map(|i| Site::new(i as u32, fam)).collect();
    for (site, batch) in sites.iter_mut().zip(&per_site) {
        for u in batch {
            site.observe(u);
        }
    }
    let coord = Coordinator::new(fam);
    for site in &mut sites {
        for frame in site.cut_epoch().unwrap().frames {
            coord.ingest_frame(&frame).unwrap();
        }
    }

    // Centralized: one observer sees everything.
    let mut central_a = fam.new_vector();
    let mut central_b = fam.new_vector();
    for u in &all {
        match u.stream {
            StreamId(0) => central_a.process(u),
            _ => central_b.process(u),
        }
    }

    let opts = EstimatorOptions::default();
    let queries = ["A & B", "A - B", "A | B", "B - A"];
    for text in queries {
        let expr = text.parse().unwrap();
        let distributed = coord.query(&expr).unwrap().estimate;
        let central = estimate::expression(
            &expr,
            &[(StreamId(0), &central_a), (StreamId(1), &central_b)],
            &opts,
        )
        .unwrap();
        // Merged synopses are cell-identical to central ones, so the
        // estimates must agree bit-for-bit, not just approximately.
        assert_eq!(distributed.value, central.value, "query {text}");
        assert_eq!(
            distributed.valid_observations, central.valid_observations,
            "query {text}"
        );
    }
}

#[test]
fn frames_survive_reordering_and_duplication_is_detected_by_value() {
    // Delivery order across sites/streams must not matter.
    let fam = family();
    let (per_site, _) = sharded_workload(3, 22);
    let mut sites: Vec<Site> = (0..3).map(|i| Site::new(i as u32, fam)).collect();
    for (site, batch) in sites.iter_mut().zip(&per_site) {
        for u in batch {
            site.observe(u);
        }
    }
    let mut frames: Vec<Bytes> = Vec::new();
    for site in &mut sites {
        frames.extend(site.cut_epoch().unwrap().frames);
    }

    let forward = Coordinator::new(fam);
    for f in &frames {
        forward.ingest_frame(f).unwrap();
    }
    let backward = Coordinator::new(fam);
    for f in frames.iter().rev() {
        backward.ingest_frame(f).unwrap();
    }
    let q = "A & B".parse().unwrap();
    assert_eq!(
        forward.query(&q).unwrap().estimate.value,
        backward.query(&q).unwrap().estimate.value
    );
}

#[test]
fn corrupted_and_truncated_frames_never_reach_the_merger() {
    let fam = family();
    let mut site = Site::new(0, fam);
    for e in 0..200u64 {
        site.observe(&Update::insert(StreamId(0), e, 1));
    }
    let frames = site.cut_epoch().unwrap().frames;
    let coord = Coordinator::new(fam);

    // Bit flips across the delta frame.
    let delta = &frames[1];
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..32 {
        let mut bad = delta.to_vec();
        let i = rng.gen_range(0..bad.len());
        bad[i] ^= 1 << rng.gen_range(0..8);
        assert!(coord.ingest_frame(&Bytes::from(bad)).is_err());
    }
    // Truncations.
    for cut in [0, 5, delta.len() / 2, delta.len() - 1] {
        assert!(coord.ingest_frame(&delta.slice(..cut)).is_err());
    }
    // Nothing was merged.
    assert!(coord.streams().is_empty());
    // The pristine frame still works afterwards.
    coord.ingest_frame(delta).unwrap();
    assert_eq!(coord.streams(), vec![StreamId(0)]);
}

#[test]
fn wire_overhead_is_small() {
    // Frame overhead over the raw codec payload is exactly 13 bytes.
    let value: Vec<i64> = (0..1000).collect();
    let payload = setstream_distributed::codec::to_bytes(&value).unwrap();
    let frame = wire::encode_frame(wire::FrameKind::Synopsis, &value).unwrap();
    assert_eq!(frame.len(), payload.len() + 13);
}

#[test]
fn late_site_with_wrong_coins_is_quarantined() {
    let fam = family();
    let coord = Coordinator::new(fam);
    let mut good = {
        let mut s = Site::new(1, fam);
        s.observe(&Update::insert(StreamId(0), 7, 1));
        s
    };
    let mut bad = {
        let other = SketchFamily::builder().copies(128).second_level(16).seed(1).build();
        let mut s = Site::new(2, other);
        s.observe(&Update::insert(StreamId(0), 7, 1));
        s
    };
    for f in good.cut_epoch().unwrap().frames {
        coord.ingest_frame(&f).unwrap();
    }
    let mut rejections = 0;
    for f in bad.cut_epoch().unwrap().frames {
        if coord.ingest_frame(&f).is_err() {
            rejections += 1;
        }
    }
    assert!(rejections >= 2, "hello and delta frames must be rejected");
    assert_eq!(coord.sites(), vec![1]);
}

#[test]
fn continuous_collection_with_crash_matches_exact_engine() {
    // The acceptance scenario: multi-round epoch collection (≥3
    // epochs) over a nasty link, with one site crashing mid-run and
    // restoring from its write-ahead checkpoint. The coordinator's
    // answers must be bit-identical to a single exact engine that
    // processed the combined traffic — zero double-counts — and a
    // replayed (duplicate / out-of-order) epoch must be a typed
    // rejection, not a silent merge.
    let fam = family();
    let (per_site, all) = sharded_workload(3, 33);
    let n_rounds = 4;

    // Ground truth: one engine sees every update, in order.
    let mut engine = StreamEngine::new(fam);
    for u in &all {
        engine.process(u);
    }

    let coord = Arc::new(Coordinator::new(fam));
    let mut sites: Vec<Site> = (0..3).map(|i| Site::new(i as u32, fam)).collect();
    // In-memory attempts cost no wall time: about one nasty-link attempt
    // in eight completes an epoch, and 256 attempts never run out.
    let opts = TransportOptions::builder()
        .max_attempts(256)
        .build()
        .unwrap();
    let metrics = Arc::new(TransportMetrics::new());
    let mut pipes: Vec<MemoryPipe> = (0..3)
        .map(|i| {
            let seed = 0xacce55 + i as u64;
            MemoryPipe::new(
                Arc::clone(&coord),
                FaultSpec::nasty(),
                seed,
                opts,
                Arc::clone(&metrics),
            )
            .unwrap()
        })
        .collect();

    for round in 0..n_rounds {
        // Each site observes its slice of this round's traffic.
        for (i, batch) in per_site.iter().enumerate() {
            let chunk = batch.len() / n_rounds;
            let lo = round * chunk;
            let hi = if round == n_rounds - 1 { batch.len() } else { lo + chunk };
            for u in &batch[lo..hi] {
                sites[i].observe(u);
            }
        }
        // Site 1 crashes after cutting (WAL durable, frames lost) in
        // round 1 and restores from its checkpoint.
        if round == 1 {
            let cut = sites[1].cut_epoch().unwrap();
            sites[1] = Site::restore_from_bytes(&cut.checkpoint).unwrap();
            assert!(sites[1].recovering());
        }
        for i in 0..3 {
            let report = pipes[i].collect(&mut sites[i]).unwrap();
            assert_eq!(report.epoch, sites[i].epoch());
        }
        // The coordinator answers mid-collection — graceful degradation
        // means queries never block on laggards.
        let ann = coord
            .query(&"A | B".parse().unwrap())
            .unwrap();
        assert!(ann.estimate.value.is_finite());
        assert_eq!(ann.health.sites, 3);
    }
    assert!(sites.iter().all(|s| s.epoch() >= 3), "at least 3 epochs each");

    // Bit-identical answers to the exact engine, query by query.
    let opts_est = EstimatorOptions::default();
    for text in ["A & B", "A - B", "A | B", "B - A"] {
        let expr = text.parse().unwrap();
        let distributed = coord.query(&expr).unwrap().estimate;
        let central = estimate::expression(
            &expr,
            &[
                (StreamId(0), engine.synopsis(StreamId(0)).unwrap()),
                (StreamId(1), engine.synopsis(StreamId(1)).unwrap()),
            ],
            &opts_est,
        )
        .unwrap();
        assert_eq!(distributed.value, central.value, "query {text}");
    }

    // Replaying an already-applied epoch is a typed rejection and leaves
    // the merged state untouched. Cut one more epoch with fresh traffic
    // so the batch contains a real delta frame (frames[1]).
    sites[0].observe(&Update::insert(StreamId(0), 999_999, 1));
    engine.process(&Update::insert(StreamId(0), 999_999, 1));
    let extra = sites[0].cut_epoch().unwrap();
    for f in &extra.frames {
        coord.ingest_frame(f).unwrap();
    }
    let before = coord.merged_synopsis(StreamId(0)).unwrap();
    let delta_frame = &extra.frames[1];
    match coord.ingest_frame(delta_frame) {
        Err(CoordinatorError::StaleEpoch { .. }) => {}
        other => panic!("expected StaleEpoch on replay, got {other:?}"),
    }
    let after = coord.merged_synopsis(StreamId(0)).unwrap();
    for (a, b) in after.sketches().iter().zip(before.sketches()) {
        assert_eq!(a.counters(), b.counters(), "replay must not merge");
    }
    // Still in lockstep with the exact engine after the extra epoch.
    assert_eq!(
        coord.query(&"A".parse().unwrap()).unwrap().estimate.value,
        estimate::expression(
            &"A".parse().unwrap(),
            &[(StreamId(0), engine.synopsis(StreamId(0)).unwrap())],
            &opts_est,
        )
        .unwrap()
        .value
    );
}
