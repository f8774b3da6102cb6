//! Property-based soak for continuous epoch collection: N rounds of
//! arbitrary traffic through in-memory pipes over nasty links (drops,
//! corruption, duplication, reordering, truncation, delays), with one
//! site crash-and-restore mid-run, must leave the coordinator's merged
//! synopsis **bit-identical** to a single site that ingested the combined
//! traffic directly — after every round, not only at the end. Sketch linearity promises this; the epoch
//! watermarks must preserve it under every failure the link and the
//! crash can produce.
//!
//! Round count per case is tunable: `SOAK_ROUNDS=12 cargo test ...`
//! (default 5 — CI-friendly; `scripts/tier1.sh` honours the same knob).

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::SketchFamily;
use setstream_distributed::coordinator::Coordinator;
use setstream_distributed::metrics::TransportMetrics;
use setstream_distributed::network::{FaultSpec, MemoryPipe};
use setstream_distributed::site::Site;
use setstream_distributed::transport::TransportOptions;
use setstream_stream::{StreamId, Update};
use std::sync::Arc;

const SITES: usize = 2;
const STREAMS: u32 = 3;

fn soak_rounds() -> usize {
    std::env::var("SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(5)
}

#[derive(Debug, Clone)]
struct Op {
    stream: u32,
    element: u64,
    insert: bool,
}

impl Op {
    fn update(&self) -> Update {
        if self.insert {
            Update::insert(StreamId(self.stream), self.element, 1)
        } else {
            Update::delete(StreamId(self.stream), self.element, 1)
        }
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        (0..STREAMS, 0u64..400, any::<bool>()).prop_map(|(stream, element, insert)| Op {
            stream,
            element,
            insert,
        }),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn collection_under_faults_and_crash_is_bit_identical(
        seed in any::<u64>(),
        // Per round, per site, a batch of updates.
        plan in vec(vec(arb_ops(), SITES..SITES + 1), soak_rounds()..soak_rounds() + 1),
        crash_round in 0..soak_rounds(),
        crash_site in 0..SITES,
    ) {
        let fam = SketchFamily::builder()
            .copies(16)
            .second_level(8)
            .seed(2003)
            .build();
        let coord = Arc::new(Coordinator::new(fam));
        let mut mirror = Site::new(999, fam); // ground truth: sees ALL traffic
        let mut sites: Vec<Site> = (0..SITES).map(|i| Site::new(i as u32, fam)).collect();
        // In-memory attempts cost no wall time, so the budget is sized for
        // the fault spec: over a nasty link about one attempt in eight
        // completes an epoch (20 000 sampled epochs averaged 9 attempts,
        // with the tail shrinking ~e× per 8 attempts), which makes 256
        // exhaustion-proof (≈ 10⁻¹⁴ per epoch).
        let opts = TransportOptions::builder().max_attempts(256).build().unwrap();
        let transport = Arc::new(TransportMetrics::new());
        let mut pipes: Vec<MemoryPipe> = (0..SITES)
            .map(|i| {
                let seed = seed ^ (i as u64) << 32;
                MemoryPipe::new(Arc::clone(&coord), FaultSpec::nasty(), seed, opts, Arc::clone(&transport))
                    .unwrap()
            })
            .collect();
        let mut collections = 0u64;
        let mut resyncs = 0u64;

        for (round, per_site) in plan.iter().enumerate() {
            for (i, ops) in per_site.iter().enumerate() {
                for op in ops {
                    let u = op.update();
                    sites[i].observe(&u);
                    mirror.observe(&u);
                }
            }
            if round == crash_round {
                // Crash after the WAL write but before shipping: the cut's
                // frames are lost, the checkpoint survives. The next
                // collection chains over the hole → the coordinator
                // detects the gap and demands a cumulative resync.
                let cut = sites[crash_site].cut_epoch().unwrap();
                sites[crash_site] = Site::restore_from_bytes(&cut.checkpoint).unwrap();
            }
            for i in 0..SITES {
                let frames_before = transport.frames_out.get();
                let report = pipes[i]
                    .collect(&mut sites[i])
                    .expect("collection must converge on a lossy-but-alive link");
                prop_assert!(transport.frames_out.get() > frames_before);
                collections += 1;
                resyncs += u64::from(report.resyncs);
            }
            // After every round: bit-identical merged state, stream by
            // stream, counter by counter.
            for s in 0..STREAMS {
                let sid = StreamId(s);
                match (coord.merged_synopsis(sid), mirror.synopsis(sid)) {
                    (None, None) => {} // stream never touched
                    (Some(merged), Some(truth)) => {
                        for (m, t) in merged.sketches().iter().zip(truth.sketches()) {
                            prop_assert_eq!(
                                m.counters(),
                                t.counters(),
                                "round {}: stream {} diverged from centralized ground truth",
                                round,
                                s
                            );
                        }
                    }
                    (m, t) => prop_assert!(
                        false,
                        "round {}: stream {} presence mismatch: coordinator={}, truth={}",
                        round,
                        s,
                        m.is_some(),
                        t.is_some()
                    ),
                }
            }
        }

        // The observability layer must agree with the fault script: every
        // epoch committed, the transport counters agree exactly with the
        // frames the links carried, the crash forced at least one
        // cumulative resync and every resync the coordinator demanded
        // healed, wire rejections cannot exceed the corruption the links
        // actually injected, and every quarantine the corruption tripped
        // was released again (the run converged).
        prop_assert_eq!(collections, (SITES * plan.len()) as u64);
        for site in &sites {
            let status = coord.site_status(site.id()).unwrap();
            prop_assert_eq!(status.commit_epoch, site.epoch());
        }
        let offered: u64 = pipes.iter().map(|p| p.link().faults().sent).sum();
        prop_assert_eq!(transport.frames_out.get(), offered);
        prop_assert!(transport.retransmits.get() < transport.frames_out.get());
        prop_assert!(transport.backoff_sleeps.get() >= transport.timeouts.get());
        prop_assert!(resyncs >= 1, "crash must force a resync");
        let m = coord.metrics();
        prop_assert_eq!(m.resync_flags.get(), m.resyncs_healed.get());
        prop_assert!(m.frames_total() > 0);
        // A mangled frame the link also duplicates is rejected twice,
        // so the ceiling is two rejections per injected corruption or
        // truncation (both surface as typed wire errors).
        let mangled: u64 = pipes
            .iter()
            .map(|p| p.link().faults().corrupted + p.link().faults().truncated)
            .sum();
        prop_assert!(
            m.rejections_for("wire") <= 2 * mangled,
            "wire rejections {} exceed injected corruption+truncation {}",
            m.rejections_for("wire"),
            mangled
        );
        prop_assert_eq!(m.quarantines.get(), m.quarantine_releases.get());
    }
}
