//! Subscriptions on committed state: sites collect through in-memory
//! pipes over nasty links into a coordinator whose engine holds a drift
//! subscription and a threshold alarm. After every round, the
//! coordinator's notifications must equal — ids, causes and value bits —
//! those of a central engine fed the same updates through
//! `process_batch`. Faults may delay a commit within a round, never
//! change what the round publishes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setstream_core::SketchFamily;
use setstream_distributed::network::{FaultSpec, MemoryPipe};
use setstream_distributed::{Coordinator, Site, TransportMetrics, TransportOptions};
use setstream_engine::{ChangeCause, ChangeEvent, StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};
use std::sync::Arc;

const SITES: usize = 3;
const ROUNDS: usize = 8;

/// Everything a subscriber can observe about one notification.
fn observed(events: &[ChangeEvent]) -> Vec<(u64, ChangeCause, Option<u64>, u64, u64)> {
    events
        .iter()
        .map(|e| (e.sub_id.value(), e.cause, e.old.map(f64::to_bits), e.new.to_bits(), e.epoch))
        .collect()
}

/// One round's updates per site: growth for the first half of the run,
/// then each site deletes much of what it inserted, so the alarm trips
/// and releases.
fn round_batches(rng: &mut StdRng, round: usize, inserted: &mut [Vec<Update>]) -> Vec<Vec<Update>> {
    (0..SITES)
        .map(|site| {
            let mut batch = Vec::new();
            for _ in 0..80 {
                let shrinking = round >= ROUNDS / 2;
                if shrinking && !inserted[site].is_empty() && rng.gen_bool(0.95) {
                    let k = rng.gen_range(0..inserted[site].len());
                    let u = inserted[site].swap_remove(k);
                    batch.push(Update::delete(u.stream, u.element, 1));
                } else {
                    let stream = StreamId(rng.gen_range(0..2));
                    let u = Update::insert(stream, rng.gen_range(0..300u64), 1);
                    inserted[site].push(u);
                    batch.push(u);
                }
            }
            batch
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn committed_notifications_equal_a_central_engine(seed in any::<u64>()) {
        let fam = SketchFamily::builder().copies(64).second_level(8).seed(2003).build();
        let coord = Arc::new(Coordinator::new(fam));
        let mut central = StreamEngine::new(fam);
        let drift = SubscriptionOptions::builder()
            .tolerance(Tolerance::Relative(0.05))
            .build()
            .unwrap();
        let alarm = SubscriptionOptions::builder()
            .tolerance(Tolerance::Above { threshold: 120.0, hysteresis: 40.0 })
            .notify_initial(false)
            .build()
            .unwrap();
        let mut ids = Vec::new();
        for (text, options) in [("A | B", drift), ("A & B", alarm)] {
            let expr: SetExpr = text.parse().unwrap();
            let id = coord.subscribe(expr.clone(), options).unwrap();
            prop_assert_eq!(central.subscribe(expr, options).unwrap(), id);
            ids.push(id);
        }

        let opts = TransportOptions::builder().max_attempts(256).build().unwrap();
        let transport = Arc::new(TransportMetrics::new());
        let mut pipes: Vec<MemoryPipe> = (0..SITES)
            .map(|i| {
                let link_seed = seed ^ (i as u64) << 32;
                let metrics = Arc::clone(&transport);
                MemoryPipe::new(Arc::clone(&coord), FaultSpec::nasty(), link_seed, opts, metrics)
                    .unwrap()
            })
            .collect();
        let mut sites: Vec<Site> = (0..SITES as u32).map(|i| Site::new(i, fam)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inserted = vec![Vec::new(); SITES];
        let mut alarms = 0usize;
        for round in 0..ROUNDS {
            let batches = round_batches(&mut rng, round, &mut inserted);
            for ((site, pipe), batch) in sites.iter_mut().zip(&mut pipes).zip(&batches) {
                site.observe_batch(batch);
                pipe.collect(site).expect("collection converges on a lossy-but-alive link");
            }
            central.process_batch(batches.iter().flatten());
            let distributed = coord.publish_epoch();
            let reference = central.publish_epoch();
            prop_assert_eq!(observed(&distributed), observed(&reference), "round {}", round);
            alarms += distributed.iter().filter(|e| e.sub_id == ids[1]).count();
        }
        prop_assert!(alarms >= 2, "the alarm must trip and release, notified {} times", alarms);
        prop_assert!(transport.retransmits.get() > 0, "the links must have faulted");
    }
}
