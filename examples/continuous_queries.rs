//! The full Figure-1 architecture via `setstream-engine`: a continuous
//! set-expression query with two threshold alarms over live update
//! streams — here, a denial-of-service detector.
//!
//! Streams: `A` = sources with open TCP handshakes, `B` = sources that
//! completed handshakes, `C` = an allow-list of known scanners. A surge
//! of `|A − B − C|` (many half-open handshakes from unknown sources) is
//! the classic SYN-flood signature.
//!
//! Both alarms are subscriptions with a threshold rule: each notifies
//! once when the estimate crosses its threshold (trip) and once when it
//! falls back past the hysteresis band (release), never in between.
//!
//! ```sh
//! cargo run --release -p setstream-apps --example continuous_queries
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setstream_core::SketchFamily;
use setstream_engine::{StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};

const HALF_OPEN: StreamId = StreamId(0); // A
const COMPLETED: StreamId = StreamId(1); // B
const ALLOW_LIST: StreamId = StreamId(2); // C

/// `true` when `value` lies past the rule's threshold.
fn tripped(rule: Tolerance, value: f64) -> bool {
    match rule {
        Tolerance::Above { threshold, .. } => value > threshold,
        Tolerance::Below { threshold, .. } => value < threshold,
        Tolerance::Absolute(_) | Tolerance::Relative(_) => false,
    }
}

fn main() {
    let family = SketchFamily::builder()
        .copies(256)
        .second_level(16)
        .seed(0xd05)
        .build();
    let mut engine = StreamEngine::new(family);

    // Subscribe the detector query twice, once per alarm. Note the
    // deliberately clumsy query text: the engine simplifies it, and both
    // subscriptions share one expression class, so one estimate per round.
    let text = "((A - B) - C) | ((A - B) - C)";
    let query: SetExpr = text.parse().unwrap();
    let rules = [
        (
            "ALARM",
            Tolerance::Above {
                threshold: 800.0,
                hysteresis: 200.0,
            },
        ),
        (
            "heartbeat",
            Tolerance::Below {
                threshold: 5.0,
                hysteresis: 0.0,
            },
        ),
    ];
    let alarms = rules.map(|(name, rule)| {
        let options = SubscriptionOptions::builder()
            .tolerance(rule)
            .build()
            .unwrap();
        (
            name,
            rule,
            engine.subscribe(query.clone(), options).unwrap(),
        )
    });
    println!(
        "subscribed: {text}   (simplified to: {}; {} expression class for both)",
        engine.subscription(alarms[0].2).unwrap().expr(),
        engine.subscription_classes()
    );

    // The allow-list is a slowly-changing stream.
    for scanner in 0..200u64 {
        engine.process(&Update::insert(ALLOW_LIST, 900_000 + scanner, 1));
    }

    let mut rng = StdRng::seed_from_u64(4);
    let mut attack_sources: Vec<u64> = Vec::new();
    for phase in 0..4 {
        let attacking = phase == 2; // the attack happens in phase 2
        for _ in 0..30_000 {
            if attacking && rng.gen_bool(0.4) {
                // Spoofed source opens a handshake it never completes.
                let src = 10_000_000 + rng.gen_range(0..5_000u64);
                engine.process(&Update::insert(HALF_OPEN, src, 1));
                attack_sources.push(src);
            } else {
                // Legitimate flow: open, then complete (half-open entry
                // deleted, completed entry inserted).
                let src = rng.gen_range(0..50_000u64);
                engine.process(&Update::insert(HALF_OPEN, src, 1));
                engine.process(&Update::delete(HALF_OPEN, src, 1));
                engine.process(&Update::insert(COMPLETED, src, 1));
            }
        }
        // End of monitoring interval: publish the epoch.
        let estimate = engine.evaluate(&query).unwrap();
        let events: Vec<String> = engine
            .publish_epoch()
            .iter()
            .map(|e| {
                let (name, rule, _) = alarms.iter().find(|a| a.2 == e.sub_id).unwrap();
                let edge = match (tripped(*rule, e.new), e.old) {
                    (true, _) => "tripped",
                    (false, None) => "armed", // the first epoch's value
                    (false, Some(_)) => "released",
                };
                format!("{name} {edge} at {:.0}", e.new)
            })
            .collect();
        let (lo, hi) = estimate.confidence_interval(1.96).unwrap_or((0.0, 0.0));
        println!(
            "phase {phase}: |A - B - C| ≈ {:>7.0}  (95% CI [{lo:.0}, {hi:.0}])  alarms: {}",
            estimate.value,
            if events.is_empty() {
                "no change".to_string()
            } else {
                events.join(", ")
            }
        );

        // The attack subsides: half-open entries time out (deletions).
        if attacking {
            for src in attack_sources.drain(..) {
                engine.process(&Update::delete(HALF_OPEN, src, 1));
            }
        }
    }

    let stats = engine.stats();
    println!(
        "\nprocessed {} updates ({} deletions) across {} streams; \
         synopsis memory {:.1} MiB",
        stats.updates,
        stats.deletions,
        stats.streams,
        stats.synopsis_bytes as f64 / (1024.0 * 1024.0)
    );
}
