//! Integration: trace files → engine → answers, and engine ↔ distributed
//! interop (an engine's synopses ship to a coordinator unchanged).

use rand::rngs::StdRng;
use rand::SeedableRng;
use setstream_core::{estimate, EstimatorOptions, SketchFamily};
use setstream_distributed::network::{FaultSpec, MemoryPipe};
use setstream_distributed::site::{EpochCommit, Hello, SynopsisMessage};
use setstream_distributed::wire::{encode_frame, FrameKind};
use setstream_distributed::{Coordinator, TransportMetrics, TransportOptions};
use setstream_engine::StreamEngine;
use setstream_stream::gen::{SessionConfig, SessionWorkload};
use setstream_stream::{trace, StreamId, Update};
use std::sync::Arc;

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(128)
        .second_level(16)
        .seed(0xe7)
        .build()
}

#[test]
fn trace_round_trip_preserves_engine_answers() {
    // Generate a churny session workload, serialize it to the text trace
    // format, read it back, and check both replicas answer identically.
    let mut rng = StdRng::seed_from_u64(9);
    let mut workload = SessionWorkload::new(SessionConfig::uniform(2, 50, 500), |stream, rand| {
        rand() % 5000 + stream.0 as u64 * 2500
    });
    let updates = workload.run(20_000, &mut rng);
    assert!(updates.iter().any(Update::is_deletion));

    let mut text = Vec::new();
    let written = trace::write_trace(&mut text, &updates).unwrap();
    assert_eq!(written, updates.len());
    let replayed = trace::read_trace(text.as_slice()).unwrap();
    assert_eq!(replayed, updates);

    let mut direct = StreamEngine::new(family());
    direct.process_batch(&updates);
    let mut via_trace = StreamEngine::new(family());
    via_trace.process_batch(&replayed);

    for query in ["A & B", "A - B", "A | B"] {
        let q1 = direct.register_query(query).unwrap();
        let q2 = via_trace.register_query(query).unwrap();
        assert_eq!(
            direct.evaluate(q1).unwrap().value,
            via_trace.evaluate(q2).unwrap().value,
            "query {query}"
        );
    }
}

#[test]
fn engine_synopses_ship_to_coordinator_over_lossy_network() {
    // An engine at the edge builds synopses; they travel through a faulty
    // link to a coordinator; global answers equal local ones exactly.
    let fam = family();
    let mut engine = StreamEngine::new(fam);
    for e in 0..3000u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
    }
    for e in 1500..4500u64 {
        engine.process(&Update::insert(StreamId(1), e, 1));
    }
    // Some retractions.
    for e in 0..500u64 {
        engine.process(&Update::delete(StreamId(0), e, 1));
    }

    // Frame the engine's synopses directly as one cumulative epoch batch
    // (the engine plays the role of a site here; re-observing the updates
    // through a Site would double-handle them).
    let streams = [StreamId(0), StreamId(1)];
    let mut frames = vec![encode_frame(
        FrameKind::Hello,
        &Hello {
            site: 7,
            family: fam,
            resume_epoch: 1,
        },
    )
    .unwrap()];
    for sid in streams {
        let msg = SynopsisMessage {
            site: 7,
            stream: sid,
            epoch: 1,
            vector: engine.synopsis(sid).unwrap().clone(),
        };
        frames.push(encode_frame(FrameKind::Synopsis, &msg).unwrap());
    }
    let commit = EpochCommit {
        site: 7,
        epoch: 1,
        deltas: streams.len() as u32,
    };
    frames.push(encode_frame(FrameKind::Commit, &commit).unwrap());

    let coordinator = Arc::new(Coordinator::new(fam));
    let opts = TransportOptions::builder()
        .max_attempts(256)
        .build()
        .unwrap();
    let metrics = Arc::new(TransportMetrics::new());
    let mut pipe = MemoryPipe::new(
        Arc::clone(&coordinator),
        FaultSpec::nasty(),
        42,
        opts,
        metrics,
    )
    .unwrap();
    pipe.ship(1, frames).unwrap();
    pipe.flush().unwrap();
    // The complete ack means every synopsis frame was delivered.
    assert_eq!(pipe.in_flight(), 0);
    assert_eq!(coordinator.streams(), streams.to_vec());

    let opts = EstimatorOptions::default();
    for query in ["A & B", "A - B"] {
        let expr = query.parse().unwrap();
        let local = estimate::expression(
            &expr,
            &[
                (StreamId(0), engine.synopsis(StreamId(0)).unwrap()),
                (StreamId(1), engine.synopsis(StreamId(1)).unwrap()),
            ],
            &opts,
        )
        .unwrap();
        let global = coordinator.query(&expr).map(|a| a.estimate).unwrap();
        assert_eq!(local.value, global.value, "query {query}");
    }
}

#[test]
fn engine_snapshot_survives_binary_serialization() {
    // Snapshot → workspace binary codec → restore: the restarted engine
    // answers identically and keeps streaming.
    let mut engine = StreamEngine::new(family());
    for e in 0..2500u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        if e % 3 == 0 {
            engine.process(&Update::insert(StreamId(1), e, 1));
        }
    }
    for e in 0..300u64 {
        engine.process(&Update::delete(StreamId(0), e, 1));
    }
    let q = engine.register_query("A - B").unwrap();

    let bytes = setstream_distributed::codec::to_bytes(&engine.snapshot()).unwrap();
    let snapshot: setstream_engine::EngineSnapshot =
        setstream_distributed::codec::from_bytes(&bytes).unwrap();
    let restored = StreamEngine::restore(snapshot);

    assert_eq!(
        engine.evaluate(q).unwrap().value,
        restored.evaluate(q).unwrap().value
    );
    assert_eq!(engine.stats(), restored.stats());
}
