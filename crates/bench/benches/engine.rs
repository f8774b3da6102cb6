//! Engine-level costs: update routing overhead vs raw synopsis updates,
//! ad-hoc evaluation, and snapshots.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use setstream_core::SketchFamily;
use setstream_engine::StreamEngine;
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(64)
        .second_level(16)
        .seed(12)
        .build()
}

fn loaded_engine() -> StreamEngine {
    let mut engine = StreamEngine::new(family());
    for e in 0..4000u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + 2000, 1));
        engine.process(&Update::insert(StreamId(2), e * 2, 1));
    }
    engine
}

fn engine_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("process_update_r64", |b| {
        let mut engine = StreamEngine::new(family());
        let mut e = 0u64;
        b.iter(|| {
            e = e.wrapping_add(1);
            engine.process(black_box(&Update::insert(StreamId(0), e, 1)));
        });
    });
    group.finish();
}

fn engine_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_query");
    group.sample_size(30);
    let engine = loaded_engine();
    let expr: SetExpr = "A & B".parse().unwrap();

    group.bench_function("estimate_single", |b| {
        b.iter(|| engine.evaluate(&expr).unwrap().value)
    });
    group.bench_function("snapshot", |b| {
        b.iter(|| engine.snapshot().synopses.len())
    });
    group.finish();
}

criterion_group!(benches, engine_updates, engine_queries);
criterion_main!(benches);
