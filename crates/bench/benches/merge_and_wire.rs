//! Distributed-model costs: sketch merging (the coordinator's hot path)
//! and wire encode/decode of synopsis frames.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setstream_core::{SketchConfig, SketchFamily, TwoLevelSketch};
use setstream_distributed::codec;
use setstream_distributed::site::{DeltaMessage, SynopsisMessage};
use setstream_distributed::wire::{decode_frame, decode_message, encode_frame, FrameKind};
use setstream_stream::StreamId;

fn merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    for s in [8u32, 32] {
        let config = SketchConfig {
            second_level: s,
            ..Default::default()
        };
        let mut a = TwoLevelSketch::new(config, 4);
        let mut b = TwoLevelSketch::new(config, 4);
        for e in 0..5000u64 {
            a.insert(e);
            b.insert(e + 2500);
        }
        group.throughput(Throughput::Bytes(config.counter_bytes() as u64));
        group.bench_with_input(BenchmarkId::new("single_sketch", s), &s, |bench, _| {
            bench.iter(|| a.merged(&b).unwrap().total_count())
        });
    }
    // Vector-level merge (64 copies).
    let fam = SketchFamily::builder().copies(64).second_level(16).seed(2).build();
    let mut va = fam.new_vector();
    let mut vb = fam.new_vector();
    for e in 0..2000u64 {
        va.insert(e);
        vb.insert(e + 1000);
    }
    group.bench_function("vector_r64", |bench| {
        bench.iter_batched(
            || va.clone(),
            |mut v| v.merge_from(&vb).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let fam = SketchFamily::builder().copies(16).second_level(16).seed(3).build();
    let mut v = fam.new_vector();
    for e in 0..2000u64 {
        v.insert(e);
    }
    let msg = SynopsisMessage {
        site: 1,
        stream: StreamId(0),
        epoch: 0,
        vector: v,
    };
    let frame = encode_frame(FrameKind::Synopsis, &msg).unwrap();
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_synopsis_frame", |b| {
        b.iter(|| encode_frame(FrameKind::Synopsis, &msg).unwrap().len())
    });
    group.bench_function("decode_and_verify_frame", |b| {
        b.iter(|| {
            let (_, payload) = decode_frame(frame.clone()).unwrap();
            let back: SynopsisMessage = codec::from_bytes(&payload).unwrap();
            back.site
        })
    });

    // One epoch delta at the `setstream site` shape (r = 64, s = 8):
    // 1000 updates, so only the ~log₂ 1000 occupied levels of each copy
    // travel in the sparse counter blocks.
    let fam = SketchFamily::builder().copies(64).second_level(8).seed(4).build();
    let mut delta = fam.new_vector();
    for e in 0..1000u64 {
        delta.update(e.wrapping_mul(0x9e37_79b9_7f4a_7c15), if e % 10 == 0 { -1 } else { 1 });
    }
    let msg = DeltaMessage {
        site: 1,
        stream: StreamId(0),
        epoch: 2,
        prev_epoch: 1,
        seq: 0,
        vector: delta,
    };
    let frame = encode_frame(FrameKind::Delta, &msg).unwrap();
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_delta_frame_r64_s8_1000", |b| {
        b.iter(|| encode_frame(FrameKind::Delta, &msg).unwrap().len())
    });
    group.bench_function("decode_delta_frame_r64_s8_1000", |b| {
        b.iter(|| decode_message(frame.clone()).unwrap().message.kind())
    });
    group.finish();
}

criterion_group!(benches, merge, wire);
criterion_main!(benches);
