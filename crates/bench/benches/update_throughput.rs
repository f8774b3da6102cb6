//! Per-update maintenance cost (the paper's "small processing time per
//! update" claim), across synopsis types and parameters.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setstream_baselines::{BottomKSketch, FmEstimator, MinwiseSignature};
use setstream_core::{BitSketch, SketchConfig, SketchFamily, TwoLevelSketch};
use setstream_stream::{StreamId, Update};

fn single_sketch_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_sketch_update");
    group.throughput(Throughput::Elements(1));
    for s in [8u32, 16, 32] {
        let config = SketchConfig {
            second_level: s,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("counter", s), &s, |b, _| {
            let mut sketch = TwoLevelSketch::new(config, 1);
            let mut e = 0u64;
            b.iter(|| {
                e = e.wrapping_add(1);
                sketch.update(black_box(e), 1);
            });
        });
        group.bench_with_input(BenchmarkId::new("bit", s), &s, |b, _| {
            let mut sketch = BitSketch::new(config, 1);
            let mut e = 0u64;
            b.iter(|| {
                e = e.wrapping_add(1);
                sketch.insert(black_box(e));
            });
        });
    }
    group.finish();
}

fn vector_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_update");
    group.throughput(Throughput::Elements(1));
    group.sample_size(20);
    for r in [64usize, 256, 512] {
        group.bench_with_input(BenchmarkId::new("r", r), &r, |b, &r| {
            let fam = SketchFamily::builder().copies(r).second_level(32).seed(1).build();
            let mut v = fam.new_vector();
            let mut e = 0u64;
            b.iter(|| {
                e = e.wrapping_add(1);
                v.update(black_box(e), 1);
            });
        });
    }
    group.finish();
}

/// The batch path over the same vectors as `vector_updates`: whole-batch
/// maintenance per iteration, throughput per element. Comparing
/// `vector_update/r/512` against `vector_update_batch/r/512` (per-element)
/// is the scalar-vs-batch speedup recorded in `BENCH_ingest.json`.
fn vector_batch_updates(c: &mut Criterion) {
    const BATCH: usize = 1024;
    let mut group = c.benchmark_group("vector_update_batch");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(20);
    for r in [64usize, 256, 512] {
        group.bench_with_input(BenchmarkId::new("r", r), &r, |b, &r| {
            let fam = SketchFamily::builder().copies(r).second_level(32).seed(1).build();
            let mut v = fam.new_vector();
            let mut updates: Vec<Update> = (0..BATCH as u64)
                .map(|e| Update::insert(StreamId(0), e, 1))
                .collect();
            let mut next = 0u64;
            b.iter(|| {
                for u in updates.iter_mut() {
                    next = next.wrapping_add(1);
                    u.element = next;
                }
                v.update_batch(black_box(&updates));
            });
        });
    }
    group.finish();
}

fn baseline_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_update");
    group.throughput(Throughput::Elements(1));
    group.bench_function("fm_r256", |b| {
        let mut fm = FmEstimator::new(256, 1);
        let mut e = 0u64;
        b.iter(|| {
            e = e.wrapping_add(1);
            fm.insert(black_box(e));
        });
    });
    group.bench_function("minwise_k256", |b| {
        let mut mw = MinwiseSignature::new(256, 1);
        let mut e = 0u64;
        b.iter(|| {
            e = e.wrapping_add(1);
            mw.insert(black_box(e));
        });
    });
    group.bench_function("bottomk_k256", |b| {
        let mut bk = BottomKSketch::new(256, 1);
        let mut e = 0u64;
        b.iter(|| {
            e = e.wrapping_add(1);
            bk.insert(black_box(e));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    single_sketch_updates,
    vector_updates,
    vector_batch_updates,
    baseline_updates
);
criterion_main!(benches);
