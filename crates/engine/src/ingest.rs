//! Staged, shard-owned parallel synopsis ingestion.
//!
//! The sketch transform is linear in the update stream **and** the `r`
//! independent sketch copies never read each other's cells, so a batch can
//! be parallelized along the copy axis instead of the stream axis: split
//! the synopsis into disjoint runs of consecutive copies
//! ([`SketchVector::par_slices`]) and let each worker apply the *whole*
//! batch to its own run. No partial vectors, no merge, no synchronization
//! on sketch memory — each cell has exactly one writer, and the result is
//! bit-for-bit identical to single-threaded ingestion by construction.
//!
//! Ingest runs as a two-stage pipeline:
//!
//! ```text
//! caller thread            RunQueue             worker threads
//! ─────────────            ────────             ──────────────
//! slice chunk          ──► publish(i) ──┬─► shard 0: apply to copies 0..c
//! (PreparedBatch:          (watermark   ├─► shard 1: apply to copies c..2c
//!  bit-sliced chunks       broadcast)   └─► shard k: apply to its run
//!  + stats)
//! ```
//!
//! The batch-prepare work (bit-slicing, instrumentation) is paid **once**
//! per chunk by the producer and shared by every shard, instead of once
//! per shard as the old partial-vector scheme did; the apply stage is
//! allocation-free. Chunks overlap: shard workers apply chunk `i` while
//! the producer prepares chunk `i+1`. Every prepared chunk stays in the
//! queue until the call returns, about 56 bytes per update.

use crate::runqueue::RunQueue;
use setstream_core::{IngestStats, PreparedBatch, SketchFamily, SketchVector};
use setstream_obs::TraceHandle;
use setstream_stream::Update;

/// Below this batch size threading overhead dominates; ingest inline.
const MIN_PARALLEL: usize = 4096;

/// Updates per pipelined chunk. A multiple of the core batch chunk (512),
/// so per-chunk instrumentation and the sliced chunks land on the same
/// boundaries as a single sequential `update_batch` over the whole slice.
const PIPELINE_CHUNK: usize = 8192;

/// Builds synopses from update batches using a pool of `threads` workers.
#[derive(Debug, Clone)]
pub struct ShardedIngestor {
    family: SketchFamily,
    threads: usize,
    trace: TraceHandle,
}

impl ShardedIngestor {
    /// An ingestor minting synopses from `family`'s stored coins.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(family: SketchFamily, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one ingest worker");
        ShardedIngestor {
            family,
            threads,
            trace: TraceHandle::noop(),
        }
    }

    /// Install a trace sink: each shard worker then emits an
    /// `ingest.shard` span on its own `shard-N` track (and the prepare
    /// stage an `ingest.prepare` span), so the Chrome trace export
    /// renders the pipeline as parallel timeline rows.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The family whose coins every produced synopsis uses.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply the whole slice to an existing synopsis in place (stream ids
    /// are ignored, as in [`SketchVector::process`]): no scratch vector,
    /// no merge.
    ///
    /// Small batches (or `threads == 1`) take the sequential batch path;
    /// larger ones run the staged pipeline over `target.par_slices`.
    pub fn ingest_into(&self, target: &mut SketchVector, updates: &[Update]) -> IngestStats {
        if self.threads == 1 || updates.len() < MIN_PARALLEL {
            return target.update_batch(updates);
        }
        let n_chunks = updates.len().div_ceil(PIPELINE_CHUNK);
        let queue: RunQueue<PreparedBatch> = RunQueue::new(n_chunks);
        let trace = &self.trace;
        let shards = target.par_slices(self.threads);
        let mut stats = IngestStats::default();
        crossbeam::thread::scope(|scope| {
            let queue = &queue;
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(i, mut shard)| {
                    scope.spawn(move |_| {
                        let mut span = trace.span("ingest.shard");
                        if span.is_recording() {
                            span.track(format!("shard-{i}"));
                            span.detail(format!(
                                "copies {}..{}",
                                shard.start(),
                                shard.start() + shard.copies()
                            ));
                        }
                        for idx in 0..n_chunks {
                            shard.apply_prepared(queue.wait(idx));
                        }
                    })
                })
                .collect();
            {
                // Stage 1 on the calling thread: slice and account each
                // chunk, overlapping with the apply stage.
                let mut span = trace.span("ingest.prepare");
                if span.is_recording() {
                    span.track("prepare".to_string());
                    span.detail(format!("{} updates, {n_chunks} chunks", updates.len()));
                }
                for (idx, chunk) in updates.chunks(PIPELINE_CHUNK).enumerate() {
                    let batch = PreparedBatch::from_updates(chunk);
                    stats.absorb(batch.stats());
                    queue.publish(idx, batch);
                }
            }
            for h in handles {
                // analyze: allow(panic) — join fails only if a worker panicked; propagate it
                h.join().expect("ingest worker");
            }
        })
        // analyze: allow(panic) — scope fails only if a worker panicked; propagate it
        .expect("ingest scope");
        stats
    }

    /// Build one synopsis over the whole slice (stream ids are ignored,
    /// as in [`SketchVector::process`]).
    pub fn ingest_vector(&self, updates: &[Update]) -> SketchVector {
        let mut v = self.family.new_vector();
        let _ = self.ingest_into(&mut v, updates);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_stream::StreamId;

    fn family() -> SketchFamily {
        SketchFamily::builder().copies(4).levels(16).second_level(8).seed(21).build()
    }

    fn workload(n: u64) -> Vec<Update> {
        (0..n)
            .map(|i| Update {
                stream: StreamId((i % 3) as u32),
                element: i.wrapping_mul(0x2545_f491) % 5000,
                delta: if i % 11 == 0 { -1 } else { 1 },
            })
            .collect()
    }

    #[test]
    fn parallel_vector_matches_sequential_for_every_thread_count() {
        let updates = workload(9000);
        let mut seq = family().new_vector();
        for u in &updates {
            seq.process(u);
        }
        for threads in [1usize, 2, 3, 4, 8] {
            let par = ShardedIngestor::new(family(), threads).ingest_vector(&updates);
            for (a, b) in seq.sketches().iter().zip(par.sketches()) {
                assert_eq!(a.counters(), b.counters(), "threads={threads}");
            }
        }
    }

    #[test]
    fn ingest_into_applies_on_top_of_existing_state() {
        // The live-engine path: a synopsis that already holds data, fed a
        // large batch through the staged pipeline, must equal the purely
        // sequential composition of both batches.
        let first = workload(500);
        let second: Vec<Update> = workload(20_000)
            .into_iter()
            .map(|mut u| {
                u.element = u.element.wrapping_mul(31).wrapping_add(7);
                u
            })
            .collect();
        let mut seq = family().new_vector();
        seq.update_batch(&first);
        seq.update_batch(&second);
        let ingestor = ShardedIngestor::new(family(), 4);
        let mut live = family().new_vector();
        live.update_batch(&first);
        let stats = ingestor.ingest_into(&mut live, &second);
        assert_eq!(stats.updates, second.len());
        for (a, b) in seq.sketches().iter().zip(live.sketches()) {
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn pipeline_stats_match_sequential_accounting() {
        // PIPELINE_CHUNK is 512-aligned, so per-chunk stats absorbed
        // across the pipeline must equal one sequential update_batch.
        let updates = workload(20_000);
        let mut seq = family().new_vector();
        let want = seq.update_batch(&updates);
        let mut par = family().new_vector();
        let got = ShardedIngestor::new(family(), 3).ingest_into(&mut par, &updates);
        assert_eq!(got, want);
    }

    #[test]
    fn small_batches_stay_inline() {
        let updates = workload(64);
        let par = ShardedIngestor::new(family(), 8).ingest_vector(&updates);
        let mut seq = family().new_vector();
        seq.update_batch(&updates);
        for (a, b) in seq.sketches().iter().zip(par.sketches()) {
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn more_threads_than_copies_still_exact() {
        // par_slices caps the shard count at the copy count; the extra
        // workers simply never materialize.
        let updates = workload(12_000);
        let par = ShardedIngestor::new(family(), 16).ingest_vector(&updates);
        let mut seq = family().new_vector();
        seq.update_batch(&updates);
        for (a, b) in seq.sketches().iter().zip(par.sketches()) {
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    #[should_panic(expected = "ingest worker")]
    fn zero_threads_rejected() {
        let _ = ShardedIngestor::new(family(), 0);
    }
}

/// Model-checked shard hand-off (`RUSTFLAGS="--cfg loom"`).
///
/// The slice-owned protocol moves a prepared chunk from the producer to
/// shard workers through the watermark queue (modeled in
/// [`crate::runqueue`]) and hands the mutated slices back across the
/// fork/join boundary with no further synchronization. The model here
/// covers the join edge: workers ingest disjoint halves as loom threads,
/// the parent merges after `join`, and every interleaving must be
/// bit-identical to sequential ingestion — i.e. `join` alone publishes
/// the workers' sketch writes.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::thread;
    use setstream_stream::StreamId;

    #[test]
    fn loom_shard_handoff_merges_exactly() {
        loom::model(|| {
            let family = SketchFamily::builder()
                .copies(1)
                .levels(4)
                .second_level(2)
                .seed(7)
                .build();
            let updates: Vec<Update> = (0..4)
                .map(|i| Update {
                    stream: StreamId(0),
                    element: i,
                    delta: 1,
                })
                .collect();
            let (left, right) = updates.split_at(2);
            let (left, right) = (left.to_vec(), right.to_vec());
            let workers = [left, right].map(|shard| {
                thread::spawn(move || {
                    let mut v = family.new_vector();
                    v.update_batch(&shard);
                    v
                })
            });
            let mut acc: Option<SketchVector> = None;
            for w in workers {
                let part = w.join().expect("ingest worker");
                match &mut acc {
                    None => acc = Some(part),
                    Some(acc) => acc.merge_from(&part).expect("partials share one family"),
                }
            }
            let acc = acc.expect("two shards joined");
            let mut seq = family.new_vector();
            seq.update_batch(&updates);
            for (a, b) in seq.sketches().iter().zip(acc.sketches()) {
                assert_eq!(a.counters(), b.counters());
            }
        });
    }
}
