//! Criterion bench: multi-round syndrome-stream generation, materialised
//! vs incremental (decode-as-you-stream).
//!
//! `streaming/materialized` times [`StreamEngine::stream_batches`] — the
//! collect-everything adapter offline consumers use. `streaming/
//! incremental` times [`StreamEngine::for_each_round`] — the panicking
//! wrapper over the production round driver,
//! [`StreamEngine::for_each_round_supervised`] — feeding a live consumer
//! (per-chunk event accumulation + per-shot CUSUM updates), i.e. the full
//! decode-as-you-stream pipeline: the comparison shows what the overlap
//! costs (or saves) over materialise-then-scan. Both paths sample
//! bit-identical streams (`tests/golden_stream.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_detect::{CusumDetector, EventAccumulator, OnlineDetector};
use radqec_noise::{NoiseSpec, RadiationModel};
use std::hint::black_box;
use std::sync::Mutex;

const SHOTS: usize = 1000;
const ROUNDS: usize = 10;

fn engines() -> Vec<(&'static str, StreamEngine, u32)> {
    let mk = |spec: CodeSpec| StreamEngine::builder(spec, ROUNDS).shots(SHOTS).seed(1).native();
    vec![
        ("rep5", mk(RepetitionCode::bit_flip(5).into()).build(), 4),
        ("xxzz33", mk(XxzzCode::new(3, 3).into()).build(), 12),
    ]
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SHOTS as u64));
    let noise = NoiseSpec::paper_default();
    for (name, engine, root) in engines() {
        let fault = StreamFault::Strike { model: RadiationModel::default(), root };
        group.bench_with_input(BenchmarkId::new("materialized", name), &(), |b, _| {
            b.iter(|| black_box(engine.stream_batches(&fault, &noise)).len());
        });
        let spec = engine.stream_spec().clone();
        let cusum = CusumDetector::calibrated(1.0);
        type ChunkSlot =
            Mutex<Option<(EventAccumulator, Vec<radqec_detect::CountDetectorState>, Vec<u32>)>>;
        group.bench_with_input(BenchmarkId::new("incremental", name), &(), |b, _| {
            b.iter(|| {
                let slots: Vec<ChunkSlot> =
                    (0..engine.num_chunks()).map(|_| Mutex::new(None)).collect();
                engine.for_each_round(&fault, &noise, |slice| {
                    let mut slot = slots[slice.chunk].lock().unwrap();
                    let (acc, states, counts) = slot.get_or_insert_with(|| {
                        (
                            EventAccumulator::new(&spec, slice.shots),
                            vec![cusum.begin(); slice.shots],
                            Vec::new(),
                        )
                    });
                    acc.push_round(slice.round, slice.syndrome_rows());
                    acc.stream().round_shot_counts(slice.round, counts);
                    for (s, &c) in counts.iter().enumerate() {
                        cusum.push(&mut states[s], slice.round, f64::from(c));
                    }
                });
                black_box(&slots);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
