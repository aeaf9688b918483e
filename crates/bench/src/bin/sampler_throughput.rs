//! Frame-batch vs. tableau sampler: throughput and logical-error agreement
//! on the paper's flagship workloads, emitting a `BENCH_sampler.json`
//! trajectory entry.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin sampler_throughput [--shots N] [--seed N]
//! ```

use radqec_bench::{arg_flag, time_samples, Report, Row};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::{InjectionEngine, SamplerKind};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_telemetry::{names, MetricsSnapshot};

struct Workload {
    name: &'static str,
    spec: CodeSpec,
    fault: FaultSpec,
    noise: NoiseSpec,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "rep5_intrinsic",
            spec: RepetitionCode::bit_flip(5).into(),
            fault: FaultSpec::None,
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "rep5_radiation_impact",
            spec: RepetitionCode::bit_flip(5).into(),
            fault: FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 },
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "xxzz33_intrinsic",
            spec: XxzzCode::new(3, 3).into(),
            fault: FaultSpec::None,
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "xxzz33_radiation_impact",
            spec: XxzzCode::new(3, 3).into(),
            fault: FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 1 },
            noise: NoiseSpec::paper_default(),
        },
    ]
}

fn main() {
    let shots: usize = arg_flag("shots", 1000);
    let seed: u64 = arg_flag("seed", 1);
    let reps: usize = arg_flag("reps", 3);
    let mut report = Report::new("BENCH_sampler.json");
    println!(
        "{:<26} {:>11} {:>11} {:>12} {:>12} {:>9}",
        "workload", "frame_ler", "tableau_ler", "frame_sh/s", "tab_sh/s", "speedup"
    );
    for w in workloads() {
        let mut rates = [0.0f64; 2];
        let mut thpt = [0.0f64; 2];
        let mut frame_snap = MetricsSnapshot::default();
        for (i, sampler) in [SamplerKind::FrameBatch, SamplerKind::Tableau].into_iter().enumerate()
        {
            let engine =
                InjectionEngine::builder(w.spec).shots(shots).seed(seed).sampler(sampler).build();
            (rates[i], thpt[i]) = time_samples(&engine, &w.fault, &w.noise, reps);
            if sampler == SamplerKind::FrameBatch {
                // Refresh the pool gauges, then snapshot the frame
                // engine's registry (decode spans + workspace gauges).
                let _ = engine.workspace_stats();
                frame_snap = engine.metrics().snapshot();
            }
        }
        report.merge(&frame_snap);
        println!(
            "{:<26} {:>11.4} {:>11.4} {:>12.0} {:>12.0} {:>8.1}x",
            w.name,
            rates[0],
            rates[1],
            thpt[0],
            thpt[1],
            thpt[0] / thpt[1]
        );
        report.row(
            Row::default()
                .field("workload", w.name)
                .field("shots", shots)
                .field("seed", seed)
                .field("frame_logical_error", rates[0])
                .field("tableau_logical_error", rates[1])
                .field("frame_shots_per_sec", thpt[0])
                .field("tableau_shots_per_sec", thpt[1])
                .field("speedup", thpt[0] / thpt[1])
                .latency_us(&frame_snap, names::STAGE_DECODE_NS, "decode_latency_us"),
        );
    }
    report.write();
}
