//! The closed detect→decode loop, benchmarked: absolute streaming LER of
//! the sliding-window space-time decoder ([`StreamDecoder`]) on the
//! acceptance strike workloads, with the per-chunk-round decode latency
//! distribution, emitting a `BENCH_spacetime.json` trajectory entry.
//!
//! Two gates ride on the default (`--shots 1024`) run:
//!
//! * **latency budget** — `spacetime_round_latency_us` (mean of the
//!   `stage.decode_ns` histogram: each chunk-round of sink work —
//!   accumulate → CUSUM → localize → re-mask → window decode —
//!   amortised over the shots it advanced) must stay within the
//!   7.6 µs/chunk-round round latency the detection pipeline measured
//!   in `BENCH_detect.json` (`round_latency_us`, same mean-of-rounds
//!   statistic). The p50/p99 tails are reported alongside: solve
//!   rounds (every commit stride) carry the matching cost, so the
//!   tail is structurally heavier than the mean, exactly as
//!   `round_latency_us_p99` is in the detect bench;
//! * **closed loop wins** — the adaptive arm's streaming LER must beat
//!   the unaware arm (`ler_delta > 0`) on every acceptance workload,
//!   the same criterion `streaming_ler::acceptance_tests` pins.
//!
//! Quick mode (small `--shots`) prints the same fields for CI trend
//! tracking without enforcing the gates' statistics.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin spacetime_throughput \
//!     [--shots N] [--rounds N] [--seed N] [--prometheus PATH]
//! ```
//!
//! [`StreamDecoder`]: radqec_core::decoder::StreamDecoder

use radqec_bench::{arg_flag, header, Report, Row};
use radqec_core::decoder::{StreamDecoder, StreamDecoderConfig, TierConfig};
use radqec_core::experiments::{
    calibrate_stream, central_root, streaming_engine, StreamingLerConfig,
};
use radqec_core::streaming::StreamFault;
use radqec_telemetry::names;
use std::time::Instant;

fn main() {
    let shots: usize = arg_flag("shots", 1024);
    let rounds: usize = arg_flag("rounds", 10);
    let seed: u64 = arg_flag("seed", 0x57E4_11E5);
    let full = shots >= 1024;

    let mut cfg = StreamingLerConfig::acceptance();
    cfg.shots = shots;
    cfg.rounds = rounds;
    cfg.seed = seed;

    let mut report = Report::new("BENCH_spacetime.json");

    header(&format!("streaming space-time decode ({shots} shots, {rounds} rounds)"));
    let codes = cfg.codes.clone();
    for &code in &codes {
        let engine = streaming_engine(&cfg, code);
        let (baseline, sigma) = calibrate_stream(&engine, &cfg.noise);
        let root = central_root(&engine);
        let fault = StreamFault::Strike { model: cfg.model, root };
        let decoder_cfg = |adaptive| StreamDecoderConfig {
            window: cfg.window,
            adaptive,
            radius: cfg.radius,
            baseline,
            sigma,
            ..StreamDecoderConfig::default()
        };
        let run = |adaptive| {
            let decoder = StreamDecoder::new(&engine, decoder_cfg(adaptive), TierConfig::default());
            let start = Instant::now();
            let report = decoder.run(&fault, &cfg.noise);
            (report, start.elapsed().as_secs_f64())
        };
        let (adaptive, adaptive_secs) = run(true);
        let (unaware, _) = run(false);
        let delta = unaware.ler() - adaptive.ler();
        let sps = shots as f64 / adaptive_secs;

        let snap = engine.metrics_snapshot();
        let mean_us =
            snap.histogram(names::STAGE_DECODE_NS).and_then(|h| h.mean()).map(|ns| ns / 1e3);
        report.merge(&snap);

        let name = &engine.memory().name;
        let mean_field = mean_us.map_or("null".into(), |us| format!("{us:.3}"));
        println!(
            "{name}: streaming ler {:.4} (unaware {:.4}, delta {:+.4}), \
             first alarm {:?}, {sps:.0} shots/s, decode mean {mean_field} us/shot-round",
            adaptive.ler(),
            unaware.ler(),
            delta,
            adaptive.first_alarm_round,
        );
        if full {
            report.gate(
                &format!("{name} mean decode ≤ 7.6 us/round"),
                &mean_field,
                mean_us.is_some_and(|us| us <= 7.6),
            );
            report.gate(
                &format!("{name} adaptive beats unaware"),
                format!("{delta:+.4}"),
                delta > 0.0,
            );
        }

        report.row(
            Row::default()
                .field("workload", name)
                .field("code", name)
                .field("shots", shots)
                .field("rounds", rounds)
                .field("seed", seed)
                .field("root", root)
                .field("baseline", baseline)
                .field("sigma", sigma)
                .field("streaming_ler", adaptive.ler())
                .field("unaware_ler", unaware.ler())
                .field("ler_delta", delta)
                .field("first_alarm_round", adaptive.first_alarm_round)
                .field("chunk_alarms", adaptive.chunk_alarms)
                .field("stream_decode_shots_per_sec", sps)
                .field("spacetime_round_latency_us", mean_us)
                .latency_us(&snap, names::STAGE_DECODE_NS, "spacetime_round_latency_us"),
        );
    }
    report.write();
}
