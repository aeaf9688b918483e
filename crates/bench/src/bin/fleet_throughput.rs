//! Fleet endurance campaign (`experiments::fleet`): multiple code patches
//! tiled on one device mesh, thousands of syndrome rounds, Poisson strike
//! arrivals, run on the supervised execution layer. Emits a
//! `BENCH_fleet.json` trajectory entry and (with `--csv <path>`) the
//! per-strike scoring CSV.
//!
//! The default workload carries the ISSUE 7 acceptance gates:
//!
//! * the 10⁴-round multi-patch campaign completes with **zero degraded
//!   shots** at the default decode deadline;
//! * **zero failed chunks** and zero retries (no chaos injected here —
//!   the retry path is pinned by `tests/fleet_resilience.rs`);
//! * every patch decoder's syndrome-cache occupancy stays at or under
//!   its configured ceiling.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin fleet_throughput \
//!     [--rounds N] [--patches N] [--shots N] [--seed N] [--csv PATH]
//! ```
//!
//! CI quick mode: `--rounds 1000 --shots 32` finishes in seconds and
//! exercises the same gates.

use radqec_bench::{arg_flag, header, CsvSink, Report, Row};
use radqec_core::codes::RepetitionCode;
use radqec_core::experiments::{run_fleet, FleetConfig};
use radqec_telemetry::names;
use std::time::Instant;

fn main() {
    let rounds: usize = arg_flag("rounds", 10_000);
    let patches: usize = arg_flag("patches", 3);
    let shots: usize = arg_flag("shots", 64);
    let seed: u64 = arg_flag("seed", 0xF1EE_7500);
    let mut sink = CsvSink::from_args();

    let mut cfg = FleetConfig::new(RepetitionCode::bit_flip(5).into());
    cfg.rounds = rounds;
    cfg.patches = patches;
    cfg.shots = shots;
    cfg.seed = seed;

    let start = Instant::now();
    let res = run_fleet(&cfg);
    let wall = start.elapsed().as_secs_f64();
    let m = &res.metrics;
    let fleet_shots = (patches * shots) as f64;
    let fleet_sps = fleet_shots / wall;
    let rounds_per_sec = fleet_shots * rounds as f64 / wall;

    header(&format!(
        "fleet endurance — {} × {} patches, {rounds} rounds, {shots} replicas/patch",
        cfg.code.name(),
        patches
    ));
    println!(
        "strikes {:>4}   detected {:>4} ({:.0}% coverage)   recovered {:>4} (mean TTR {:.1} µs)",
        m.strikes,
        m.detected,
        100.0 * m.detection_coverage,
        m.recovered,
        m.mean_time_to_recovery_us
    );
    println!(
        "bursts {:>6}   device-hours {:.6}   bursts/device-hour {:.1}",
        m.bursts, m.device_hours, m.bursts_per_device_hour
    );
    println!(
        "throughput: {fleet_sps:.1} fleet shots/s ({rounds_per_sec:.0} replica-rounds/s), wall \
         {wall:.2}s"
    );
    println!(
        "execution layer: degraded {}   retried chunks {}   failed chunks {}   max cache \
         entries {} (ceiling {})",
        res.degraded_shots(),
        res.retried_chunks(),
        res.failed_chunks(),
        res.max_cache_entries(),
        cfg.cache_capacity
    );
    println!(
        "flight recorder: {} entries ({} strike onsets, {} alarms)   first retry round {}",
        res.flight.len(),
        m.strikes,
        m.detected,
        res.first_retry_round().map_or("-".into(), |r| r.to_string())
    );
    sink.emit("fleet", &res.to_csv());
    sink.emit("fleet_patches", &res.patch_csv());

    let mut report = Report::new("BENCH_fleet.json");
    report.gate("campaign complete", res.complete, res.complete);
    report.gate("zero degraded shots", res.degraded_shots(), res.degraded_shots() == 0);
    let failures = (res.failed_chunks(), res.retried_chunks());
    let observed = format!("{} failed, {} retried", failures.0, failures.1);
    report.gate("zero chunk failures and retries", observed, failures == (0, 0));
    let cache = res.max_cache_entries();
    let ceiling = format!("caches under ceiling {}", cfg.cache_capacity);
    report.gate(&ceiling, cache, cache <= cfg.cache_capacity);

    report.merge(&res.snapshot);
    let snap = &res.snapshot;
    report.row(
        Row::default()
            .field("workload", "fleet_rep5")
            .field("code", cfg.code.name())
            .field("patches", patches)
            .field("rounds", rounds)
            .field("shots", shots)
            .field("seed", seed)
            .field("strikes", m.strikes)
            .field("detected", m.detected)
            .field("detection_coverage", m.detection_coverage)
            .field("bursts", m.bursts)
            .field("bursts_per_device_hour", m.bursts_per_device_hour)
            .field("recovered", m.recovered)
            .field("time_to_recovery_us", m.mean_time_to_recovery_us)
            .field("total_events", m.total_events)
            .field("fleet_shots_per_sec", fleet_sps)
            .field("replica_rounds_per_sec", rounds_per_sec)
            .field("degraded_shots", res.degraded_shots())
            .field("retried_chunks", res.retried_chunks())
            .field("failed_chunks", res.failed_chunks())
            .field("first_retry_round", res.first_retry_round())
            .field("flight_entries", res.flight.len())
            .field("cache_entries", res.max_cache_entries())
            .latency_us(snap, names::STAGE_DECODE_NS, "decode_latency_us")
            .percentiles(snap, names::DETECT_LATENCY_ROUNDS, "detection_latency_rounds")
            .percentiles(snap, names::FLEET_TIME_TO_RECOVERY_US, "time_to_recovery_us")
            .latency_us_p99(snap, names::STREAM_ROUND_NS, "round_latency_us")
            .field("complete", res.complete),
    );
    report.write();
}
