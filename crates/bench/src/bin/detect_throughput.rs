//! Online radiation-event detection: the strike-position × detector ×
//! code-distance sweep plus the streaming pipeline's per-stage throughput
//! (generate / extract / detect), emitting a `BENCH_detect.json`
//! trajectory entry and (with `--csv <path>`) the per-row ROC/latency CSV.
//!
//! The `xxzz55` workload at `--shots 10000` (the default) carries two
//! gates:
//!
//! * the ISSUE 3 acceptance run — on the native 9×9 mesh with
//!   paper-default noise, the CUSUM detector must separate strike from
//!   intrinsic-only streams with ROC AUC ≥ 0.9 at the central impact
//!   point, alarm within 3 rounds (median), and the spatial clusterer
//!   must localize the strike within 2 hops (median);
//! * the streaming throughput gate — `stream_shots_per_sec`
//!   (materialised generation) must be ≥ 1 561 800 shots/s, 3× the
//!   520.6 k shots/s the materialised generator measured before the
//!   streaming hot-path overhaul, with all detection metrics unchanged
//!   (streams bit-identical; see `tests/golden_stream.rs`). It is
//!   evaluated only at `--shots` ≥ 10 000.
//!
//! Per-stage timing runs on the incremental decode-as-you-stream pipeline
//! ([`StreamEngine::for_each_round`]): generation hands each round to the
//! consumer the moment its ops finish, the consumer feeds an
//! [`EventAccumulator`] (extract) and advances per-shot threshold/CUSUM
//! states ([`OnlineDetector::push`], detect). `round_latency_us` is the
//! mean wall-clock from a round becoming available to its detector states
//! being updated — the figure a real-time monitor would quote.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin detect_throughput \
//!     [--shots N] [--rounds N] [--seed N] [--csv PATH]
//! ```

use radqec_bench::{arg_flag, header, sweep_roots, workloads, CsvSink, Report, Row};
use radqec_core::experiments::{run_detection, DetectionConfig};
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_detect::{CusumDetector, EventAccumulator, OnlineDetector, ThresholdDetector};
use radqec_noise::{NoiseSpec, RadiationModel};
use radqec_telemetry::names;
use std::sync::Mutex;
use std::time::Instant;

/// Shots/s of raw multi-round stream generation (frame sampler, strike at
/// `root`) — the materialised `stream_batches` path, measured with the
/// same semantics as PR 3's `stream_shots_per_sec`.
fn stream_throughput(engine: &StreamEngine, root: u32) -> f64 {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root };
    let noise = NoiseSpec::paper_default();
    let _ = engine.stream_batches(&fault, &noise); // warm-up (reference, workspaces, skip tables)
    let start = Instant::now();
    let batches = engine.stream_batches(&fault, &noise);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&batches);
    engine.shots() as f64 / secs
}

/// Per-stage timing of the incremental decode-as-you-stream pipeline.
struct PipelineTiming {
    /// End-to-end wall clock of the overlapped pipeline (shots/s).
    pipeline_sps: f64,
    /// Extraction-stage rate (shots/s over accumulated stage time).
    extract_sps: f64,
    /// Detection-stage rate (shots/s over accumulated stage time).
    detect_sps: f64,
    /// Generation-stage rate, measured by a dedicated empty-sink pass of
    /// the incremental driver (shots/s) — well-defined on any worker
    /// count, unlike wall-minus-consumer-CPU arithmetic.
    generate_sps: f64,
    /// Mean wall-clock from a round landing to its detector states being
    /// current, in µs (per chunk-round).
    round_latency_us: f64,
}

/// Drive the incremental pipeline once: per-chunk [`EventAccumulator`]s
/// (extract) feeding per-shot threshold + CUSUM states (detect), all
/// updated the moment each round is generated.
fn pipeline_timing(engine: &StreamEngine, root: u32) -> PipelineTiming {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root };
    let noise = NoiseSpec::paper_default();
    let spec = engine.stream_spec();
    let cusum = CusumDetector::calibrated(1.0);
    let threshold = ThresholdDetector { threshold: 4.0 };

    struct ChunkState {
        acc: EventAccumulator,
        cusum: Vec<radqec_detect::CountDetectorState>,
        threshold: Vec<radqec_detect::CountDetectorState>,
        counts: Vec<u32>,
    }
    // One consumer slot per chunk; each chunk is driven by exactly one
    // worker, so the mutexes never contend.
    let slots: Vec<Mutex<Option<ChunkState>>> =
        (0..engine.num_chunks()).map(|_| Mutex::new(None)).collect();
    // Stage latencies land in the engine's registry as histograms, so
    // the JSON export gets percentiles, not just means.
    let extract_ns = engine.metrics().histogram(names::STAGE_EXTRACT_NS);
    let detect_ns = engine.metrics().histogram(names::STAGE_DETECT_NS);

    // Generation stage in isolation: the same incremental driver with a
    // sink that drops every round — first a warm-up, then the timed pass.
    // (Subtracting the consumer's summed per-worker CPU time from the
    // pipeline wall clock would go negative on multicore hosts, where the
    // stages genuinely overlap.)
    let drop_sink = |slice: radqec_core::streaming::RoundSlice| {
        std::hint::black_box(slice.round);
    };
    engine.for_each_round(&fault, &noise, drop_sink);
    let gen_start = Instant::now();
    engine.for_each_round(&fault, &noise, drop_sink);
    let generate_wall = gen_start.elapsed().as_secs_f64();

    let start = Instant::now();
    engine.for_each_round(&fault, &noise, |slice| {
        let mut slot = slots[slice.chunk].lock().expect("chunk slot poisoned");
        let state = slot.get_or_insert_with(|| ChunkState {
            acc: EventAccumulator::new(spec, slice.shots),
            cusum: vec![cusum.begin(); slice.shots],
            threshold: vec![threshold.begin(); slice.shots],
            counts: Vec::new(),
        });
        let t0 = Instant::now();
        state.acc.push_round(slice.round, slice.syndrome_rows());
        let t1 = Instant::now();
        // Baseline-free residuals, as in the detect-stage inner loop the
        // online monitor runs (calibration is the sweep's job).
        state.acc.stream().round_shot_counts(slice.round, &mut state.counts);
        for (s, &c) in state.counts.iter().enumerate() {
            cusum.push(&mut state.cusum[s], slice.round, f64::from(c));
            threshold.push(&mut state.threshold[s], slice.round, f64::from(c));
        }
        let t2 = Instant::now();
        extract_ns.record((t1 - t0).as_nanos() as u64);
        detect_ns.record((t2 - t1).as_nanos() as u64);
    });
    let wall = start.elapsed().as_secs_f64();
    let alarms: usize = slots
        .iter()
        .map(|slot| {
            slot.lock().expect("chunk slot poisoned").as_ref().map_or(0, |st| {
                st.cusum.iter().filter(|d| d.detection().alarm_round.is_some()).count()
                    + st.threshold.iter().filter(|d| d.detection().alarm_round.is_some()).count()
            })
        })
        .sum();
    std::hint::black_box(alarms);
    let shots = engine.shots() as f64;
    let extract_snap = extract_ns.snapshot();
    let detect_snap = detect_ns.snapshot();
    let extract = extract_snap.sum() as f64 * 1e-9;
    let detect = detect_snap.sum() as f64 * 1e-9;
    let rounds = extract_snap.count().max(1) as f64;
    PipelineTiming {
        pipeline_sps: shots / wall,
        extract_sps: shots / extract.max(1e-12),
        detect_sps: shots / detect.max(1e-12),
        generate_sps: shots / generate_wall.max(1e-12),
        round_latency_us: (extract + detect) / rounds * 1e6,
    }
}

fn main() {
    let shots: usize = arg_flag("shots", 10_000);
    let rounds: usize = arg_flag("rounds", 10);
    let seed: u64 = arg_flag("seed", 0xDE7EC7);
    let mut sink = CsvSink::from_args();
    let mut report = Report::new("BENCH_detect.json");
    for w in workloads() {
        let mut cfg = DetectionConfig::new(w.spec);
        cfg.shots = shots;
        cfg.rounds = rounds;
        cfg.seed = seed;
        let res = run_detection(&cfg);
        // The central root is the acceptance gates' impact point; the
        // first, the boundary ("corner") one of the calibration study.
        let roots = sweep_roots(res.rows.iter().map(|r| r.root));
        let root = roots[roots.len() / 2];
        let corner = roots[0];

        // The engine shares its transpile + reference with run_detection's
        // through the process-wide stream-context cache.
        let engine = StreamEngine::builder(w.spec, rounds).shots(shots).seed(seed).native().build();
        let stream_sps = stream_throughput(&engine, root);
        let pipe = pipeline_timing(&engine, root);
        let stats = engine.stream_stats();
        let snap = engine.metrics_snapshot();
        report.merge(&snap);

        // Boundary-calibration study: the same sweep's corner + central
        // roots with per-root null calibration on (cluster rows only).
        let mut norm_cfg = DetectionConfig::new(w.spec);
        norm_cfg.shots = shots;
        norm_cfg.rounds = rounds;
        norm_cfg.seed = seed;
        norm_cfg.roots = Some(vec![corner, root]);
        norm_cfg.boundary_norm = true;
        let norm_res = run_detection(&norm_cfg);
        let corner_raw = res.row(corner, "cluster").expect("corner cluster row").auc;
        let corner_norm = norm_res.row(corner, "cluster").expect("corner norm row").auc;

        header(&format!(
            "{} — {} on {}, {} rounds, {} shots/campaign",
            w.name,
            res.code_name,
            engine.topology().name(),
            rounds,
            shots
        ));
        println!(
            "stream generation: {stream_sps:>10.0} shots/s   incremental pipeline: \
             {:>10.0} shots/s",
            pipe.pipeline_sps
        );
        println!(
            "per stage: generate {:>10.0}  extract {:>10.0}  detect {:>10.0} shots/s   \
             round latency {:.1} µs",
            pipe.generate_sps, pipe.extract_sps, pipe.detect_sps, pipe.round_latency_us
        );
        if let Some(bounds) = snap
            .histogram(names::STREAM_ROUND_NS)
            .and_then(|h| Some((h.quantile(0.5)?, h.quantile(0.9)?, h.quantile(0.99)?)))
        {
            println!(
                "round latency percentiles: p50 {:.1} µs   p90 {:.1} µs   p99 {:.1} µs",
                bounds.0 as f64 * 1e-3,
                bounds.1 as f64 * 1e-3,
                bounds.2 as f64 * 1e-3
            );
        }
        println!(
            "stream stats: {} rounds, {} chunks ({} stolen), workspace {} allocs / {} reuses",
            stats.rounds_generated,
            stats.chunks_generated,
            stats.chunks_stolen,
            stats.workspace_allocations,
            stats.workspace_reuses
        );
        println!(
            "boundary calibration @ root {corner}: cluster auc {corner_raw:.3} raw vs \
             {corner_norm:.3} per-root-calibrated"
        );
        println!(
            "{:>6} {:>10} {:>7} {:>7} {:>7} {:>5} {:>5}",
            "root", "detector", "auc", "det", "fa", "lat", "loc"
        );
        for r in &res.rows {
            println!(
                "{:>6} {:>10} {:>7.3} {:>7.3} {:>7.4} {:>5} {:>5}",
                r.root,
                r.detector,
                r.auc,
                r.detection_rate,
                r.false_alarm_rate,
                r.median_latency_rounds.map_or("-".into(), |v| v.to_string()),
                r.median_loc_error_hops.map_or("-".into(), |v| v.to_string()),
            );
        }
        sink.emit(w.name, &res.to_csv());

        let cusum = res.row(root, "cusum").expect("cusum row");
        let cluster = res.row(root, "cluster").expect("cluster row");
        if w.acceptance {
            let auc = format!("{:.3}", cusum.auc);
            report.gate(&format!("cusum auc @ root {root} ≥ 0.9"), auc, cusum.auc >= 0.9);
            report.gate(
                "cusum median latency ≤ 3 rounds",
                format!("{:?}", cusum.median_latency_rounds),
                cusum.median_latency_rounds.is_some_and(|l| l <= 3),
            );
            report.gate(
                "cluster median localization ≤ 2 hops",
                format!("{:?}", cluster.median_loc_error_hops),
                cluster.median_loc_error_hops.is_some_and(|h| h <= 2),
            );
            if shots >= 10_000 {
                report.gate(
                    "stream_shots_per_sec ≥ 1561800",
                    format!("{stream_sps:.0}"),
                    stream_sps >= 1_561_800.0,
                );
            }
        }

        report.row(
            Row::default()
                .field("workload", w.name)
                .field("code", &res.code_name)
                .field("topology", engine.topology().name())
                .field("shots", shots)
                .field("rounds", rounds)
                .field("seed", seed)
                .field("central_root", root)
                .field("stream_shots_per_sec", stream_sps)
                .field("pipeline_shots_per_sec", pipe.pipeline_sps)
                .field("generate_shots_per_sec", pipe.generate_sps)
                .field("extract_shots_per_sec", pipe.extract_sps)
                .field("detect_shots_per_sec", pipe.detect_sps)
                .field("round_latency_us", pipe.round_latency_us)
                .latency_us(&snap, names::STREAM_ROUND_NS, "round_latency_us")
                .latency_us(&snap, names::STAGE_GENERATE_NS, "generate_latency_us")
                .latency_us_p99(&snap, names::STAGE_EXTRACT_NS, "extract_latency_us")
                .latency_us_p99(&snap, names::STAGE_DETECT_NS, "detect_latency_us")
                .field("rounds_generated", stats.rounds_generated)
                .field("chunks_stolen", stats.chunks_stolen)
                .field("workspace_allocations", stats.workspace_allocations)
                .field("workspace_reuses", stats.workspace_reuses)
                .field("cusum_auc", cusum.auc)
                .field("cusum_detection_rate", cusum.detection_rate)
                .field("cusum_false_alarm_rate", cusum.false_alarm_rate)
                .field("cusum_median_latency_rounds", cusum.median_latency_rounds)
                .field("cluster_auc", cluster.auc)
                .field("cluster_median_loc_error_hops", cluster.median_loc_error_hops)
                .field("corner_root", corner)
                .field("cluster_corner_auc_raw", corner_raw)
                .field("cluster_corner_auc_calibrated", corner_norm),
        );
    }
    report.write();
}
