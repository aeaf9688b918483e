//! The closed detect→decode loop: a central strike on a readout-terminated
//! xxzz-(3,3) memory, streamed round by round through the supervised
//! driver into an adaptive [`StreamDecoder`] (CUSUM detector → localize →
//! fitted mask → space-time windows).
//!
//! A *round* of this workload is one chunk-round through
//! [`StreamDecoder::ingest`].

use crate::json::Json;
use crate::stats::{median, p50_p99, share};
use crate::trace::Tracer;
use crate::{host, timed_reps, tracing_overhead, Check, Inputs, Metrics, Outcome};
use radqec_core::codes::{CodeSpec, XxzzCode};
use radqec_core::decoder::{StreamDecodeReport, StreamDecoder, StreamDecoderConfig, TierConfig};
use radqec_core::experiments::{calibrate_stream, central_root};
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_noise::{NoiseSpec, RadiationModel};
use radqec_telemetry::names;
use std::sync::Mutex;
use std::time::Instant;

/// The stream workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub code: XxzzCode,
    /// Syndrome rounds per replica (the last carries the data readout).
    pub rounds: usize,
    /// Replicas per campaign.
    pub shots: usize,
    /// Replicas per chunk: 8192 / 128 = 64 chunks × 10 rounds = 640
    /// chunk-rounds per campaign, so one campaign alone puts six samples
    /// beyond the p99 and every run of three or more campaigns puts at
    /// least ten there.
    pub chunk: usize,
}

impl StreamConfig {
    /// `stream_xxzz33_strike`.
    pub fn xxzz33_strike() -> Self {
        StreamConfig { code: XxzzCode::new(3, 3), rounds: 10, shots: 8192, chunk: 128 }
    }

    fn noise() -> NoiseSpec {
        NoiseSpec::paper_default()
    }

    /// Build the engine on the code's native SWAP-free embedding. The
    /// topology and placement are passed explicitly so every build
    /// transpiles afresh: the builder's `native()` shortcut would serve
    /// every build after the first from a process-wide cache and hide
    /// set-up cost.
    pub fn engine(&self, inputs: Inputs) -> StreamEngine {
        let spec: CodeSpec = self.code.into();
        let (topology, layout) = spec.native_embedding().expect("xxzz codes embed natively");
        StreamEngine::builder(spec, self.rounds)
            .topology(topology)
            .initial_layout(layout)
            .final_readout()
            .shots(self.shots)
            .frame_chunk(self.chunk)
            .seed(inputs.engine_seed)
            .build()
    }
}

/// Set-up times of one repetition.
#[derive(Debug, Clone, Copy)]
struct Setup {
    engine_s: f64,
    calibrate_s: f64,
    decoder_s: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.engine_s + self.calibrate_s + self.decoder_s
    }
}

/// Engine build and quiet-stream calibration, each timed. The caller
/// builds the decoder (it borrows the engine) and fills in its time.
fn set_up(cfg: &StreamConfig, inputs: Inputs) -> (StreamEngine, StreamDecoderConfig, Setup) {
    let t = Instant::now();
    let engine = cfg.engine(inputs);
    let engine_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (baseline, sigma) = calibrate_stream(&engine, &StreamConfig::noise());
    let calibrate_s = t.elapsed().as_secs_f64();
    let decoder_cfg = StreamDecoderConfig { baseline, sigma, ..StreamDecoderConfig::default() };
    (engine, decoder_cfg, Setup { engine_s, calibrate_s, decoder_s: 0.0 })
}

fn strike(engine: &StreamEngine) -> StreamFault {
    StreamFault::Strike { model: RadiationModel::default(), root: central_root(engine) }
}

/// One timed repetition.
struct Rep {
    setup: Setup,
    wall_s: f64,
    round_us: Vec<f64>,
    report: StreamDecodeReport,
    chunks: u64,
    chunks_stolen: u64,
    chunk_retries: u64,
    failed_chunks: u64,
    failed_shots: u64,
    degraded: u64,
}

/// The supervised multi-worker campaign with each `ingest` call timed.
fn timed_rep(cfg: &StreamConfig, inputs: Inputs) -> Rep {
    let (engine, decoder_cfg, mut setup) = set_up(cfg, inputs);
    let t = Instant::now();
    let decoder = StreamDecoder::new(&engine, decoder_cfg, TierConfig::default());
    setup.decoder_s = t.elapsed().as_secs_f64();
    let fault = strike(&engine);
    let round_us = Mutex::new(Vec::with_capacity(engine.num_chunks() * cfg.rounds));
    let t = Instant::now();
    let campaign = engine
        .for_each_round_supervised(
            &fault,
            &StreamConfig::noise(),
            |_| false,
            |slice| {
                let t0 = Instant::now();
                decoder.ingest(slice);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                round_us.lock().expect("no sink panics while holding the lock").push(us);
            },
        )
        .expect("the central root lies on the device");
    let wall_s = t.elapsed().as_secs_f64();
    let failed_shots = campaign
        .failures
        .iter()
        .map(|f| cfg.chunk.min(cfg.shots - f.chunk * cfg.chunk) as u64)
        .sum();
    Rep {
        setup,
        wall_s,
        round_us: round_us.into_inner().expect("workers have joined"),
        report: decoder.report(),
        chunks: campaign.chunks_completed,
        chunks_stolen: engine.stream_stats().chunks_stolen,
        chunk_retries: campaign.chunk_retries,
        failed_chunks: campaign.failures.len() as u64,
        failed_shots,
        degraded: engine.metrics().snapshot().counter(names::DECODE_DEGRADED),
    }
}

/// What a single-thread replay produced.
pub struct Replay {
    pub engine: StreamEngine,
    pub report: StreamDecodeReport,
    /// Live space-time solve contexts after the campaign.
    pub contexts: usize,
    /// Wall time of the campaign (set-up excluded).
    pub wall_s: f64,
}

/// The campaign on one thread through the pull-based round stream, so
/// `tracer` can time generation (`RoundStream::next`) apart from the sink
/// (`StreamDecoder::ingest`). Chunk streams are deterministic per chunk,
/// so the replay sees exactly the multi-worker campaign's shots.
pub fn replay(cfg: &StreamConfig, inputs: Inputs, tracer: &mut Tracer) -> Replay {
    let (engine, decoder_cfg, _) = set_up(cfg, inputs);
    let (report, contexts, wall_s) = {
        let decoder = StreamDecoder::new(&engine, decoder_cfg, TierConfig::default());
        let fault = strike(&engine);
        let mut stream = engine.round_stream(&fault, &StreamConfig::noise());
        let t = Instant::now();
        tracer.span("campaign", |tr| {
            for _ in 0..engine.num_chunks() {
                tr.span("chunk", |tr| {
                    for _ in 0..cfg.rounds {
                        let slice = tr
                            .span("sampler", |_| stream.next())
                            .expect("one slice per chunk-round");
                        tr.span("stream_decoder", |_| decoder.ingest(slice));
                    }
                });
            }
        });
        let wall_s = t.elapsed().as_secs_f64();
        assert!(stream.next().is_none(), "the stream ends after its last chunk-round");
        let (unmasked, masked) = decoder.decoder().context_counts();
        (decoder.report(), unmasked + masked, wall_s)
    };
    Replay { engine, report, contexts, wall_s }
}

/// Run the workload: timed phase, traced replay, checks.
pub fn run(cfg: &StreamConfig, inputs: Inputs, seconds: f64, traced: bool) -> Outcome {
    let timed = timed_reps(seconds, || timed_rep(cfg, inputs));
    let reps = &timed.reps;

    let mut tracer = Tracer::new();
    let traced_replay = replay(cfg, inputs, &mut tracer);
    let first = reps[0].report;
    let checks = vec![
        Check {
            name: "supervised_ler_equals_replay_ler",
            passed: traced_replay.report.errors == first.errors
                && traced_replay.report.shots == first.shots
                && first.shots == cfg.shots as u64,
            detail: format!(
                "supervised {}/{} vs single-thread {}/{} errors/shots",
                first.errors, first.shots, traced_replay.report.errors, traced_replay.report.shots
            ),
        },
        Check {
            name: "no_failed_chunks",
            passed: reps.iter().all(|r| r.failed_chunks == 0),
            detail: format!("{} failed chunks", reps.iter().map(|r| r.failed_chunks).sum::<u64>()),
        },
        Check {
            name: "ler_identical_across_reps",
            passed: reps.iter().all(|r| r.report == first),
            detail: format!("{} repetitions", reps.len()),
        },
    ];

    let mut m = Metrics::default();
    let timing = timed.timing_reps();
    let round_us: Vec<f64> = timing.iter().flat_map(|r| r.round_us.iter().copied()).collect();
    let (p50, p99) = p50_p99(&round_us);
    let setup =
        |f: fn(&Setup) -> f64| median(&timing.iter().map(|r| f(&r.setup)).collect::<Vec<_>>());
    m.set("setup_s", setup(Setup::total));
    m.set(
        "shots_per_s",
        median(&timing.iter().map(|r| cfg.shots as f64 / r.wall_s).collect::<Vec<_>>()),
    );
    m.set("round_us_p50", p50);
    m.set("round_us_p99", p99);
    m.set("ler", first.ler());
    m.set("peak_rss_mb", timed.peak_rss_mb);

    let failed_checks = checks.iter().filter(|c| !c.passed).count() as u64;
    let attempted = cfg.shots as u64 * reps.len() as u64 + checks.len() as u64;
    let failed = reps.iter().map(|r| r.failed_shots + r.degraded).sum::<u64>() + failed_checks;
    m.set("ok_share", 1.0 - share(failed, attempted));

    if traced {
        let overhead = tracing_overhead(|t| replay(cfg, inputs, t).wall_s);
        m.set("setup.engine_build_s", setup(|s| s.engine_s));
        m.set("setup.calibrate_s", setup(|s| s.calibrate_s));
        m.set("setup.decoder_build_s", setup(|s| s.decoder_s));
        let sum = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
        m.set("stream.chunks", sum(|r| r.chunks));
        m.set("stream.chunks_stolen", sum(|r| r.chunks_stolen));
        m.set("stream.chunk_retries", sum(|r| r.chunk_retries));
        m.set("stream.failed_chunks", sum(|r| r.failed_chunks));
        let workers = host::cpus().min(traced_replay.engine.num_chunks()) as f64;
        let ingest_s: f64 = round_us.iter().sum::<f64>() * 1e-6;
        let wall_s: f64 = timing.iter().map(|r| r.wall_s).sum();
        m.set("stream.sink_share", ingest_s / (wall_s * workers));
        layer_metrics(&mut m, cfg, &traced_replay, &tracer);
        m.set("trace.overhead_share", overhead);
    }

    let mut provenance = vec![
        ("code".into(), Json::str(traced_replay.engine.memory().name.clone())),
        ("topology".into(), Json::str(traced_replay.engine.topology().name())),
        ("root".into(), Json::from(central_root(&traced_replay.engine) as u64)),
        ("rounds".into(), Json::from(cfg.rounds)),
        ("shots_per_campaign".into(), Json::from(cfg.shots)),
        ("chunk_width".into(), Json::from(cfg.chunk)),
        ("chunks_per_campaign".into(), Json::from(traced_replay.engine.num_chunks())),
        ("round_samples".into(), Json::from(round_us.len())),
    ];
    provenance.extend(timed.provenance());
    Outcome { metrics: m, attempted, failed, checks, provenance, tracer }
}

/// Per-layer metrics from the traced replay.
fn layer_metrics(m: &mut Metrics, cfg: &StreamConfig, rep: &Replay, tracer: &Tracer) {
    let selfs = tracer.self_times_s();
    let wall = tracer.wall_s();
    let busy = |name: &str| selfs.get(name).copied().unwrap_or(0.0);

    let sampler_us: Vec<f64> = tracer.durations_s("sampler").iter().map(|s| s * 1e6).collect();
    let (s50, s99) = p50_p99(&sampler_us);
    m.set("sampler.busy_s", busy("sampler"));
    m.set("sampler.busy_share", busy("sampler") / wall);
    m.set("sampler.shots_per_s", cfg.shots as f64 / busy("sampler"));
    m.set("sampler.calls", sampler_us.len() as f64);
    m.set("sampler.call_us_p50", s50);
    m.set("sampler.call_us_p99", s99);
    let stats = rep.engine.stream_stats();
    m.set("workspace.allocated", stats.workspace_allocations as f64);
    m.set("workspace.reused", stats.workspace_reuses as f64);

    let snap = rep.engine.metrics().snapshot();
    m.set("matching.solves", snap.counter(names::DECODE_MATCHINGS) as f64);

    m.set("stream_decoder.busy_s", busy("stream_decoder"));
    m.set("stream_decoder.busy_share", busy("stream_decoder") / wall);
    m.set(
        "stream_decoder.ns_per_shot_round",
        busy("stream_decoder") * 1e9 / (cfg.shots * cfg.rounds) as f64,
    );
    m.set("stream_decoder.alarms", rep.report.chunk_alarms as f64);
    // No alarm anywhere reads as the round count: "not within the stream".
    m.set(
        "stream_decoder.first_alarm_round",
        rep.report.first_alarm_round.unwrap_or(cfg.rounds) as f64,
    );
    let solves = snap.counter(names::DECODE_CACHE_HITS)
        + snap.counter(names::DECODE_ANALYTIC)
        + snap.counter(names::DECODE_MATCHINGS);
    m.set(
        "spacetime.trivial_share",
        share(snap.counter(names::DECODE_TRIVIAL), snap.counter(names::DECODE_SHOTS)),
    );
    m.set("spacetime.cache_hit_share", share(snap.counter(names::DECODE_CACHE_HITS), solves));
    m.set("spacetime.matching_share", share(snap.counter(names::DECODE_MATCHINGS), solves));
    m.set("spacetime.contexts", rep.contexts as f64);

    m.set("trace.wall_s", wall);
    m.set("trace.unattributed_share", (busy("campaign") + busy("chunk")) / wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StreamConfig {
        StreamConfig { shots: 256, chunk: 64, ..StreamConfig::xxzz33_strike() }
    }

    #[test]
    fn same_seed_gives_identical_ler_and_checks() {
        let inputs = Inputs { engine_seed: 3 };
        let a = run(&tiny(), inputs, 0.0, true);
        let b = run(&tiny(), inputs, 0.0, false);
        assert!(a.correct(), "{:?}", a.checks);
        assert_eq!(a.metrics.get("ler"), b.metrics.get("ler"));
        let verdicts =
            |o: &Outcome| o.checks.iter().map(|c| (c.name, c.passed)).collect::<Vec<_>>();
        assert_eq!(verdicts(&a), verdicts(&b));
        assert_eq!(a.metrics.get("sampler.calls"), 40.0, "4 chunks × 10 rounds");
        assert!(a.metrics.get("stream_decoder.alarms") > 0.0, "a certain central strike alarms");
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let cfg = tiny();
        let batches = |seed| {
            let engine = cfg.engine(Inputs { engine_seed: seed });
            engine.stream_batches(&strike(&engine), &StreamConfig::noise())
        };
        assert_eq!(batches(1), batches(1));
        assert_ne!(batches(1), batches(2));
    }
}
