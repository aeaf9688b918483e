//! The paper's two-round injection campaign: a radiation strike at each
//! of a fixed set of roots, evaluated at every temporal sample of its
//! decay, on a freshly built [`InjectionEngine`] (frame sampler, tiered
//! MWPM decoder, paper noise).
//!
//! A *round* of this workload is one temporal sample of one strike: all
//! its shots sampled, decoded and scored by the engine's own workers.

use crate::json::Json;
use crate::stats::{median, p50_p99, share};
use crate::trace::Tracer;
use crate::{timed_reps, tracing_overhead, Check, Inputs, Metrics, Outcome};
use radqec_circuit::ShotBatch;
use radqec_core::codes::XxzzCode;
use radqec_core::decoder::{Decoder, DecoderKind, MwpmDecoder};
use radqec_core::injection::{InjectionEngine, InjectionOutcome};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_telemetry::{names, MetricsRegistry};
use radqec_topology::generators::{mesh, mesh_index};
use std::sync::Arc;
use std::time::Instant;

/// One injection workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct InjectConfig {
    pub code: XxzzCode,
    /// The device is a `mesh_side × mesh_side` mesh.
    pub mesh_side: u32,
    /// Shots per temporal sample.
    pub shots: usize,
    /// Struck physical qubits.
    pub roots: Vec<u32>,
}

impl InjectConfig {
    /// A square-mesh campaign struck at every qubit of the central qubit's
    /// checkerboard colour (even row + column), centre first: a fixed set
    /// that covers the device evenly.
    pub fn on_mesh(code: XxzzCode, mesh_side: u32, shots: usize) -> Self {
        let c = mesh_side / 2;
        let centre = mesh_index(c, c, mesh_side);
        let roots = std::iter::once(centre)
            .chain((0..mesh_side).flat_map(|r| {
                (0..mesh_side)
                    .filter(move |col| (r + col) % 2 == 0)
                    .map(move |col| mesh_index(r, col, mesh_side))
                    .filter(move |&q| q != centre)
            }))
            .collect();
        InjectConfig { code, mesh_side, shots, roots }
    }

    /// `inject_xxzz55`: past the lookup-table threshold, so most shots
    /// need a fresh matching.
    pub fn xxzz55() -> Self {
        InjectConfig::on_mesh(XxzzCode::new(5, 5), 9, 512)
    }

    /// `inject_xxzz33`: lookup-table sized, so sampling dominates.
    pub fn xxzz33() -> Self {
        InjectConfig::on_mesh(XxzzCode::new(3, 3), 5, 4096)
    }

    fn model() -> RadiationModel {
        RadiationModel::default()
    }

    fn noise() -> NoiseSpec {
        NoiseSpec::paper_default()
    }

    fn faults(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.roots.iter().map(|&root| FaultSpec::Radiation { model: Self::model(), root })
    }

    /// Shots per campaign: roots × temporal samples × shots per sample.
    pub fn campaign_shots(&self) -> u64 {
        (self.roots.len() * Self::model().num_samples * self.shots) as u64
    }

    /// Build the campaign's engine (code, topology, transpilation and its
    /// decoder).
    pub fn engine(&self, inputs: Inputs) -> InjectionEngine {
        InjectionEngine::builder(self.code.into())
            .topology(mesh(self.mesh_side, self.mesh_side))
            .shots(self.shots)
            .seed(inputs.engine_seed)
            .build()
    }
}

/// One timed repetition.
struct Rep {
    setup_s: f64,
    campaign_s: f64,
    round_us: Vec<f64>,
    ler: f64,
    degraded: u64,
}

/// The untraced campaign exactly as users run it: for each root, the
/// engine's per-sample evaluation over every temporal sample (what
/// [`InjectionEngine::run`] does), timed per sample.
fn timed_rep(cfg: &InjectConfig, inputs: Inputs) -> Rep {
    let t = Instant::now();
    let engine = cfg.engine(inputs);
    let setup_s = t.elapsed().as_secs_f64();
    let noise = InjectConfig::noise();
    let mut round_us = Vec::new();
    let mut lers = Vec::new();
    let t = Instant::now();
    for fault in cfg.faults() {
        let per_sample = (0..fault.num_samples())
            .map(|s| {
                let t0 = Instant::now();
                let rate = engine.logical_error_at_sample(&fault, &noise, s);
                round_us.push(t0.elapsed().as_secs_f64() * 1e6);
                rate
            })
            .collect();
        lers.push(
            InjectionOutcome { per_sample, shots_per_sample: cfg.shots }.logical_error_rate(),
        );
    }
    let campaign_s = t.elapsed().as_secs_f64();
    Rep {
        setup_s,
        campaign_s,
        round_us,
        ler: radqec_core::stats::mean(&lers),
        degraded: engine.decoder_stats().map_or(0, |s| s.degraded),
    }
}

/// Roots whose batches the reference decoder re-checks (the first ones,
/// centre included): the per-shot reference is far slower than the
/// campaign, so it sees a fixed subsample.
const CHECKED_ROOTS: usize = 5;

/// What a single-thread replay produced.
pub struct Replay {
    pub engine: InjectionEngine,
    pub ler: f64,
    /// Wall time of the campaign (engine build excluded).
    pub wall_s: f64,
    /// `(batch, bulk decode)` of the first batch at temporal samples 0 and
    /// `num_samples / 2` of the first [`CHECKED_ROOTS`] roots: the
    /// subsample the reference decoder re-checks.
    pub subsample: Vec<(ShotBatch, Vec<bool>)>,
}

/// The campaign on one thread, calling the sampler and the decoder
/// directly so `tracer` can time each: per temporal sample,
/// `frame_batches_at_sample` (sampler) then `decode_batch` per batch (bulk
/// decoder). Same chunk grid and RNG streams as the engine's own path.
pub fn replay(cfg: &InjectConfig, inputs: Inputs, tracer: &mut Tracer) -> Replay {
    let engine = cfg.engine(inputs);
    let noise = InjectConfig::noise();
    let samples = InjectConfig::model().num_samples;
    let checked = [0, samples / 2];
    let mut subsample = Vec::new();
    let t = Instant::now();
    let lers: Vec<f64> = tracer.span("campaign", |tr| {
        cfg.faults()
            .enumerate()
            .map(|(k, fault)| {
                let per_sample: Vec<f64> = (0..samples)
                    .map(|s| {
                        tr.span("sample", |tr| {
                            let batches = tr.span("sampler", |_| {
                                engine.frame_batches_at_sample(&fault, &noise, s)
                            });
                            let mut errors = 0usize;
                            for (i, batch) in batches.into_iter().enumerate() {
                                let ok = tr.span("bulk_decoder", |_| {
                                    engine.decoder().decode_batch(&batch)
                                });
                                errors += ok.iter().filter(|&&ok| !ok).count();
                                if k < CHECKED_ROOTS && i == 0 && checked.contains(&s) {
                                    subsample.push((batch, ok));
                                }
                            }
                            errors as f64 / engine.shots() as f64
                        })
                    })
                    .collect();
                radqec_core::stats::mean(&per_sample)
            })
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    Replay { engine, ler: radqec_core::stats::mean(&lers), wall_s, subsample }
}

/// Shot-by-shot agreement of the tiered bulk decode with the per-shot
/// reference decoder: `(shots compared, mismatches)`.
fn reference_mismatches(
    engine: &InjectionEngine,
    subsample: &[(ShotBatch, Vec<bool>)],
) -> (u64, u64) {
    let reference = MwpmDecoder::new(engine.code());
    let mut compared = 0;
    let mut mismatches = 0;
    for (batch, bulk) in subsample {
        for (shot, &ok) in bulk.iter().enumerate() {
            compared += 1;
            if reference.decode(&batch.record(shot)) != ok {
                mismatches += 1;
            }
        }
    }
    (compared, mismatches)
}

/// Median of `n` standalone constructions of the engine's decoder (the
/// engine builds one inside its own set-up; this times that part alone).
fn decoder_build_s(engine: &InjectionEngine, n: usize) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let decoder = DecoderKind::Mwpm
                .build_with_metrics(engine.code(), Arc::new(MetricsRegistry::new()));
            let s = t.elapsed().as_secs_f64();
            drop(decoder);
            s
        })
        .collect();
    median(&times)
}

/// Run the workload: timed phase, traced replay, checks.
pub fn run(cfg: &InjectConfig, inputs: Inputs, seconds: f64, traced: bool) -> Outcome {
    let timed = timed_reps(seconds, || timed_rep(cfg, inputs));
    let reps = &timed.reps;

    let mut tracer = Tracer::new();
    let traced_replay = replay(cfg, inputs, &mut tracer);
    let (compared, mismatches) =
        reference_mismatches(&traced_replay.engine, &traced_replay.subsample);
    let ler = reps[0].ler;
    let checks = vec![
        Check {
            name: "bulk_decode_matches_reference",
            passed: mismatches == 0 && compared > 0,
            detail: format!(
                "{mismatches} of {compared} subsampled shots disagree with MwpmDecoder"
            ),
        },
        Check {
            name: "traced_ler_equals_untraced_ler",
            passed: traced_replay.ler == ler,
            detail: format!("traced {} vs untraced {ler}", traced_replay.ler),
        },
        Check {
            name: "ler_identical_across_reps",
            passed: reps.iter().all(|r| r.ler == ler),
            detail: format!("{} repetitions", reps.len()),
        },
    ];

    let mut m = Metrics::default();
    let campaign_shots = cfg.campaign_shots();
    let timing = timed.timing_reps();
    let round_us: Vec<f64> = timing.iter().flat_map(|r| r.round_us.iter().copied()).collect();
    let (p50, p99) = p50_p99(&round_us);
    let setup: Vec<f64> = timing.iter().map(|r| r.setup_s).collect();
    m.set("setup_s", median(&setup));
    m.set(
        "shots_per_s",
        median(&timing.iter().map(|r| campaign_shots as f64 / r.campaign_s).collect::<Vec<_>>()),
    );
    m.set("round_us_p50", p50);
    m.set("round_us_p99", p99);
    m.set("ler", ler);
    m.set("peak_rss_mb", timed.peak_rss_mb);

    let failed_checks = checks.iter().filter(|c| !c.passed).count() as u64;
    let attempted = campaign_shots * reps.len() as u64 + checks.len() as u64;
    let failed = reps.iter().map(|r| r.degraded).sum::<u64>() + failed_checks;
    m.set("ok_share", 1.0 - share(failed, attempted));

    if traced {
        let overhead = tracing_overhead(|t| replay(cfg, inputs, t).wall_s);
        layer_metrics(&mut m, cfg, &traced_replay, &tracer);
        m.set("trace.overhead_share", overhead);
        m.set("setup.engine_build_s", median(&setup));
        m.set("setup.decoder_build_s", decoder_build_s(&traced_replay.engine, 5));
    }

    let mut provenance = vec![
        ("code".into(), Json::str(traced_replay.engine.code().name.clone())),
        ("topology".into(), Json::str(traced_replay.engine.topology().name())),
        ("roots".into(), Json::Arr(cfg.roots.iter().map(|&r| Json::from(r as u64)).collect())),
        ("shots_per_sample".into(), Json::from(cfg.shots)),
        ("temporal_samples".into(), Json::from(InjectConfig::model().num_samples)),
        ("shots_per_campaign".into(), Json::from(campaign_shots)),
        ("chunk_width".into(), Json::from(traced_replay.engine.frame_chunk())),
        ("round_samples".into(), Json::from(round_us.len())),
        ("reference_checked_shots".into(), Json::from(compared)),
    ];
    provenance.extend(timed.provenance());
    Outcome { metrics: m, attempted, failed, checks, provenance, tracer }
}

/// Per-layer metrics from the traced replay.
fn layer_metrics(m: &mut Metrics, cfg: &InjectConfig, rep: &Replay, tracer: &Tracer) {
    let selfs = tracer.self_times_s();
    let wall = tracer.wall_s();
    let busy = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let us = |name: &str| tracer.durations_s(name).iter().map(|s| s * 1e6).collect::<Vec<_>>();

    let sampler_us = us("sampler");
    let (s50, s99) = p50_p99(&sampler_us);
    m.set("sampler.busy_s", busy("sampler"));
    m.set("sampler.busy_share", busy("sampler") / wall);
    m.set("sampler.shots_per_s", cfg.campaign_shots() as f64 / busy("sampler"));
    m.set("sampler.calls", sampler_us.len() as f64);
    m.set("sampler.call_us_p50", s50);
    m.set("sampler.call_us_p99", s99);
    let ws = rep.engine.workspace_stats();
    m.set("workspace.allocated", ws.allocated as f64);
    m.set("workspace.reused", ws.reused as f64);

    let decode_us = us("bulk_decoder");
    let (d50, d99) = p50_p99(&decode_us);
    m.set("bulk_decoder.busy_s", busy("bulk_decoder"));
    m.set("bulk_decoder.busy_share", busy("bulk_decoder") / wall);
    m.set("bulk_decoder.batches", decode_us.len() as f64);
    m.set("bulk_decoder.batch_us_p50", d50);
    m.set("bulk_decoder.batch_us_p99", d99);
    let stats = rep.engine.decoder_stats().expect("the tiered MWPM decoder tracks stats");
    m.set("bulk_decoder.trivial_share", share(stats.trivial, stats.shots));
    m.set("bulk_decoder.cache_hit_share", share(stats.cache_hits, stats.shots));
    m.set("bulk_decoder.analytic_share", share(stats.analytic, stats.shots));
    m.set("bulk_decoder.matching_share", share(stats.matchings, stats.shots));
    m.set("bulk_decoder.cache_entries", stats.cache_entries as f64);
    m.set("bulk_decoder.cache_evictions", stats.cache_evictions as f64);
    m.set("bulk_decoder.degraded", stats.degraded as f64);
    m.set(
        "matching.solves",
        rep.engine.metrics().snapshot().counter(names::DECODE_MATCHINGS) as f64,
    );

    m.set("trace.wall_s", wall);
    m.set("trace.unattributed_share", (busy("campaign") + busy("sample")) / wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InjectConfig {
        let mut cfg = InjectConfig::xxzz33();
        cfg.shots = 128;
        cfg.roots.truncate(2);
        cfg
    }

    #[test]
    fn roots_include_the_centre() {
        let roots = InjectConfig::xxzz55().roots;
        assert_eq!((roots[0], roots.len()), (40, 41));
        assert_eq!(
            InjectConfig::xxzz33().roots,
            vec![12, 0, 2, 4, 6, 8, 10, 14, 16, 18, 20, 22, 24]
        );
    }

    #[test]
    fn same_seed_gives_identical_ler_and_checks() {
        let inputs = Inputs { engine_seed: 5 };
        let a = run(&tiny(), inputs, 0.0, true);
        let b = run(&tiny(), inputs, 0.0, false);
        assert!(a.correct(), "{:?}", a.checks);
        assert_eq!(a.metrics.get("ler"), b.metrics.get("ler"));
        let verdicts =
            |o: &Outcome| o.checks.iter().map(|c| (c.name, c.passed)).collect::<Vec<_>>();
        assert_eq!(verdicts(&a), verdicts(&b));
        assert!(a.metrics.get("sampler.calls") > 0.0);
        assert_eq!(b.metrics.get("sampler.calls"), 0.0, "untraced runs report no layers");
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let cfg = tiny();
        let fault = cfg.faults().next().expect("a root");
        let noise = InjectConfig::noise();
        let batch = |seed| {
            cfg.engine(Inputs { engine_seed: seed }).frame_batches_at_sample(&fault, &noise, 0)
        };
        assert_eq!(batch(1), batch(1));
        assert_ne!(batch(1), batch(2));
    }
}
