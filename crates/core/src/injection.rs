//! The fault-injection engine: builds a code, transpiles it onto a
//! topology, and measures post-decoding logical error rates under intrinsic
//! noise and injected faults — the machinery behind all four of the paper's
//! analyses (Sec. V).

use crate::codes::{CodeCircuit, CodeSpec};
use crate::decoder::{Decoder, DecoderKind, DecoderMask};
#[doc(hidden)]
pub use crate::sampling::mix_seed;
pub use crate::sampling::{EngineBuilder, WorkspaceStats};
use crate::sampling::{Host, ShotPlan, Streams};
use radqec_circuit::ShotBatch;
use radqec_noise::{FaultSpec, NoiseSpec, ResetBasis};
use radqec_telemetry::MetricsRegistry;
use radqec_topology::Topology;
use radqec_transpiler::Transpiled;
use rayon::prelude::*;
use std::sync::Arc;

/// Which Monte-Carlo sampler backs [`InjectionEngine`] shots.
///
/// See `radqec_stabilizer`'s crate docs for the full comparison; in short:
/// the frame batch is 1–3 orders of magnitude faster and exact wherever
/// fault resets hit reference-eigenstate points (all repetition-code
/// workloads, all intrinsic-noise-only runs), while the per-shot tableau is
/// exact everywhere and serves as the oracle for cross-validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Bit-packed Pauli-frame batch sampler (64 shots per word) — default.
    #[default]
    FrameBatch,
    /// One CHP tableau replay per shot — the exact reference path.
    Tableau,
}

/// Smallest and largest automatic Pauli-frame batch sizes (see
/// [`default_frame_chunk`]).
const FRAME_CHUNK_MIN: usize = 256;
const FRAME_CHUNK_MAX: usize = 4096;

/// Shots per Pauli-frame batch for a campaign of `shots` shots.
///
/// Derived from the shot count only — never from the core count — so a
/// seed's results are identical on every machine (the per-chunk RNG streams
/// depend on chunk boundaries). Aims for ~16 chunks of word-aligned
/// (multiple-of-64) size, clamped to [256, 4096]: the default 1000-shot
/// campaign keeps its historical 4×256 split (bit-identical to PR 1), while
/// 10⁵-shot sweeps get 4096-shot batches.
///
/// Chunk size used to trade parallelism against decode-memo effectiveness
/// (the per-batch memo was split across chunks); with the engine-level
/// cross-batch syndrome cache that coupling is gone and this is purely a
/// parallel-balance / working-set knob. Override per workload with
/// [`EngineBuilder::frame_chunk`].
pub fn default_frame_chunk(shots: usize) -> usize {
    let target = shots.div_ceil(16);
    let aligned = target.div_ceil(64) * 64;
    aligned.clamp(FRAME_CHUNK_MIN, FRAME_CHUNK_MAX)
}

/// Fluent configuration for [`InjectionEngine`]: the shared
/// [`EngineBuilder`] options plus the decoder.
pub type InjectionEngineBuilder = EngineBuilder<DecoderKind>;

impl InjectionEngineBuilder {
    /// Select the decoder (default MWPM).
    pub fn decoder(mut self, kind: DecoderKind) -> Self {
        self.options = kind;
        self
    }

    /// Build the engine (runs the transpiler once).
    pub fn build(self) -> InjectionEngine {
        let plan = self.plan(Streams::INJECTION);
        let code = self.spec.build();
        let host = Host::build(&code.circuit, &code.name, self.topology, self.initial_layout);
        // The decoder records into the engine's registry, so one snapshot
        // covers workspace gauges and the whole `decode.*` family.
        let metrics = Arc::new(MetricsRegistry::new());
        let decoder = self.options.build_with_metrics(&code, Arc::clone(&metrics));
        InjectionEngine { code, host, decoder, plan, metrics }
    }
}

/// A ready-to-run injection campaign for one (code, topology) pair.
pub struct InjectionEngine {
    code: CodeCircuit,
    /// Topology, transpiled circuit and the frame sampler's reference
    /// trace (computed on the first sample, shared by every later one).
    host: Host,
    decoder: Box<dyn Decoder>,
    plan: ShotPlan,
    /// Per-engine metrics registry — [`Self::workspace_stats`] mirrors
    /// the pool counters into its gauges on read.
    metrics: Arc<MetricsRegistry>,
}

impl InjectionEngine {
    /// Start configuring an engine for `spec`.
    pub fn builder(spec: CodeSpec) -> InjectionEngineBuilder {
        EngineBuilder::new(spec, DecoderKind::default())
    }

    /// The sampler backing this engine's shots.
    pub fn sampler(&self) -> SamplerKind {
        self.plan.sampler
    }

    /// The assembled (logical) code.
    pub fn code(&self) -> &CodeCircuit {
        &self.code
    }

    /// The architecture graph in use.
    pub fn topology(&self) -> &Topology {
        &self.host.topology
    }

    /// The transpiled physical circuit and layouts.
    pub fn transpiled(&self) -> &Transpiled {
        &self.host.transpiled
    }

    /// Physical qubits the routed circuit actually uses.
    pub fn used_physical_qubits(&self) -> Vec<u32> {
        self.host.transpiled.used_physical_qubits()
    }

    /// Shots per temporal sample.
    pub fn shots(&self) -> usize {
        self.plan.shots
    }

    /// Shots per Pauli-frame batch in use.
    pub fn frame_chunk(&self) -> usize {
        self.plan.frame_chunk
    }

    /// Tier statistics of the engine's decoder, when it tracks them (the
    /// default MWPM decoder does; see
    /// [`DecoderStats`](crate::decoder::DecoderStats)). Accumulates across
    /// every sample and batch of the engine's lifetime — the engine-level
    /// syndrome cache in action.
    pub fn decoder_stats(&self) -> Option<crate::decoder::DecoderStats> {
        self.decoder.decode_stats()
    }

    /// Logical error rate at one temporal sample of `fault` (shot-parallel).
    pub fn logical_error_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
    ) -> f64 {
        self.error_rate(fault, noise, sample, ResetBasis::Z, None)
    }

    /// Like [`Self::logical_error_at_sample`], with an explicit reset basis
    /// (the X-basis variant backs the reset-basis ablation).
    pub fn logical_error_at_sample_in_basis(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        basis: ResetBasis,
    ) -> f64 {
        self.error_rate(fault, noise, sample, basis, None)
    }

    /// Strike-aware counterpart of [`Self::logical_error_at_sample`]: the
    /// same sampled shots (identical RNG streams — estimates are *paired*
    /// with the unaware run), decoded with `mask` feeding the decoder's
    /// reweighting layer ([`Decoder::decode_batch_masked`]). The caller
    /// owns the mask's temporal decay: pass
    /// [`DecoderMask::scaled`](crate::decoder::DecoderMask::scaled) by the
    /// transient's `T(t_k)` to track the event across samples.
    pub fn masked_logical_error_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        mask: &DecoderMask,
    ) -> f64 {
        self.error_rate(fault, noise, sample, ResetBasis::Z, Some(mask))
    }

    /// The engine's decoder (for harnesses that decode sampled batches
    /// themselves, e.g. the mitigation sweep's paired masked/unaware
    /// comparisons over one set of shots).
    pub fn decoder(&self) -> &dyn Decoder {
        self.decoder.as_ref()
    }

    /// The one sampling path behind every logical-error estimate: sample
    /// the shots of temporal sample `sample`, batch-decode them (through
    /// the reweighting layer when `mask` is set) and count failures.
    ///
    /// The frame sampler replays bit-packed Pauli frames — 64 shots per
    /// word — chunk-parallel against one noiseless reference. The tableau
    /// oracle replays one CHP tableau per shot and packs the records into
    /// one batch, so both samplers decode through the same tiered batch
    /// pipeline (decoders are pure functions of the record, so batch and
    /// per-shot decoding agree bit for bit).
    fn error_rate(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        basis: ResetBasis,
        mask: Option<&DecoderMask>,
    ) -> f64 {
        let active = fault.activate(&self.host.topology, sample).with_basis(basis);
        let segments = [(0, &active)];
        let failures = |batch: &ShotBatch| {
            let ok = match mask {
                Some(mask) => self.decoder.decode_batch_masked(batch, mask),
                None => self.decoder.decode_batch(batch),
            };
            ok.into_iter().filter(|&ok| !ok).count()
        };
        let (host, plan) = (&self.host, &self.plan);
        let errors: usize = match plan.sampler {
            SamplerKind::FrameBatch => {
                let reference = plan.reference(host);
                (0..plan.num_chunks())
                    .into_par_iter()
                    .map(|chunk| {
                        failures(
                            &plan.frame_batch(host, &reference, &segments, noise, sample, chunk),
                        )
                    })
                    .sum()
            }
            SamplerKind::Tableau => {
                failures(&plan.tableau(host, &segments, noise, sample, 0, plan.shots))
            }
        };
        errors as f64 / plan.shots as f64
    }

    /// Workspace-pool counters over the engine's lifetime: on a warm pool
    /// further campaigns must not allocate at all (pinned by the
    /// `warm_campaigns_allocate_nothing` regression test). Pooled
    /// (returned) workspaces only — read between campaigns, not
    /// mid-flight. Reading mirrors the counts into the engine registry's
    /// `workspace.*` gauges.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.plan.workspaces.stats(&self.metrics)
    }

    /// This engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The frame sampler's bit-packed record batches for one temporal
    /// sample — the exact chunk grid and RNG streams
    /// [`Self::logical_error_at_sample`] decodes (Z reset basis), exposed
    /// so decode-path benchmarks and offline record analysis can run on a
    /// campaign's true syndrome mix.
    pub fn frame_batches_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
    ) -> Vec<ShotBatch> {
        let active = fault.activate(&self.host.topology, sample).with_basis(ResetBasis::Z);
        let reference = self.plan.reference(&self.host);
        (0..self.plan.num_chunks())
            .map(|chunk| {
                self.plan.frame_batch(&self.host, &reference, &[(0, &active)], noise, sample, chunk)
            })
            .collect()
    }

    /// Run the full fault evolution: one logical-error estimate per temporal
    /// sample (a single sample for non-evolving faults).
    pub fn run(&self, fault: &FaultSpec, noise: &NoiseSpec) -> InjectionOutcome {
        let per_sample: Vec<f64> = (0..fault.num_samples())
            .map(|s| self.logical_error_at_sample(fault, noise, s))
            .collect();
        InjectionOutcome { per_sample, shots_per_sample: self.plan.shots }
    }
}

/// Aggregated result of an injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionOutcome {
    /// Logical error rate at each temporal sample of the fault.
    pub per_sample: Vec<f64>,
    /// Shots contributing to each estimate.
    pub shots_per_sample: usize,
}

impl InjectionOutcome {
    /// Mean logical error over the fault's whole duration.
    pub fn logical_error_rate(&self) -> f64 {
        crate::stats::mean(&self.per_sample)
    }

    /// Median logical error over the fault's duration (the paper's Fig. 8
    /// per-qubit statistic).
    pub fn median_logical_error(&self) -> f64 {
        crate::stats::median(&self.per_sample)
    }

    /// Worst (impact-time) logical error.
    pub fn peak_logical_error(&self) -> f64 {
        self.per_sample.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
    use radqec_noise::RadiationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_faultless_runs_have_zero_logical_error() {
        for spec in [
            CodeSpec::from(RepetitionCode::bit_flip(3)),
            CodeSpec::from(RepetitionCode::bit_flip(5)),
            CodeSpec::from(XxzzCode::new(3, 3)),
            CodeSpec::from(XxzzCode::new(3, 1)),
            CodeSpec::from(XxzzCode::new(1, 3)),
        ] {
            let engine = InjectionEngine::builder(spec).shots(64).seed(1).build();
            let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
            assert_eq!(out.logical_error_rate(), 0.0, "{}", engine.code().name);
        }
    }

    #[test]
    fn default_topology_matches_paper_lattices() {
        let e = InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(1).build();
        assert_eq!(e.topology().name(), "mesh5x2");
        let e = InjectionEngine::builder(XxzzCode::new(3, 3).into()).shots(1).build();
        assert_eq!(e.topology().name(), "mesh5x4");
    }

    #[test]
    fn certain_root_strike_causes_errors() {
        let engine =
            InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(200).seed(3).build();
        let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
        let at_impact = engine.logical_error_at_sample(&fault, &NoiseSpec::noiseless(), 0);
        assert!(at_impact > 0.05, "impact error rate {at_impact}");
        // Late in the event the fault has decayed to near-nothing.
        let late = engine.logical_error_at_sample(&fault, &NoiseSpec::noiseless(), 9);
        assert!(late < at_impact, "late {late} vs impact {at_impact}");
    }

    #[test]
    fn outcome_statistics() {
        let o = InjectionOutcome { per_sample: vec![0.5, 0.1, 0.3], shots_per_sample: 10 };
        assert!((o.logical_error_rate() - 0.3).abs() < 1e-12);
        assert!((o.median_logical_error() - 0.3).abs() < 1e-12);
        assert_eq!(o.peak_logical_error(), 0.5);
    }

    #[test]
    fn runs_are_reproducible() {
        let engine =
            InjectionEngine::builder(XxzzCode::new(3, 3).into()).shots(100).seed(42).build();
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 1 };
        let a = engine.run(&fault, &NoiseSpec::paper_default());
        let b = engine.run(&fault, &NoiseSpec::paper_default());
        assert_eq!(a, b);
    }

    #[test]
    fn default_frame_chunk_policy() {
        // Historical default preserved: 1000-shot campaigns split 4×256.
        assert_eq!(default_frame_chunk(1000), 256);
        assert_eq!(default_frame_chunk(1), 256);
        assert_eq!(default_frame_chunk(100_000), 4096);
        // Word-aligned in the adaptive middle range.
        assert_eq!(default_frame_chunk(16_000) % 64, 0);
        assert!((256..=4096).contains(&default_frame_chunk(50_000)));
        let engine =
            InjectionEngine::builder(RepetitionCode::bit_flip(3).into()).shots(1000).build();
        assert_eq!(engine.frame_chunk(), 256);
        let engine = InjectionEngine::builder(RepetitionCode::bit_flip(3).into())
            .shots(1000)
            .frame_chunk(128)
            .build();
        assert_eq!(engine.frame_chunk(), 128);
    }

    #[test]
    fn frame_chunk_does_not_change_the_distribution_only_the_streams() {
        // Same campaign, different chunkings: logical error rates must agree
        // within sampling noise (they are different draws of the same
        // distribution, not the same draws).
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
        let rates: Vec<f64> = [256usize, 512]
            .iter()
            .map(|&chunk| {
                let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
                    .shots(4000)
                    .seed(9)
                    .frame_chunk(chunk)
                    .build();
                engine.logical_error_at_sample(&fault, &NoiseSpec::paper_default(), 0)
            })
            .collect();
        assert!((rates[0] - rates[1]).abs() < 0.05, "{rates:?}");
    }

    #[test]
    fn engine_cache_is_shared_across_samples_and_batches() {
        let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
            .shots(512)
            .seed(4)
            .frame_chunk(128) // four batches per sample
            .build();
        let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
        let _ = engine.run(&fault, &NoiseSpec::paper_default());
        let stats = engine.decoder_stats().expect("default decoder tracks stats");
        assert_eq!(stats.shots, 512 * 10, "10 temporal samples of 512 shots");
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.analytic + stats.matchings
        );
        // rep-5 is LUT-eligible: at most 2^8 distinct syndromes can ever
        // miss, everything else must be answered by the shared table.
        assert!(stats.matchings <= 256, "matchings {}", stats.matchings);
        assert!(
            stats.cache_hits > stats.matchings,
            "cache hits {} should dominate matchings {}",
            stats.cache_hits,
            stats.matchings
        );
    }

    #[test]
    fn warm_campaigns_allocate_nothing() {
        // The PR 4 workspace pool, ported to the offline engine: after the
        // first campaign warms the pool, a whole further fig-style sweep
        // (all temporal samples, several chunks each) must reuse every
        // pooled buffer without a single new allocation. Pool demand equals
        // peak chunk concurrency, which under the shared rayon pool depends
        // on scheduler timing (the second campaign may overlap more chunks
        // than the first ever did) — so pin the campaigns to one worker,
        // where both peak at exactly one workspace.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
                .shots(512)
                .seed(6)
                .frame_chunk(128)
                .build();
            let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
            let a = engine.run(&fault, &NoiseSpec::paper_default());
            let warm = engine.workspace_stats();
            assert!(warm.allocated > 0, "first campaign must have populated the pool");
            let b = engine.run(&fault, &NoiseSpec::paper_default());
            let after = engine.workspace_stats();
            assert_eq!(a, b, "pooling must not change the sampled streams");
            assert_eq!(after.allocated, warm.allocated, "warm campaign allocated buffers");
            assert!(after.reused > warm.reused, "reuse counter must grow: {}", after.reused);
            // Registry-backed view: the gauges mirror the struct.
            let snap = engine.metrics().snapshot();
            assert_eq!(snap.gauges["workspace.allocated"], after.allocated);
            assert_eq!(snap.gauges["workspace.reused"], after.reused);
        });
    }

    #[test]
    fn masked_decoding_with_noop_mask_matches_unaware() {
        use crate::decoder::DecoderMask;
        use radqec_circuit::Backend;
        use radqec_noise::run_noisy_shot;
        use radqec_stabilizer::StabilizerBackend;
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
            let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
                .shots(256)
                .seed(8)
                .sampler(sampler)
                .build();
            let unaware = engine.logical_error_at_sample(&fault, &noise, 0);
            let noop = DecoderMask::from_probs(vec![0.0; 5], vec![0.0; 4]);
            let masked = engine.masked_logical_error_at_sample(&fault, &noise, 0, &noop);
            assert_eq!(
                masked, unaware,
                "{sampler:?}: no-op mask must be bit-identical to unaware decoding"
            );
            let stats = engine.decoder_stats().unwrap();
            assert_eq!(
                stats.mask_contexts, 0,
                "{sampler:?}: no-op masks must not intern a context"
            );
            if sampler == SamplerKind::Tableau {
                // The packed, batch-decoded oracle counts exactly the
                // failures of a per-shot replay decoded one record at a
                // time on the same per-shot RNG streams.
                let active = fault.activate(engine.topology(), 0);
                let mut backend = StabilizerBackend::new(engine.topology().num_qubits());
                let failures = (0..engine.shots())
                    .filter(|&shot| {
                        let mut rng = StdRng::seed_from_u64(mix_seed(8, 0, shot as u64));
                        backend.reset_all();
                        let record = run_noisy_shot(
                            &engine.transpiled().circuit,
                            &mut backend,
                            &noise,
                            &active,
                            &mut rng,
                        );
                        !engine.decoder().decode(&record)
                    })
                    .count();
                assert_eq!(unaware, failures as f64 / engine.shots() as f64);
            }
        }
    }

    #[test]
    fn mix_seed_decorrelates() {
        let a = mix_seed(1, 0, 0);
        let b = mix_seed(1, 0, 1);
        let c = mix_seed(1, 1, 0);
        let d = mix_seed(2, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
