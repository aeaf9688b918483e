//! The engine core shared by the two campaign engines
//! ([`InjectionEngine`](crate::injection::InjectionEngine) and
//! [`StreamEngine`](crate::streaming::StreamEngine)).
//!
//! Both engines host a code circuit on a device, cut their shots into a
//! chunk grid, derive one RNG stream per chunk (frame sampler) or per shot
//! (tableau oracle), and replay those streams against a noiseless
//! reference. Each of those decisions is made once, here:
//!
//! * [`EngineBuilder`] — the one fluent builder: the six options both
//!   engines take (`topology`, `initial_layout`, `sampler`, `shots`, `seed`,
//!   `frame_chunk`), with each engine's own options carried in `K`;
//! * `Host` — placement and routing (`fitting_mesh` default, size check,
//!   transpilation) and the owner of the per-seed reference traces;
//! * `ShotPlan` — the chunk grid, the seed derivation (`Streams`: one salt
//!   table per engine, so each engine keeps its historical streams bit for
//!   bit), the pooled frame workspaces and the tableau replay.
//!
//! The engines keep what differs: their circuits (the two-round experiment
//! with its transversal logical operation vs the `R`-round memory), their
//! decoders and metrics, and the stream engine's round-by-round drivers.

use crate::codes::CodeSpec;
use crate::injection::{default_frame_chunk, SamplerKind};
use crate::intern::InternTable;
use radqec_circuit::{Backend, Circuit, ShotBatch};
use radqec_noise::{run_noisy_shot_segmented, ActiveFault, NoiseSpec, StreamWorkspace};
use radqec_stabilizer::{ReferenceTrace, StabilizerBackend};
use radqec_telemetry::{names, MetricsRegistry};
use radqec_topology::{generators::fitting_mesh, Topology};
use radqec_transpiler::{transpile, transpile_with_layout, Layout, TranspileOptions, Transpiled};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Arc, Mutex, PoisonError};

/// Fluent configuration shared by both engines
/// ([`InjectionEngineBuilder`](crate::injection::InjectionEngineBuilder) and
/// [`StreamEngineBuilder`](crate::streaming::StreamEngineBuilder)); `K`
/// carries each engine's own options.
pub struct EngineBuilder<K> {
    pub(crate) spec: CodeSpec,
    pub(crate) topology: Option<Topology>,
    pub(crate) initial_layout: Option<Vec<u32>>,
    pub(crate) sampler: SamplerKind,
    pub(crate) shots: usize,
    pub(crate) seed: u64,
    pub(crate) frame_chunk: Option<usize>,
    pub(crate) options: K,
}

impl<K> EngineBuilder<K> {
    /// Defaults: 1000 shots, seed 0, the frame sampler, and a host fitted
    /// to the code.
    pub(crate) fn new(spec: CodeSpec, options: K) -> Self {
        EngineBuilder {
            spec,
            topology: None,
            initial_layout: None,
            sampler: SamplerKind::default(),
            shots: 1000,
            seed: 0,
            frame_chunk: None,
            options,
        }
    }

    /// Override the architecture graph (default: the smallest 5×k mesh that
    /// fits the circuit, the paper's scaled-down 5×6 lattice).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Pin the initial logical→physical placement instead of searching
    /// (routing still runs; with a good table it inserts few or no SWAPs).
    /// The mitigation harness uses this to host codes on their native
    /// embeddings extended by a readout-ancilla seat.
    pub fn initial_layout(mut self, l2p: Vec<u32>) -> Self {
        self.initial_layout = Some(l2p);
        self
    }

    /// Select the shot sampler (default [`SamplerKind::FrameBatch`]).
    pub fn sampler(mut self, kind: SamplerKind) -> Self {
        self.sampler = kind;
        self
    }

    /// Shots per temporal sample / streamed campaign (default 1000).
    pub fn shots(mut self, shots: usize) -> Self {
        assert!(shots > 0, "need at least one shot");
        self.shots = shots;
        self
    }

    /// Master seed; every chunk (frame sampler) and every shot (tableau
    /// oracle) derives its own stream, so results are reproducible and
    /// independent of thread scheduling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the shots-per-frame-batch size (default:
    /// [`default_frame_chunk`] of the campaign's shot count). Changing it
    /// changes the per-chunk RNG streams, i.e. which shots are sampled —
    /// not the sampled distribution.
    pub fn frame_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "frame chunk must be positive");
        self.frame_chunk = Some(chunk);
        self
    }

    /// The shot plan these options describe, seeded by `streams`.
    pub(crate) fn plan(&self, streams: Streams) -> ShotPlan {
        ShotPlan {
            sampler: self.sampler,
            shots: self.shots,
            frame_chunk: self.frame_chunk.unwrap_or_else(|| default_frame_chunk(self.shots)),
            seed: self.seed,
            streams,
            workspaces: WorkspacePool::default(),
        }
    }
}

/// Ceiling on cached per-seed reference traces per host. A trace is
/// `O(ops × qubits)` bits, and a seed-sweeping campaign on a shared stream
/// context would otherwise grow the table without bound; LRU keeps the
/// handful of seeds a fleet actually cycles through warm.
pub(crate) const REFERENCE_CACHE_CAP: usize = 8;

/// A circuit placed and routed on a device, with the noiseless reference
/// traces of its frame sampler.
pub(crate) struct Host {
    pub(crate) topology: Topology,
    pub(crate) transpiled: Transpiled,
    /// Reference traces keyed by their derived seed (engines with
    /// different master seeds need different reference randomisations),
    /// LRU-capped at [`REFERENCE_CACHE_CAP`] entries.
    pub(crate) references: InternTable<u64, ReferenceTrace>,
}

impl Host {
    /// Transpile `circuit` (named `name` in errors) onto `topology`
    /// (default: the smallest fitting 5×k mesh), from `initial_layout` when
    /// pinned and by layout search otherwise.
    pub(crate) fn build(
        circuit: &Circuit,
        name: &str,
        topology: Option<Topology>,
        initial_layout: Option<Vec<u32>>,
    ) -> Host {
        let topology = topology.unwrap_or_else(|| fitting_mesh(circuit.num_qubits()));
        assert!(
            topology.num_qubits() >= circuit.num_qubits(),
            "topology {} too small for {name}",
            topology.name()
        );
        let opts = TranspileOptions::auto();
        let transpiled = match initial_layout {
            Some(l2p) => transpile_with_layout(
                circuit,
                &topology,
                Layout::new(l2p, topology.num_qubits()),
                &opts,
            ),
            None => transpile(circuit, &topology, &opts),
        };
        Host { topology, transpiled, references: InternTable::new(REFERENCE_CACHE_CAP) }
    }

    /// The noiseless reference trace for `seed`, computed once per (host,
    /// seed) and shared by every chunk, campaign and engine on this host.
    /// Admitting a seed past [`REFERENCE_CACHE_CAP`] evicts the
    /// least-recently-used trace; re-requesting it recomputes the same
    /// deterministic trace, so eviction never changes streams.
    pub(crate) fn reference(&self, seed: u64) -> Arc<ReferenceTrace> {
        self.references.get_or_build(seed, || {
            ReferenceTrace::compute(
                &self.transpiled.circuit,
                self.topology.num_qubits() as usize,
                seed,
            )
        })
    }
}

/// An engine's seed-derivation salts: which [`mix_seed`] stream the
/// reference trace, each frame chunk and each tableau shot draw from.
#[derive(Clone, Copy)]
pub(crate) struct Streams {
    /// Reference trace: `mix_seed(seed, reference, 0x5EED)`.
    reference: u64,
    /// Frame chunk: `mix_seed(seed ^ frame, sample, chunk)`.
    frame: u64,
    /// Tableau shot: `mix_seed(seed ^ tableau, sample, shot)`.
    tableau: u64,
}

impl Streams {
    /// The injection engine's streams.
    pub(crate) const INJECTION: Streams =
        Streams { reference: 0xFAB, frame: 0xF7A3_0000_0000_0001, tableau: 0 };
    /// The stream engine's streams (always at sample 0).
    pub(crate) const STREAM: Streams =
        Streams { reference: 0x57E4, frame: 0x57E4_0000_0000_0001, tableau: 0x57E4_0000_0000_0002 };
}

/// How an engine's shots are sampled: the sampler, the chunk grid, the
/// seed streams, and the pooled frame workspaces.
pub(crate) struct ShotPlan {
    pub(crate) sampler: SamplerKind,
    pub(crate) shots: usize,
    pub(crate) frame_chunk: usize,
    seed: u64,
    streams: Streams,
    /// Pooled per-worker stream workspaces, recycled across chunks,
    /// samples and whole campaigns.
    pub(crate) workspaces: WorkspacePool,
}

impl ShotPlan {
    /// Number of chunks on the grid.
    pub(crate) fn num_chunks(&self) -> usize {
        self.shots.div_ceil(self.frame_chunk)
    }

    /// Width of chunk `chunk` (the last chunk may run short).
    pub(crate) fn chunk_width(&self, chunk: usize) -> usize {
        self.frame_chunk.min(self.shots - chunk * self.frame_chunk)
    }

    /// The frame sampler's reference trace on `host`. Fetch it once per
    /// campaign or sample, before fanning out over chunks: the host's table
    /// builds a miss outside its lock, so racing chunk workers would each
    /// build it.
    pub(crate) fn reference(&self, host: &Host) -> Arc<ReferenceTrace> {
        host.reference(mix_seed(self.seed, self.streams.reference, 0x5EED))
    }

    /// The RNG of frame chunk `chunk` of temporal sample `sample` — one
    /// independent stream per (sample, chunk), identical no matter which
    /// worker claims it.
    pub(crate) fn chunk_rng(&self, sample: usize, chunk: usize) -> StdRng {
        StdRng::seed_from_u64(mix_seed(self.seed ^ self.streams.frame, sample as u64, chunk as u64))
    }

    /// Sample one whole frame chunk on a pooled workspace. Recycled
    /// workspaces replay a fresh buffer's exact draw sequence, so pooling
    /// never changes a stream.
    pub(crate) fn frame_batch(
        &self,
        host: &Host,
        reference: &ReferenceTrace,
        segments: &[(usize, &ActiveFault)],
        noise: &NoiseSpec,
        sample: usize,
        chunk: usize,
    ) -> ShotBatch {
        let mut rng = self.chunk_rng(sample, chunk);
        let mut ws = self.workspaces.take();
        let batch = ws.run_chunk(
            &host.transpiled.circuit,
            reference,
            noise,
            segments,
            host.topology.num_qubits() as usize,
            self.chunk_width(chunk),
            &mut rng,
        );
        self.workspaces.put(ws);
        batch
    }

    /// The tableau oracle for shots `first..first + width` of temporal
    /// sample `sample`: one full CHP replay per shot (shot-parallel, with
    /// each worker's backend allocation reused across its shots), packed
    /// into one record batch. Each shot draws from its own RNG stream,
    /// independent of which worker runs it.
    pub(crate) fn tableau(
        &self,
        host: &Host,
        segments: &[(usize, &ActiveFault)],
        noise: &NoiseSpec,
        sample: usize,
        first: usize,
        width: usize,
    ) -> ShotBatch {
        let circuit = &host.transpiled.circuit;
        let seed = self.seed ^ self.streams.tableau;
        let records: Vec<_> = (0..width)
            .into_par_iter()
            .map_init(
                || StabilizerBackend::new(host.topology.num_qubits()),
                |backend, shot| {
                    let mut rng =
                        StdRng::seed_from_u64(mix_seed(seed, sample as u64, (first + shot) as u64));
                    backend.reset_all();
                    run_noisy_shot_segmented(circuit, backend, noise, segments, &mut rng)
                },
            )
            .collect();
        let mut batch = ShotBatch::new(circuit.num_clbits(), width);
        for (shot, record) in records.iter().enumerate() {
            for c in 0..circuit.num_clbits() {
                if record.get(c) {
                    batch.flip(c, shot);
                }
            }
        }
        batch
    }
}

/// SplitMix64-style seed mixing: decorrelates per-(sample, shot) streams
/// from the master seed without any sequential dependency between shots.
#[inline]
pub fn mix_seed(seed: u64, sample: u64, shot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(sample.wrapping_add(1)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(shot.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Workspace-pool counters of an engine's lifetime (see
/// [`InjectionEngine::workspace_stats`](crate::injection::InjectionEngine::workspace_stats)).
/// Registry-backed: reading the stats refreshes the `workspace.allocated`
/// / `workspace.reused` gauges of the engine's registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffer allocations (frame/record/mask) over the engine's lifetime
    /// — stays flat once the pool is warm.
    pub allocated: u64,
    /// Chunk set-ups that reused every pooled buffer.
    pub reused: u64,
}

/// Pooled per-worker [`StreamWorkspace`]s (frame planes, record batches,
/// Bernoulli scratch), recycled across chunks, samples and whole
/// campaigns. Re-initialisation replays a fresh buffer's exact draw
/// sequence, so pooling never changes a sampled stream.
#[derive(Default)]
pub(crate) struct WorkspacePool(Mutex<Vec<StreamWorkspace>>);

impl WorkspacePool {
    /// Pop a pooled workspace (or start a fresh one). The lock recovers
    /// from poisoning: a panicking worker caught by a supervisor never
    /// pushes its workspace, so a poisoned pool still holds only clean
    /// entries.
    pub(crate) fn take(&self) -> StreamWorkspace {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    /// Return a workspace to the pool — unless its chunk is still marked
    /// in flight, in which case its owner abandoned it mid-chunk (a caught
    /// panic) and it is quarantined: dropped, never reused. Returns
    /// whether the workspace was pooled.
    pub(crate) fn put(&self, ws: StreamWorkspace) -> bool {
        if ws.in_flight() {
            return false;
        }
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(ws);
        true
    }

    /// Allocation/reuse sums over the pooled (returned) workspaces —
    /// read between campaigns, not mid-flight — mirrored into the
    /// `workspace.*` gauges of `metrics`.
    pub(crate) fn stats(&self, metrics: &MetricsRegistry) -> WorkspaceStats {
        let pool = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let stats = WorkspaceStats {
            allocated: pool.iter().map(StreamWorkspace::allocations).sum(),
            reused: pool.iter().map(StreamWorkspace::reuses).sum(),
        };
        metrics.gauge(names::WORKSPACE_ALLOCATED).set(stats.allocated);
        metrics.gauge(names::WORKSPACE_REUSED).set(stats.reused);
        stats
    }
}
