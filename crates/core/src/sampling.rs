//! Sampling plumbing shared by the two campaign engines
//! ([`InjectionEngine`](crate::injection::InjectionEngine) and
//! [`StreamEngine`](crate::streaming::StreamEngine)): the pooled frame
//! workspaces and the per-shot tableau replay.

use radqec_circuit::{Backend, Circuit, ShotBatch};
use radqec_noise::{run_noisy_shot_segmented, ActiveFault, NoiseSpec, StreamWorkspace};
use radqec_stabilizer::StabilizerBackend;
use radqec_telemetry::{names, MetricsRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

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

/// The tableau oracle: one full CHP replay per shot (shot-parallel, with
/// each worker's backend allocation reused across its shots), packed into
/// one record batch. Shot `s` draws from its own RNG stream seeded with
/// `shot_seed(s)`, independent of which worker runs it.
pub(crate) fn tableau_batch(
    circuit: &Circuit,
    n_phys: u32,
    noise: &NoiseSpec,
    segments: &[(usize, &ActiveFault)],
    shots: usize,
    shot_seed: impl Fn(usize) -> u64 + Send + Sync,
) -> ShotBatch {
    let records: Vec<_> = (0..shots)
        .into_par_iter()
        .map_init(
            || StabilizerBackend::new(n_phys),
            |backend, shot| {
                let mut rng = StdRng::seed_from_u64(shot_seed(shot));
                backend.reset_all();
                run_noisy_shot_segmented(circuit, backend, noise, segments, &mut rng)
            },
        )
        .collect();
    let mut batch = ShotBatch::new(circuit.num_clbits(), shots);
    for (shot, record) in records.iter().enumerate() {
        for c in 0..circuit.num_clbits() {
            if record.get(c) {
                batch.flip(c, shot);
            }
        }
    }
    batch
}
