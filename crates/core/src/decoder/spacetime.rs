//! Sliding-window space-time MWPM — the streaming decoder.
//!
//! The bulk decoder ([`BulkDecoder`]) answers the paper's *two-round*
//! experiment: its detector graph has exactly two time layers and every
//! shot is decoded after the fact. A memory stream is different — `R`
//! detector layers arrive one round at a time, and a decoder that waits
//! for the full history holds `O(R)` state and `O(R)` latency at the end
//! of every shot. [`SpaceTimeDecoder`] instead matches on a **sliding
//! window** of `W` layers and retires the stream incrementally.
//!
//! # The commit/discard contract
//!
//! Defects (detection events) enter a replica's pending set as rounds
//! arrive. Whenever the pending window spans `W` layers — and more rounds
//! are still to come — the decoder solves that window with the exact
//! blossom matcher and *commits the oldest `C` layers*:
//!
//! * every defect inside the commit region has its match **finalized** —
//!   boundary matches and commit–commit pairs contribute their crossing
//!   parity to the replica's running flip, and a commit–tentative pair
//!   additionally **consumes** its tentative partner (both leave the
//!   pending set);
//! * every other tentative defect's match is **discarded** — the defect
//!   is carried forward verbatim and re-matched in the next window, where
//!   more future context is visible.
//!
//! The final window (once all `R` layers have arrived) commits everything.
//! With `W = C = R` the decoder degenerates to whole-history offline MWPM
//! — that configuration ([`WindowConfig::offline`]) is the reference the
//! window-equivalence suite pins the streaming path against. The commit
//! rule is exact whenever no minimum-weight match needs to pair a
//! commit-region defect with one more than `W − C` layers in its future.
//! Degenerate optima (common at realistic stream densities: two
//! neighbouring defects pairing for the same weight as two boundary
//! matches, with opposite readout parity) are *not* a second caveat —
//! all solves match on the canonically perturbed weights of
//! `super::mwpm::pair_weight`, whose translation-invariant tie-break
//! makes the windowed and whole-history decoders select the same
//! optimum. The property suites verify bit-identity both on synthetic
//! streams and on real engine streams at the paper's noise, ±strike.
//!
//! # Tier reuse
//!
//! Window solves run on [`SolveCore`]s over multi-layer
//! [`DetectorGraph::space_time`] graphs — the same LUT / analytic /
//! sharded-cache / blossom cascade as the bulk decoder, interned per
//! `(window layers, mask)` pair, so warm windows decode from a table
//! lookup. Mid-stream windows (which must also report *survivors*, not
//! just a flip) memoise full outcomes per defect pattern in a per-context
//! map; both paths share one [`MatchingArena`] per scratch, and the
//! mixed commit/tentative solves walk their matching through the same
//! routine as the bulk decoder's blossom tier (`matching_walk`, with the
//! commit boundary where the bulk tier commits every node). Contexts are
//! interned in the crate's one LRU table (`InternTable`, the same one
//! behind the bulk decoder's mask contexts): unmasked ones uncapped by
//! layer count, masked ones LRU-capped at [`TierConfig::mask_capacity`].
//!
//! Mid-stream window solves are exact and unbudgeted: the window bounds
//! the matching size by construction (`W · P` nodes), so the decode
//! deadline machinery that guards unbounded whole-history solves is not
//! engaged. Full-commit solves go through the budgeted cascade unchanged.
//!
//! [`BulkDecoder`]: crate::decoder::BulkDecoder
//! [`MatchingArena`]: radqec_matching::MatchingArena

use super::bulk::{Ctx, LocalStats, SolveCore, StatCells};
use super::graph::DetectorGraph;
use super::mask::{DecoderMask, WeightKey};
use super::mwpm::matching_walk;
use super::TierConfig;
use crate::codes::MemoryCircuit;
use crate::intern::InternTable;
use radqec_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Ceiling on memoised mid-stream window outcomes per context; reaching
/// it clears the memo (epoch reset — entries are recomputable).
const WINDOW_MEMO_CAP: usize = 1 << 16;

/// Sliding-window geometry: solve on `window` layers, commit the oldest
/// `commit` (see the module docs for the commit/discard contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Layers per window solve `W`.
    pub window: usize,
    /// Layers committed per mid-stream solve `C` (`1 ≤ C ≤ W`).
    pub commit: usize,
}

impl WindowConfig {
    /// A `(window, commit)` configuration.
    ///
    /// # Panics
    /// Panics unless `1 ≤ commit ≤ window`.
    pub fn new(window: usize, commit: usize) -> Self {
        assert!(commit >= 1, "commit region must span at least one layer");
        assert!(commit <= window, "commit {commit} exceeds window {window}");
        WindowConfig { window, commit }
    }

    /// The whole-history configuration (`W = C = detector_rounds`): one
    /// window covering the full stream, committed at once — offline MWPM,
    /// the reference the windowed path is validated against.
    pub fn offline(detector_rounds: usize) -> Self {
        WindowConfig::new(detector_rounds.max(1), detector_rounds.max(1))
    }
}

impl Default for WindowConfig {
    /// `W = 6, C = 2`: six layers of context per solve — past any
    /// plausible time-like error chain at the acceptance codes' noise —
    /// retiring two layers per step.
    fn default() -> Self {
        WindowConfig { window: 6, commit: 2 }
    }
}

/// Outcome of one mid-stream window solve (memoised per defect pattern).
#[derive(Debug, Clone, Copy)]
struct WindowOutcome {
    /// Crossing parity of every finalized match.
    flip: bool,
    /// Window-node bitmask of tentative defects carried forward.
    survivors: u128,
}

/// One interned `(layers, mask)` solve context: the multi-layer core plus
/// the mid-stream outcome memo.
struct WindowContext {
    core: SolveCore,
    memo: Mutex<HashMap<u128, WindowOutcome>>,
}

/// Per-replica (per-shot) streaming state: the running flip, the pending
/// defect set, and the window base. Create with
/// [`SpaceTimeDecoder::begin`]; drive with `push_round`; close with
/// `finish`.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// Pending defects as `(absolute detector round, stab)`, ascending.
    pending: Vec<(u32, u32)>,
    /// Crossing parity committed so far.
    flip: bool,
    /// First detector round of the current window.
    base: usize,
    /// Next detector round this replica expects.
    next_round: usize,
    /// Whether any detection event arrived (trivial-shot accounting).
    saw_defect: bool,
}

impl ReplicaState {
    /// Detector rounds pushed so far.
    pub fn rounds_pushed(&self) -> usize {
        self.next_round
    }

    /// Defects currently carried (not yet committed).
    pub fn pending_defects(&self) -> usize {
        self.pending.len()
    }
}

/// Reusable per-worker scratch: one matching arena + batched tier
/// counters. Flush into the decoder's metrics with
/// [`SpaceTimeDecoder::flush`] between chunks.
#[derive(Default)]
pub struct SpaceTimeScratch {
    ctx: Ctx,
    local: LocalStats,
}

/// The sliding-window space-time decoder (see module docs).
pub struct SpaceTimeDecoder {
    data_qubits: Vec<u32>,
    supports: Vec<Vec<u32>>,
    readout_support: Vec<u32>,
    primary_count: usize,
    detector_rounds: usize,
    cfg: WindowConfig,
    tiers: TierConfig,
    /// Unmasked solve contexts by window layer count (at most two live:
    /// `W` and the final remainder), kept for the decoder's lifetime.
    unmasked: InternTable<usize, WindowContext>,
    /// Masked solve contexts by `(layers, mask weight key)`, LRU-capped
    /// at [`TierConfig::mask_capacity`].
    masked: InternTable<(usize, WeightKey), WindowContext>,
    stats: StatCells,
}

impl SpaceTimeDecoder {
    /// Build a decoder for a `detector_rounds`-layer stream over the
    /// given code structure: `supports` are the primary stabilizers'
    /// data-qubit supports, `readout_support` the logical readout chain
    /// whose crossings flip the logical frame.
    ///
    /// # Panics
    /// Panics when `detector_rounds == 0`, the window configuration is
    /// degenerate, or a window would exceed the 128-bit defect key
    /// (`min(W, detector_rounds) · P > 128`).
    pub fn from_parts(
        data_qubits: Vec<u32>,
        supports: Vec<Vec<u32>>,
        readout_support: Vec<u32>,
        detector_rounds: usize,
        cfg: WindowConfig,
        tiers: TierConfig,
        metrics: &MetricsRegistry,
    ) -> Self {
        assert!(detector_rounds >= 1, "need at least one detector round");
        assert!(cfg.commit >= 1 && cfg.commit <= cfg.window, "invalid window config {cfg:?}");
        let primary_count = supports.len();
        assert!(primary_count >= 1, "need at least one primary stabilizer");
        let widest = cfg.window.min(detector_rounds) * primary_count;
        assert!(widest <= 128, "window of {widest} detector bits exceeds the 128-bit defect key");
        SpaceTimeDecoder {
            data_qubits,
            supports,
            readout_support,
            primary_count,
            detector_rounds,
            cfg,
            tiers,
            unmasked: InternTable::uncapped(),
            masked: InternTable::new(tiers.mask_capacity),
            stats: StatCells::new(metrics),
        }
    }

    /// Build a decoder for a readout-terminated memory stream: `rounds`
    /// syndrome layers plus the terminal detector layer the projected
    /// data readout induces (`detector_rounds = rounds + 1`).
    ///
    /// # Panics
    /// Panics when `memory` was assembled without a final data readout.
    pub fn for_memory(
        memory: &MemoryCircuit,
        cfg: WindowConfig,
        tiers: TierConfig,
        metrics: &MetricsRegistry,
    ) -> Self {
        let readout = memory
            .final_readout
            .as_ref()
            .expect("space-time decoding needs a readout-terminated memory circuit");
        let supports =
            memory.primary_stabilizers().iter().map(|s| s.support.clone()).collect::<Vec<_>>();
        Self::from_parts(
            (0..memory.n_data).collect(),
            supports,
            readout.support.clone(),
            memory.rounds + 1,
            cfg,
            tiers,
            metrics,
        )
    }

    /// Primary stabilizer count `P` (defects per detector layer).
    pub fn primary_count(&self) -> usize {
        self.primary_count
    }

    /// Detector layers per replica (`R`).
    pub fn detector_rounds(&self) -> usize {
        self.detector_rounds
    }

    /// The window geometry.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Fresh per-replica streaming state.
    pub fn begin(&self) -> ReplicaState {
        ReplicaState { pending: Vec::new(), flip: false, base: 0, next_round: 0, saw_defect: false }
    }

    /// Flush a scratch's batched tier counters into the decoder's metric
    /// registry handles.
    pub fn flush(&self, scratch: &mut SpaceTimeScratch) {
        self.stats.flush(scratch.local);
        scratch.local = LocalStats::default();
    }

    /// Push one detector round: `events` are the primary stabilizers that
    /// fired this round, ascending. Solves (and commits) a window when
    /// one fills and more rounds are still due; the mask active *at solve
    /// time* reweights that window's graph.
    ///
    /// # Panics
    /// Panics when more rounds arrive than the decoder was built for.
    pub fn push_round(
        &self,
        state: &mut ReplicaState,
        events: impl IntoIterator<Item = usize>,
        mask: Option<&DecoderMask>,
        scratch: &mut SpaceTimeScratch,
    ) {
        let round = state.next_round;
        assert!(round < self.detector_rounds, "stream already has all {round} rounds");
        for stab in events {
            debug_assert!(stab < self.primary_count, "event on non-primary stabilizer {stab}");
            state.pending.push((round as u32, stab as u32));
            state.saw_defect = true;
        }
        state.next_round += 1;
        if state.next_round == state.base + self.cfg.window
            && state.base + self.cfg.window < self.detector_rounds
        {
            self.advance_window(state, mask, scratch);
        }
    }

    /// Close the stream: commit the final window in full and return the
    /// replica's accumulated flip (XOR against the raw logical readout to
    /// correct it).
    ///
    /// # Panics
    /// Panics unless exactly `detector_rounds` rounds were pushed.
    pub fn finish(
        &self,
        state: &mut ReplicaState,
        mask: Option<&DecoderMask>,
        scratch: &mut SpaceTimeScratch,
    ) -> bool {
        assert_eq!(state.next_round, self.detector_rounds, "stream is missing rounds");
        scratch.local.shots += 1;
        if !state.saw_defect {
            scratch.local.trivial += 1;
        }
        if !state.pending.is_empty() {
            let layers = self.detector_rounds - state.base;
            let ctx = self.context(layers, mask);
            let key = Self::window_key(state, self.primary_count);
            state.flip ^= ctx.core.flip_of_key(key, &mut scratch.ctx, &mut scratch.local);
            state.pending.clear();
        }
        state.base = self.detector_rounds;
        state.flip
    }

    /// Decode one replica's full event history in one call (tests and the
    /// offline reference): `rounds[r]` lists the primary stabilizers that
    /// fired at detector round `r`.
    pub fn decode_history(
        &self,
        rounds: &[Vec<usize>],
        mask: Option<&DecoderMask>,
        scratch: &mut SpaceTimeScratch,
    ) -> bool {
        assert_eq!(rounds.len(), self.detector_rounds, "history has wrong round count");
        let mut state = self.begin();
        for events in rounds {
            self.push_round(&mut state, events.iter().copied(), mask, scratch);
        }
        self.finish(&mut state, mask, scratch)
    }

    /// The pending set as a window-local `u128` key: bit
    /// `(round − base) · P + stab` — node-major, matching the
    /// [`SolveCore::window`] plane order.
    fn window_key(state: &ReplicaState, p: usize) -> u128 {
        let mut key = 0u128;
        for &(r, s) in &state.pending {
            let layer = r as usize - state.base;
            key |= 1u128 << (layer * p + s as usize);
        }
        key
    }

    /// Solve the full window `[base, base + W)` and commit its oldest `C`
    /// layers (module docs: the commit/discard contract).
    fn advance_window(
        &self,
        state: &mut ReplicaState,
        mask: Option<&DecoderMask>,
        scratch: &mut SpaceTimeScratch,
    ) {
        let p = self.primary_count;
        let outcome = if state.pending.is_empty() {
            WindowOutcome { flip: false, survivors: 0 }
        } else {
            let ctx = self.context(self.cfg.window, mask);
            let key = Self::window_key(state, p);
            self.window_outcome(&ctx, key, scratch)
        };
        state.flip ^= outcome.flip;
        state.pending.clear();
        let mut bits = outcome.survivors;
        while bits != 0 {
            let node = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            state.pending.push(((state.base + node / p) as u32, (node % p) as u32));
        }
        state.base += self.cfg.commit;
    }

    /// One mid-stream window solve: finalized-parity flip plus the
    /// surviving tentative defects, memoised per defect pattern.
    fn window_outcome(
        &self,
        wctx: &WindowContext,
        key: u128,
        scratch: &mut SpaceTimeScratch,
    ) -> WindowOutcome {
        debug_assert_ne!(key, 0);
        let commit_nodes = self.cfg.commit * self.primary_count;
        if let Some(&hit) = wctx.memo.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            scratch.local.cache_hits += 1;
            return hit;
        }
        let outcome = if commit_nodes < 128 && key >> commit_nodes == 0 {
            // Every defect sits inside the commit region: the window is a
            // full commit — route it through the tier cascade (LUT /
            // analytic / cache / blossom) like a final window.
            let flip = wctx.core.flip_of_key(key, &mut scratch.ctx, &mut scratch.local);
            WindowOutcome { flip, survivors: 0 }
        } else {
            self.match_window(wctx, key, commit_nodes, scratch)
        };
        let mut memo = wctx.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.len() >= WINDOW_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, outcome);
        outcome
    }

    /// The exact matcher over a mixed commit/tentative window, walked
    /// into finalized parity + survivors by the shared
    /// [`matching_walk`].
    fn match_window(
        &self,
        wctx: &WindowContext,
        key: u128,
        commit_nodes: usize,
        scratch: &mut SpaceTimeScratch,
    ) -> WindowOutcome {
        let ctx = &mut scratch.ctx;
        wctx.core.load_defects(key, &mut ctx.defects);
        scratch.local.matchings += 1;
        let (flip, survivors) =
            matching_walk(wctx.core.graph(), &ctx.defects, commit_nodes, &mut ctx.arena);
        WindowOutcome { flip, survivors }
    }

    /// Intern (or fetch) the solve context of `(layers, mask)`; a no-op
    /// mask shares the unmasked context.
    fn context(&self, layers: usize, mask: Option<&DecoderMask>) -> Arc<WindowContext> {
        let build = |mask: Option<&DecoderMask>| {
            let mut graph = DetectorGraph::space_time(
                &self.data_qubits,
                &self.supports,
                &self.readout_support,
                layers,
            );
            if let Some(m) = mask {
                graph = m.reweight(&graph);
            }
            WindowContext { core: SolveCore::window(graph, self.tiers), memo: Mutex::default() }
        };
        match mask.filter(|m| !m.is_noop()) {
            None => self.unmasked.get_or_build(layers, || build(None)),
            Some(m) => self.masked.get_or_build((layers, m.weight_key()), || build(Some(m))),
        }
    }

    /// Live solve contexts `(unmasked, masked)` — test/telemetry hook.
    pub fn context_counts(&self) -> (usize, usize) {
        (self.unmasked.len(), self.masked.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{QecCode, RepetitionCode, XxzzCode};
    use radqec_telemetry::names;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rep5_decoder(
        rounds: usize,
        cfg: WindowConfig,
        metrics: &MetricsRegistry,
    ) -> SpaceTimeDecoder {
        let memory = RepetitionCode::bit_flip(5).build_memory_readout(rounds);
        SpaceTimeDecoder::for_memory(&memory, cfg, TierConfig::default(), metrics)
    }

    /// A seeded random event history: each (round, primary stab) plane
    /// fires independently with probability `density`.
    fn random_history(
        detector_rounds: usize,
        primary: usize,
        density: f64,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..detector_rounds)
            .map(|_| (0..primary).filter(|_| rng.gen_bool(density)).collect())
            .collect()
    }

    #[test]
    fn empty_history_is_trivial_and_counted() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let history = vec![Vec::new(); dec.detector_rounds()];
        assert!(!dec.decode_history(&history, None, &mut scratch));
        dec.flush(&mut scratch);
        assert_eq!(metrics.counter(names::DECODE_SHOTS).get(), 1);
        assert_eq!(metrics.counter(names::DECODE_TRIVIAL).get(), 1);
        assert_eq!(metrics.counter(names::DECODE_MATCHINGS).get(), 0);
    }

    #[test]
    fn single_defect_takes_its_boundary_parity() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let graph = DetectorGraph::space_time(
            &[0, 1, 2, 3, 4],
            &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
            &[0],
            dec.detector_rounds(),
        );
        let mut scratch = SpaceTimeScratch::default();
        for stab in 0..4 {
            let mut history = vec![Vec::new(); dec.detector_rounds()];
            history[5] = vec![stab];
            let flip = dec.decode_history(&history, None, &mut scratch);
            let want = graph.crossing_parity(graph.node(stab, 5), graph.boundary());
            assert_eq!(flip, want, "stab {stab}");
            // Stab 0's cheapest boundary exit crosses readout qubit 0.
            if stab == 0 {
                assert!(flip);
            }
        }
    }

    #[test]
    fn straddling_pair_is_committed_exactly_once() {
        // Adjacent-round same-stab defects straddling the first commit
        // boundary (commit region = rounds [0, 2), partner at round 2):
        // the time-edge pairing carries no readout crossing, so the flip
        // must be false — a double-count would also show as a mismatch
        // against the offline reference.
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let offline = rep5_decoder(9, WindowConfig::offline(10), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let mut history = vec![Vec::new(); dec.detector_rounds()];
        history[1] = vec![2];
        history[2] = vec![2];
        let windowed = dec.decode_history(&history, None, &mut scratch);
        assert!(!windowed, "time-like pair crosses no readout qubit");
        assert_eq!(windowed, offline.decode_history(&history, None, &mut scratch));
    }

    #[test]
    fn survivors_are_carried_forward_not_dropped() {
        // A defect just past the commit region survives the first window
        // solve and must still be matched later (to the boundary), not
        // silently dropped with its parity lost.
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let mut state = dec.begin();
        // Rounds 0..3 fill the first window; the lone defect at round 3
        // (stab 0) is tentative when the window solves after round 3.
        for r in 0..4 {
            let events = if r == 3 { vec![0usize] } else { Vec::new() };
            dec.push_round(&mut state, events, None, &mut scratch);
        }
        assert_eq!(state.pending_defects(), 1, "tentative defect must survive the commit");
        for _ in 4..dec.detector_rounds() {
            dec.push_round(&mut state, Vec::new(), None, &mut scratch);
        }
        let flip = dec.finish(&mut state, None, &mut scratch);
        // Stab 0 at any round exits through readout qubit 0: flip = true.
        assert!(flip, "survivor's boundary parity must land in the final flip");
    }

    #[test]
    fn windowed_matches_offline_on_random_rep5_streams() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(11, WindowConfig::new(6, 2), &metrics);
        let offline = rep5_decoder(11, WindowConfig::offline(12), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        for seed in 0..200 {
            let history = random_history(12, 4, 0.03, 0xA11CE + seed);
            let w = dec.decode_history(&history, None, &mut scratch);
            let o = offline.decode_history(&history, None, &mut scratch);
            assert_eq!(w, o, "seed {seed}: windowed vs whole-history diverged");
        }
    }

    #[test]
    fn windowed_matches_offline_on_real_streamed_events() {
        // The random-history suites above exercise synthetic defect
        // patterns; this one replays *real* engine streams — intrinsic
        // noise with and without a central strike, readout-terminated —
        // through the windowed and whole-history decoders and demands
        // bit-identical flips shot for shot at a fixed seed.
        use crate::codes::CodeSpec;
        use crate::streaming::{StreamEngine, StreamFault};
        use radqec_detect::EventStream;
        use radqec_noise::{NoiseSpec, RadiationModel};

        let rounds = 10;
        let noise = NoiseSpec::paper_default();
        let metrics = MetricsRegistry::new();
        // Fixed seeds where no minimum-weight match needs more future
        // context than `W - C` layers (dense strike cores can exceed any
        // finite horizon -- the documented window caveat; at these seeds
        // the horizon suffices and bit-identity is exact).
        for (seed, code) in [3u64, 4, 5, 6].into_iter().flat_map(|s| {
            [
                CodeSpec::from(RepetitionCode::bit_flip(3)),
                CodeSpec::from(RepetitionCode::bit_flip(5)),
                CodeSpec::from(XxzzCode::new(3, 3)),
            ]
            .map(|c| (s, c))
        }) {
            let engine = StreamEngine::builder(code, rounds)
                .shots(64)
                .seed(seed)
                .native()
                .final_readout()
                .build();
            let memory = engine.memory();
            let primary = memory.primary_stabilizers().len();
            let windowed = SpaceTimeDecoder::for_memory(
                memory,
                WindowConfig::default(),
                TierConfig::default(),
                &metrics,
            );
            let offline = SpaceTimeDecoder::for_memory(
                memory,
                WindowConfig::offline(rounds + 1),
                TierConfig::default(),
                &metrics,
            );
            let root = engine.transpiled().initial_layout.physical(memory.n_data / 2);
            let strike = StreamFault::Strike { model: RadiationModel::default(), root };
            let mut scratch = SpaceTimeScratch::default();
            for fault in [StreamFault::None, strike] {
                for batch in engine.stream_batches(&fault, &noise) {
                    let events = EventStream::extract(&batch, engine.stream_spec());
                    let bit =
                        |cbit: u32, shot: usize| batch.row(cbit)[shot / 64] >> (shot % 64) & 1;
                    for shot in 0..events.shots() {
                        // Detector layers 0..rounds come straight from
                        // the extracted event stream; the terminal layer
                        // is the data readout's projected stabilizer
                        // parity XOR the last measured syndrome.
                        let mut history: Vec<Vec<usize>> = (0..rounds)
                            .map(|r| (0..primary).filter(|&i| events.event(r, i, shot)).collect())
                            .collect();
                        history.push(
                            (0..primary)
                                .filter(|&i| {
                                    let s = &memory.primary_stabilizers()[i];
                                    let mut parity = bit(memory.cbit(rounds - 1, i), shot);
                                    for &d in &s.support {
                                        parity ^= bit(memory.data_cbit(d), shot);
                                    }
                                    parity == 1
                                })
                                .collect(),
                        );
                        let w = windowed.decode_history(&history, None, &mut scratch);
                        let o = offline.decode_history(&history, None, &mut scratch);
                        assert_eq!(
                            w, o,
                            "{}, {fault:?}, shot {shot}: windowed vs offline diverged",
                            memory.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commit_choices_are_invariant_on_rep3_and_xxzz33() {
        let metrics = MetricsRegistry::new();
        for (memory, primary) in [
            (RepetitionCode::bit_flip(3).build_memory_readout(9), 2),
            (XxzzCode::new(3, 3).build_memory_readout(9), 4),
        ] {
            let offline = SpaceTimeDecoder::for_memory(
                &memory,
                WindowConfig::offline(10),
                TierConfig::default(),
                &metrics,
            );
            let configs =
                [WindowConfig::new(4, 1), WindowConfig::new(6, 2), WindowConfig::new(6, 3)];
            let decoders: Vec<_> = configs
                .iter()
                .map(|&cfg| {
                    SpaceTimeDecoder::for_memory(&memory, cfg, TierConfig::default(), &metrics)
                })
                .collect();
            let mut scratch = SpaceTimeScratch::default();
            for seed in 0..120 {
                let history = random_history(10, primary, 0.03, 0xBEEF + seed);
                let want = offline.decode_history(&history, None, &mut scratch);
                for (dec, cfg) in decoders.iter().zip(&configs) {
                    let got = dec.decode_history(&history, None, &mut scratch);
                    assert_eq!(got, want, "{} seed {seed} cfg {cfg:?}", memory.name);
                }
            }
        }
    }

    #[test]
    fn warm_windows_hit_the_outcome_memo() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(11, WindowConfig::new(6, 2), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let history = random_history(12, 4, 0.1, 77);
        let cold = dec.decode_history(&history, None, &mut scratch);
        dec.flush(&mut scratch);
        let cold_matchings = metrics.counter(names::DECODE_MATCHINGS).get();
        let warm = dec.decode_history(&history, None, &mut scratch);
        dec.flush(&mut scratch);
        assert_eq!(cold, warm);
        assert_eq!(
            metrics.counter(names::DECODE_MATCHINGS).get(),
            cold_matchings,
            "replaying an identical stream must answer every window from the memo"
        );
        assert!(metrics.counter(names::DECODE_CACHE_HITS).get() > 0);
    }

    #[test]
    fn masked_windows_reweight_and_masked_contexts_are_capped() {
        let metrics = MetricsRegistry::new();
        let memory = RepetitionCode::bit_flip(5).build_memory_readout(9);
        let tiers = TierConfig { mask_capacity: 2, ..TierConfig::default() };
        let dec = SpaceTimeDecoder::for_memory(&memory, WindowConfig::new(4, 2), tiers, &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let history = random_history(10, 4, 0.1, 5);
        // Three distinct quantised masks plus a no-op: masked contexts
        // stay within the cap, the no-op shares the unmasked context.
        for p in [0.9, 0.6, 0.3, 0.0001] {
            let mask = DecoderMask::from_probs(vec![p; 5], vec![p; 4]);
            dec.decode_history(&history, Some(&mask), &mut scratch);
        }
        let (unmasked, masked) = dec.context_counts();
        assert!(masked <= 2, "mask contexts must be LRU-capped, got {masked}");
        assert!(unmasked >= 1);
        // A saturating mask on the struck qubit changes the decode of a
        // two-defect pattern whose tie the weights break differently.
        let offline = SpaceTimeDecoder::for_memory(
            &memory,
            WindowConfig::offline(10),
            TierConfig::default(),
            &metrics,
        );
        let hot = DecoderMask::from_probs(vec![1.0, 0.0, 0.0, 0.0, 0.0], vec![0.0; 4]);
        let mut diverged = false;
        for seed in 0..80 {
            let history = random_history(10, 4, 0.12, 0xD00D + seed);
            let plain = offline.decode_history(&history, None, &mut scratch);
            let masked = offline.decode_history(&history, Some(&hot), &mut scratch);
            diverged |= plain != masked;
        }
        assert!(diverged, "a saturating mask must change at least one decode");
    }

    #[test]
    #[should_panic(expected = "missing rounds")]
    fn finish_requires_every_round() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let mut scratch = SpaceTimeScratch::default();
        let mut state = dec.begin();
        dec.push_round(&mut state, vec![0usize], None, &mut scratch);
        dec.finish(&mut state, None, &mut scratch);
    }
}
