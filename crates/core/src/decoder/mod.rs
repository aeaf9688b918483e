//! Syndrome decoding (paper Sec. II-D).
//!
//! The primary decoder is MWPM (minimum-weight perfect matching, the
//! paper's choice), served by two implementations that are **bit-identical
//! on every record**:
//!
//! * [`MwpmDecoder`] — the reference path: build the defect list from a
//!   [`ShotRecord`], run one blossom matching per shot.
//! * [`BulkDecoder`] — the production path (what [`DecoderKind::Mwpm`]
//!   instantiates): extracts defect **bit-planes** directly from a
//!   [`ShotBatch`]'s words (64 shots per operation) and answers each
//!   syndrome from a cascade of solve tiers.
//!
//! [`UnionFindDecoder`] implements the cited alternative decoder for
//! ablation studies. All decoders operate on the same [`DetectorGraph`] and
//! read only a shot's classical record, so they work identically on logical
//! and transpiled circuits.
//!
//! # Tier selection ([`BulkDecoder`])
//!
//! Decoding factors as `decode(shot) = raw_readout XOR flip(defects)`,
//! where the defect pattern is `2P` bits for `P` primary stabilizers (bit
//! `2i` = round-1 syndrome of stabilizer `i`, bit `2i+1` = round-1/round-2
//! difference) and `flip` is a **pure function of that pattern**: the
//! matching sees only defect nodes and static graph distances. Each shot is
//! routed to the cheapest tier that can produce `flip`:
//!
//! 1. **Trivial** — pattern 0 (no defects): `flip = false`. Whole 64-shot
//!    words are skipped at once when no defect plane has a bit set.
//! 2. **LUT** — codes with `2P ≤ 16` detector bits (repetition `d ≤ 9`,
//!    XXZZ up to (3,5)/(5,3)): a direct-indexed, lazily filled, exhaustive
//!    table; decode is one array index. 64 KiB at worst.
//! 3. **Analytic** — 1–2-defect patterns on wider codes: closed-form from
//!    the [`DetectorGraph`] distance/parity tables. One defect has a unique
//!    matching (→ boundary); two defects have exactly two (pair up, or both
//!    to boundary) and the strictly cheaper one is chosen; an exact tie
//!    falls through to tier 5 so the blossom matcher's tie-breaking is
//!    preserved.
//! 4. **Cross-batch cache** — wider patterns: an engine-owned, sharded,
//!    approximately-LRU map from defect pattern to `flip`, shared across
//!    batches, rayon chunks and temporal samples of a campaign.
//! 5. **Blossom fallback** — anything still unanswered runs the exact
//!    matcher through the same matching walk (`matching_walk`)
//!    [`MwpmDecoder`] uses, with a scratch arena
//!    ([`radqec_matching::MatchingArena`]) so repeated solves stop
//!    allocating; the result populates the LUT/cache.
//!
//! # Decode deadlines and graceful degradation
//!
//! Fleet endurance campaigns cannot let one pathological syndrome stall a
//! round stream, so the blossom fallback runs under a per-shot budget
//! ([`TierConfig::deadline`], scaled to `deadline × shots` per batch).
//! While the budget lasts, every heavy shot gets the exact matcher and its
//! solve time is charged against the pool; once spent, remaining heavy
//! shots are answered by a deterministic greedy matching (cheapest
//! strictly-pair-beats-boundary partner, else boundary — exact for ≤ 2
//! defects, approximate beyond) and counted in
//! [`DecoderStats::degraded`]. Degraded answers are **never** written to
//! the LUT, the cross-batch cache, or a batch memo, so exactness of every
//! cached value — and therefore of every future non-degraded decode — is
//! preserved; the only cost is a possibly suboptimal correction on the
//! degraded shots themselves (a logical-error-rate cost bounded by the
//! fraction `degraded / shots`, which is 0 at the default deadline in
//! every workload this repo runs). `deadline: None` restores the
//! unbounded exact decoder bit-identically.
//!
//! # Exactness argument
//!
//! Tiers 2 and 4 only ever *store* values computed by tiers 3/5. Tier 5
//! **is** `MwpmDecoder`'s matching routine: same defect ordering, same
//! weight function, same arena-backed matcher and the same walk from
//! matches to readout parity — one function, not a copy (the space-time
//! decoder's mid-stream window solves run it too, with a commit boundary
//! where tier 5 commits every node).
//! Tier 3 enumerates the full matching polytope for ≤ 2 defects and defers
//! ties. Hence every tier computes the same function and
//! `BulkDecoder::decode == MwpmDecoder::decode` on every record; the
//! equivalence suite (`tests/decoder_tiers.rs`) checks this exhaustively
//! over all `2^{2P}` syndromes for LUT-eligible codes and by property
//! testing elsewhere.
//!
//! # Strike-aware decoding
//!
//! A detected radiation strike changes the error prior: qubits inside the
//! struck region fail with probability far above the intrinsic scale, so
//! uniform edge weights mis-rank correction paths. [`DecoderMask`] —
//! usually projected from a `radqec_detect::StrikeMask` (the clusterer's
//! root + ring radius + decay estimate) — assigns log-likelihood integer
//! weights to the detector graph's edges ([`DetectorGraph::reweighted`]),
//! making struck-region paths cheap (erasure-style, after the Google
//! cosmic-ray line of work). [`Decoder::decode_batch_masked`] runs the
//! very same tier cascade against a per-mask interned context (reweighted
//! graph + private syndrome LUT/cache — the mask-keyed cache dimension),
//! and [`MwpmDecoder::masked`] is the per-shot reference it is validated
//! against (`tests/strike_aware_decoding.rs`): the exactness argument
//! above is weight-agnostic, so it covers every masked context unchanged.
//! A no-op mask (zero radius, decayed to background) hands off to the
//! unaware path bit-identically.

mod bulk;
mod cache;
mod graph;
mod mask;
mod mwpm;
mod spacetime;
mod stream;
mod union_find;

pub use bulk::{
    BulkDecoder, DecoderStats, TierConfig, TierError, DEFAULT_DECODE_DEADLINE,
    DEFAULT_MASK_CAPACITY,
};
pub use graph::{DetectorGraph, DetectorNode, EdgeKind};
pub use mask::{DecoderMask, MASK_BASE_WEIGHT, MASK_REF_PROB};
pub use mwpm::MwpmDecoder;
pub use spacetime::{ReplicaState, SpaceTimeDecoder, SpaceTimeScratch, WindowConfig};
pub use stream::{StreamDecodeReport, StreamDecoder, StreamDecoderConfig};
pub use union_find::UnionFindDecoder;

use radqec_circuit::{ShotBatch, ShotRecord};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A syndrome decoder: maps one shot's classical record to the corrected
/// logical readout value.
pub trait Decoder: Send + Sync {
    /// Decode a shot. `true` = logical |1⟩ (the expected outcome of every
    /// experiment circuit in the paper).
    fn decode(&self, shot: &ShotRecord) -> bool;

    /// Decoder display name.
    fn name(&self) -> &str;

    /// Decode every shot of a batch, memoising by record pattern.
    ///
    /// Decoders are pure functions of the classical record (enforced by the
    /// decoder-invariant property tests), and realistic noise rates produce
    /// heavily repeated syndromes across a batch, so decoding runs once per
    /// *distinct* record instead of once per shot. [`BulkDecoder`]
    /// overrides this with the tiered bit-plane pipeline.
    fn decode_batch(&self, batch: &ShotBatch) -> Vec<bool> {
        decode_batch_memoised(self, batch)
    }

    /// Strike-aware decode: like [`Decoder::decode`], with a
    /// [`DecoderMask`] describing a detected (or known) radiation strike.
    /// The default ignores the mask — a mask-unaware decoder *is* the
    /// unaware baseline the mitigation experiments compare against;
    /// [`BulkDecoder`] overrides it with the reweighted-graph cascade.
    fn decode_masked(&self, shot: &ShotRecord, _mask: &DecoderMask) -> bool {
        self.decode(shot)
    }

    /// Strike-aware batch decode (see [`Decoder::decode_masked`]).
    fn decode_batch_masked(&self, batch: &ShotBatch, _mask: &DecoderMask) -> Vec<bool> {
        self.decode_batch(batch)
    }

    /// Where decode work went so far, for decoders that track it (the
    /// tiered [`BulkDecoder`]); `None` otherwise.
    fn decode_stats(&self) -> Option<DecoderStats> {
        None
    }
}

/// The [`Decoder::decode_batch`] default: per-batch memoised per-shot
/// decoding. Records up to 128 bits key a `u128` map; wider records key a
/// `Vec<u64>` word map (so e.g. repetition codes beyond distance 64 still
/// dedupe instead of silently decoding every shot).
pub(crate) fn decode_batch_memoised<D: Decoder + ?Sized>(dec: &D, batch: &ShotBatch) -> Vec<bool> {
    let mut out = Vec::with_capacity(batch.shots());
    let mut scratch = ShotRecord::new(batch.num_clbits());
    if batch.num_clbits() <= 128 {
        let mut cache: HashMap<u128, bool> = HashMap::new();
        for s in 0..batch.shots() {
            let v = match cache.entry(batch.packed_shot(s)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    batch.fill_record(s, &mut scratch);
                    *e.insert(dec.decode(&scratch))
                }
            };
            out.push(v);
        }
    } else {
        let mut cache: HashMap<Vec<u64>, bool> = HashMap::new();
        let mut key: Vec<u64> = Vec::new();
        for s in 0..batch.shots() {
            batch.packed_shot_words(s, &mut key);
            let v = match cache.get(&key) {
                Some(&v) => v,
                None => {
                    batch.fill_record(s, &mut scratch);
                    let v = dec.decode(&scratch);
                    cache.insert(key.clone(), v);
                    v
                }
            };
            out.push(v);
        }
    }
    out
}

/// Which decoder the injection engine instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderKind {
    /// Minimum-weight perfect matching (paper default), served by the
    /// tiered [`BulkDecoder`].
    #[default]
    Mwpm,
    /// Union-find (ablation alternative).
    UnionFind,
}

impl DecoderKind {
    /// Instantiate the decoder for `code`.
    pub fn build(&self, code: &crate::codes::CodeCircuit) -> Box<dyn Decoder> {
        self.build_with_metrics(code, std::sync::Arc::new(radqec_telemetry::MetricsRegistry::new()))
    }

    /// Instantiate the decoder for `code`, recording its `decode.*`
    /// counters and `stage.decode_ns` spans into `metrics` (engines pass
    /// their own registry so one snapshot covers the whole pipeline).
    /// The union-find ablation decoder tracks no tier stats and ignores
    /// the registry.
    pub fn build_with_metrics(
        &self,
        code: &crate::codes::CodeCircuit,
        metrics: std::sync::Arc<radqec_telemetry::MetricsRegistry>,
    ) -> Box<dyn Decoder> {
        match self {
            DecoderKind::Mwpm => Box::new(
                BulkDecoder::try_with_tiers_metrics(code, TierConfig::default(), metrics)
                    .unwrap_or_else(|e| panic!("{e}")),
            ),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(code)),
        }
    }
}

#[cfg(test)]
mod mod_tests {
    use super::*;
    use crate::codes::{QecCode, RepetitionCode};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Decoder wrapper counting how often `decode` actually runs.
    struct Counting<D> {
        inner: D,
        calls: AtomicUsize,
    }

    impl<D: Decoder> Decoder for Counting<D> {
        fn decode(&self, shot: &ShotRecord) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.decode(shot)
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    #[test]
    fn wide_records_still_memoise() {
        // rep-(65,1): 131 clbits > 128 → the Vec<u64>-keyed memo path.
        let code = RepetitionCode::bit_flip(65).build();
        let nc = code.circuit.num_clbits();
        assert!(nc > 128, "need a wide record, got {nc}");
        let dec = Counting { inner: MwpmDecoder::new(&code), calls: AtomicUsize::new(0) };
        let mut batch = ShotBatch::new(nc, 96);
        // Three distinct record patterns, repeated across the batch.
        for s in 0..96 {
            match s % 3 {
                0 => {}
                1 => batch.flip(code.stabilizers[7].cbit_round1, s),
                _ => {
                    batch.flip(code.stabilizers[3].cbit_round1, s);
                    batch.flip(code.stabilizers[3].cbit_round2, s);
                }
            }
        }
        let out = dec.decode_batch(&batch);
        assert_eq!(dec.calls.load(Ordering::Relaxed), 3, "wide batch must dedupe");
        for (s, &v) in out.iter().enumerate() {
            assert_eq!(v, dec.inner.decode(&batch.record(s)), "shot {s}");
        }
    }

    #[test]
    fn decoder_kind_builds_tiered_mwpm() {
        let code = RepetitionCode::bit_flip(5).build();
        let dec = DecoderKind::Mwpm.build(&code);
        assert_eq!(dec.name(), "mwpm[rep-(5,1)]");
        assert!(dec.decode_stats().is_some(), "engine decoder must expose tier stats");
        assert!(DecoderKind::UnionFind.build(&code).decode_stats().is_none());
    }
}
