//! [`DecoderMask`] — a [`StrikeMask`] projected into a code's decoding
//! frame: per-*data-qubit* and per-*stabilizer-ancilla* strike
//! probabilities, plus the integer edge-weight assignment the matching
//! layer consumes.
//!
//! The detect side speaks *physical* qubits (the clusterer's root estimate
//! lives on the device graph); the detector graph speaks *logical* data
//! qubits and primary stabilizers. [`DecoderMask::project`] bridges the two
//! through the transpiler's initial layout. Routed circuits whose SWAPs
//! migrate qubits mid-circuit make the *initial-layout* projection
//! approximate (the mask is a prior, not ground truth); on SWAP-free hosts
//! it is exact. The transpiler's time-resolved seat map
//! (`Transpiled::seat_at`, one snapshot per round barrier) closes that gap
//! round by round: projecting through the seats in force when the strike
//! lands follows the qubits wherever routing moved them, which the tests
//! below pin against the zero-SWAP embedding.
//!
//! ## Weight mapping
//!
//! MWPM edge weights are relative log-likelihoods: an edge whose qubit
//! fails with probability `p` weighs `∝ ln(1/p)`. The unmasked decoder's
//! unit weights correspond to the uniform intrinsic scale; a masked edge
//! gets `round(BASE · ln(1/p) / ln(1/P_REF))`, clamped into `[1, BASE]` —
//! the mask only ever makes struck-region edges *cheaper* (erasure-style:
//! a probability-1 reset is free to match through), never penalises
//! anything, so an empty mask degenerates to the uniform graph and masked
//! decoding hands off to the unaware path bit-identically
//! ([`DecoderMask::is_noop`]).

use crate::codes::{CodeCircuit, MemoryCircuit};
use crate::decoder::graph::{DetectorGraph, EdgeKind};
use radqec_detect::StrikeMask;
use radqec_transpiler::Layout;

/// Weight of an edge untouched by the mask (the resolution of the masked
/// graph's integer weights; the unmasked graph's unit weights scale to
/// this).
pub const MASK_BASE_WEIGHT: u32 = 16;

/// Reference error scale anchoring the log-likelihood mapping — the
/// paper's 1% intrinsic noise: a masked qubit at `P_REF` weighs exactly
/// [`MASK_BASE_WEIGHT`] (indistinguishable from background), and weights
/// shrink logarithmically as the strike probability rises towards 1.
pub const MASK_REF_PROB: f64 = 0.01;

/// A mask's quantised integer edge weights ([`DecoderMask::weight_key`]),
/// the key masked solve contexts are interned under.
pub(crate) type WeightKey = (Vec<u32>, Vec<u32>);

/// A strike mask in the decoder's frame (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderMask {
    /// Strike probability per logical data qubit.
    data_probs: Vec<f64>,
    /// Strike probability per primary-stabilizer ancilla.
    stab_probs: Vec<f64>,
}

/// Integer edge weight of a qubit with strike probability `p` (see module
/// docs for the mapping).
#[inline]
fn weight_of_prob(p: f64) -> u32 {
    if p <= MASK_REF_PROB {
        return MASK_BASE_WEIGHT;
    }
    let rel = p.ln() / MASK_REF_PROB.ln(); // 1 at P_REF, → 0 as p → 1
    ((MASK_BASE_WEIGHT as f64 * rel).round() as u32).clamp(1, MASK_BASE_WEIGHT)
}

impl DecoderMask {
    /// Project `mask` (physical-qubit profile) into `code`'s decoding
    /// frame through `layout` (the transpiled circuit's initial
    /// logical→physical table).
    ///
    /// A [`StrikeMask`] carries *per-gate* reset probabilities (the
    /// radiation model's `F`), but a detector-graph edge accounts for a
    /// whole round of exposure: a data qubit inside `k` stabilizer
    /// supports is touched by `k` CXs per round, so its per-edge error
    /// probability compounds to `1 − (1 − p)^k`; an ancilla sees its
    /// stabilizer's weight in CXs plus its measurement. The compounding
    /// exponents come straight from the code structure — no tuning knob.
    pub fn project(mask: &StrikeMask, code: &CodeCircuit, layout: &Layout) -> Self {
        let exposure = |p: f64, gates: usize| 1.0 - (1.0 - p).powi(gates.max(1) as i32);
        let data_probs = code
            .data_qubits
            .iter()
            .map(|&d| {
                let gates = code.stabilizers.iter().filter(|s| s.support.contains(&d)).count();
                exposure(mask.prob(layout.physical(d)), gates)
            })
            .collect();
        let stab_probs = code
            .primary_stabilizers()
            .iter()
            .map(|s| exposure(mask.prob(layout.physical(s.ancilla)), s.support.len() + 1))
            .collect();
        DecoderMask { data_probs, stab_probs }
    }

    /// [`DecoderMask::project`] for a memory experiment: same per-round
    /// exposure compounding, but the code structure comes from the
    /// assembled [`MemoryCircuit`] (whose stabilizer list is what the
    /// space-time decoder's graph is built from).
    pub fn project_memory(mask: &StrikeMask, memory: &MemoryCircuit, layout: &Layout) -> Self {
        let exposure = |p: f64, gates: usize| 1.0 - (1.0 - p).powi(gates.max(1) as i32);
        let data_probs = (0..memory.n_data)
            .map(|d| {
                let gates = memory.stabilizers.iter().filter(|s| s.support.contains(&d)).count();
                exposure(mask.prob(layout.physical(d)), gates)
            })
            .collect();
        let stab_probs = memory
            .primary_stabilizers()
            .iter()
            .map(|s| exposure(mask.prob(layout.physical(s.ancilla)), s.support.len() + 1))
            .collect();
        DecoderMask { data_probs, stab_probs }
    }

    /// Build directly from per-data-qubit / per-primary-stabilizer
    /// probabilities (tests, synthetic masks).
    ///
    /// # Panics
    /// Panics when a probability is outside `[0, 1]`.
    pub fn from_probs(data_probs: Vec<f64>, stab_probs: Vec<f64>) -> Self {
        for &p in data_probs.iter().chain(&stab_probs) {
            assert!((0.0..=1.0).contains(&p), "mask probability {p} out of range");
        }
        DecoderMask { data_probs, stab_probs }
    }

    /// A rescaled copy (probabilities × `factor`, clamped into `[0, 1]`)
    /// — temporal decay of the masked event.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.clamp(0.0, 1.0);
        DecoderMask {
            data_probs: self.data_probs.iter().map(|p| p * f).collect(),
            stab_probs: self.stab_probs.iter().map(|p| p * f).collect(),
        }
    }

    /// Strike probability of logical data qubit `d`.
    #[inline]
    pub fn data_prob(&self, d: u32) -> f64 {
        self.data_probs[d as usize]
    }

    /// Strike probability of primary stabilizer `i`'s ancilla.
    #[inline]
    pub fn stab_prob(&self, i: usize) -> f64 {
        self.stab_probs[i]
    }

    /// The integer weight assignment `(per data qubit, per stabilizer)` —
    /// the masked graph is a pure function of this key, which is also what
    /// the tiered decoder's mask-keyed cache dimension hashes on: two
    /// masks that quantise to the same weights share one reweighted graph
    /// and one syndrome cache.
    pub fn weight_key(&self) -> (Vec<u32>, Vec<u32>) {
        (
            self.data_probs.iter().map(|&p| weight_of_prob(p)).collect(),
            self.stab_probs.iter().map(|&p| weight_of_prob(p)).collect(),
        )
    }

    /// Whether the mask quantises to the uniform weight assignment —
    /// masked decoding with a no-op mask is *defined* to take the unaware
    /// path (same tiers, same caches, bit-identical output). Tested on
    /// the quantised weights, not the raw probabilities, so a mask whose
    /// every probability rounds to the base weight (e.g. one decay step
    /// above background) is recognised as the no-op it encodes.
    pub fn is_noop(&self) -> bool {
        self.data_probs
            .iter()
            .chain(&self.stab_probs)
            .all(|&p| weight_of_prob(p) == MASK_BASE_WEIGHT)
    }

    /// The reweighted detector graph this mask induces on `graph` (see
    /// [`DetectorGraph::reweighted`]). Both the reference masked decoder
    /// ([`MwpmDecoder::masked`]) and every tier of the bulk decoder's
    /// masked contexts build their graph through this one function, so
    /// their bit-identity rests on shared construction, not on parallel
    /// implementations.
    ///
    /// [`MwpmDecoder::masked`]: crate::decoder::MwpmDecoder::masked
    pub fn reweight(&self, graph: &DetectorGraph) -> DetectorGraph {
        let (data_w, stab_w) = self.weight_key();
        graph.reweighted(|kind| match kind {
            EdgeKind::Data(d) => data_w[d as usize],
            EdgeKind::Time(i) => stab_w[i],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{QecCode, RepetitionCode};
    use radqec_detect::StrikeMask;
    use radqec_topology::generators::linear;

    #[test]
    fn weight_mapping_is_log_likelihood_shaped() {
        assert_eq!(weight_of_prob(0.0), MASK_BASE_WEIGHT);
        assert_eq!(weight_of_prob(0.01), MASK_BASE_WEIGHT);
        assert_eq!(weight_of_prob(1.0), 1);
        let quarter = weight_of_prob(0.25);
        let ninth = weight_of_prob(1.0 / 9.0);
        assert!(quarter < ninth, "hotter qubits must weigh less: {quarter} vs {ninth}");
        assert!((1..MASK_BASE_WEIGHT).contains(&quarter));
    }

    #[test]
    fn projection_follows_the_layout() {
        // rep-(3,1) on linear(6), identity placement: data 0..3, stabs
        // 3..5, readout 5. Strike at physical 1 (= data 1), radius 2.
        let code = RepetitionCode::bit_flip(3).build();
        let topo = linear(6);
        let layout = Layout::new((0..6).collect(), 6);
        let strike = StrikeMask::try_new(&topo, 1, 2, 1.0).unwrap();
        let mask = DecoderMask::project(&strike, &code, &layout);
        assert_eq!(mask.data_prob(1), 1.0);
        assert_eq!(mask.data_prob(0), 0.25);
        assert_eq!(mask.data_prob(2), 0.25);
        // Ancillas at physical 3/4 sit 2+/3 hops out — outside radius 2.
        assert_eq!(mask.stab_prob(0), 0.0);
        assert_eq!(mask.stab_prob(1), 0.0);
        assert!(!mask.is_noop());
    }

    #[test]
    fn zero_radius_projects_to_noop() {
        let code = RepetitionCode::bit_flip(3).build();
        let topo = linear(6);
        let layout = Layout::new((0..6).collect(), 6);
        let strike = StrikeMask::try_new(&topo, 1, 0, 1.0).unwrap();
        let mask = DecoderMask::project(&strike, &code, &layout);
        assert!(mask.is_noop());
        let (dw, sw) = mask.weight_key();
        assert!(dw.iter().chain(&sw).all(|&w| w == MASK_BASE_WEIGHT));
    }

    #[test]
    fn scaling_to_background_becomes_noop() {
        let mask = DecoderMask::from_probs(vec![1.0, 0.25, 0.0], vec![0.1, 0.0]);
        assert!(!mask.is_noop());
        let cold = mask.scaled(0.005);
        assert!(cold.is_noop(), "sub-reference probabilities quantise to base weight");
    }

    #[test]
    fn routed_host_projects_through_the_seat_map_onto_native_seats() {
        // The module docs call the routed-host projection approximate
        // because SWAPs migrate qubits off the initial layout. The
        // transpiler's time-resolved seat map closes that gap: rep-(3,1)
        // memory routed from a *trivial* placement settles, after the
        // first round's SWAPs, into a steady seating whose left chain end
        // (data 0, ancilla 0, data 1 on physical 0..3) coincides with the
        // zero-SWAP native embedding — so a strike landing there must
        // project onto the same logical neighbourhood through
        // `seat_at(round)` as it does on the native host, while the
        // initial-layout projection mislocates it.
        use crate::codes::CodeSpec;
        use radqec_transpiler::{transpile_with_layout, TranspileOptions};

        let spec = CodeSpec::from(RepetitionCode::bit_flip(3));
        let memory = spec.build_memory(3);
        let (topo, native_l2p) = spec.native_embedding().unwrap();
        let n = topo.num_qubits();
        let native = transpile_with_layout(
            &memory.circuit,
            &topo,
            Layout::new(native_l2p, n),
            &TranspileOptions::default(),
        );
        assert_eq!(native.swap_count, 0, "the native embedding is the zero-SWAP reference");
        let routed = transpile_with_layout(
            &memory.circuit,
            &topo,
            Layout::new((0..memory.total_qubits()).collect(), n),
            &TranspileOptions::default(),
        );
        assert!(routed.swap_count > 0, "the trivial placement must force routing");
        // One seat snapshot per round barrier; epoch 0 precedes any SWAP
        // and epochs past the last barrier clamp to the final layout.
        assert_eq!(routed.seat_maps.len(), 3);
        assert_eq!(routed.seat_at(0), &routed.initial_layout);
        assert_eq!(routed.seat_at(99), &routed.final_layout);
        // The routing reaches steady state after round 0.
        assert_eq!(routed.seat_at(1), routed.seat_at(2));
        assert_ne!(routed.seat_at(0), routed.seat_at(1));
        // Strike at the chain's left end, too small to reach the seats
        // whose occupants differ between the two hosts.
        let strike = StrikeMask::try_new(&topo, 0, 2, 1.0).unwrap();
        let through_seats = DecoderMask::project_memory(&strike, &memory, routed.seat_at(2));
        let on_native = DecoderMask::project_memory(&strike, &memory, &native.initial_layout);
        assert_eq!(
            through_seats, on_native,
            "time-resolved seats must recover the zero-SWAP projection"
        );
        let through_initial = DecoderMask::project_memory(&strike, &memory, &routed.initial_layout);
        assert_ne!(
            through_seats, through_initial,
            "the initial-layout approximation mislocates the strike on a routed host"
        );
    }
}
