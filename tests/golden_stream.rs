//! Golden-stream regression pins (ISSUE 4 satellite).
//!
//! The streaming overhaul (workspace reuse, exact skip tables, the
//! round-by-round executor) is required to leave every sampled stream
//! **bit-identical** to the PR 3 path at a fixed seed. These tests pin
//! FNV-1a digests of `stream_batches` output, captured from the pre-PR
//! implementation, for rep-3 and xxzz-(3,3) with and without a strike on
//! both samplers — any change to draw order, chunking or executor
//! semantics shows up as a digest mismatch.
//!
//! The injection engine's streams are pinned the same way: digests of
//! `InjectionEngine::frame_batches_at_sample` (frame sampler, a chunk grid
//! whose last chunk runs short) and the exact bits of tableau-sampler
//! logical error rates (that arm has no batch accessor).
//!
//! To re-capture (only when a stream-breaking change is *intended*):
//! `cargo test --release --test golden_stream -- --ignored --nocapture`.

use radqec_circuit::ShotBatch;
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::{InjectionEngine, SamplerKind};
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_topology::generators::mesh;

/// FNV-1a over the batch grid: shot counts, widths and every row word.
fn digest(batches: &[ShotBatch]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(batches.len() as u64);
    for b in batches {
        mix(b.shots() as u64);
        mix(u64::from(b.num_clbits()));
        for c in 0..b.num_clbits() {
            for &w in b.row(c) {
                mix(w);
            }
        }
    }
    h
}

struct Case {
    name: &'static str,
    spec: CodeSpec,
    rounds: usize,
    shots: usize,
    strike_root: Option<u32>,
    sampler: SamplerKind,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for (name, spec, rounds, shots) in [
        ("rep3", CodeSpec::from(RepetitionCode::bit_flip(3)), 4, 200),
        ("xxzz33", CodeSpec::from(XxzzCode::new(3, 3)), 4, 200),
        ("xxzz55", CodeSpec::from(XxzzCode::new(5, 5)), 10, 300),
    ] {
        for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
            // The per-shot tableau oracle at xxzz55×10 rounds is slow;
            // the small codes cover it.
            if name == "xxzz55" && sampler == SamplerKind::Tableau {
                continue;
            }
            for strike_root in [None, Some(2)] {
                v.push(Case { name, spec, rounds, shots, strike_root, sampler });
            }
        }
    }
    v
}

fn run_case(case: &Case) -> u64 {
    let engine = StreamEngine::builder(case.spec, case.rounds)
        .shots(case.shots)
        .seed(0x601D)
        .sampler(case.sampler)
        .native()
        .build();
    let fault = match case.strike_root {
        None => StreamFault::None,
        Some(root) => StreamFault::Strike { model: RadiationModel::default(), root },
    };
    digest(&engine.stream_batches(&fault, &NoiseSpec::paper_default()))
}

/// The pre-PR (PR 3) digests; see module docs for the capture command.
const GOLDEN: &[(&str, &str, bool, u64)] = &[
    ("rep3", "FrameBatch", false, 0x0572d20c2054884e),
    ("rep3", "FrameBatch", true, 0x597acc2e1f4fd4b8),
    ("rep3", "Tableau", false, 0xb3383d5932b56614),
    ("rep3", "Tableau", true, 0xd9dd5624e29e0ba2),
    ("xxzz33", "FrameBatch", false, 0x5a3d1558e1caac25),
    ("xxzz33", "FrameBatch", true, 0x96537066b4044398),
    ("xxzz33", "Tableau", false, 0xabc5f2fd0fb672ac),
    ("xxzz33", "Tableau", true, 0xb399eb6e8e813f33),
    ("xxzz55", "FrameBatch", false, 0x43048856cb8498d7),
    ("xxzz55", "FrameBatch", true, 0x321498237a1e2af2),
];

#[test]
fn streams_match_pre_overhaul_golden_digests() {
    assert!(!GOLDEN.is_empty(), "golden digests not captured yet");
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list drifted from golden list");
    for (case, &(name, sampler, strike, want)) in cases.iter().zip(GOLDEN) {
        assert_eq!(case.name, name);
        assert_eq!(format!("{:?}", case.sampler), sampler);
        assert_eq!(case.strike_root.is_some(), strike);
        assert_eq!(
            run_case(case),
            want,
            "{name} {sampler} strike={strike}: stream no longer bit-identical to PR 3"
        );
    }
}

#[test]
#[ignore = "capture tool: prints the GOLDEN table from the current implementation"]
fn capture_golden_digests() {
    for case in cases() {
        println!(
            "    (\"{}\", \"{:?}\", {}, 0x{:016x}),",
            case.name,
            case.sampler,
            case.strike_root.is_some(),
            run_case(&case)
        );
    }
}

/// The injection cases: rep-5 on its default host and xxzz-(3,3) on a
/// 5×5 mesh.
fn injection_engine(name: &str, sampler: SamplerKind, shots: usize) -> InjectionEngine {
    let builder = match name {
        "rep5" => InjectionEngine::builder(RepetitionCode::bit_flip(5).into()),
        "xxzz33" => InjectionEngine::builder(XxzzCode::new(3, 3).into()).topology(mesh(5, 5)),
        _ => unreachable!("unknown injection case {name}"),
    };
    builder.shots(shots).seed(0x601D).sampler(sampler).frame_chunk(128).build()
}

fn injection_fault(strike: bool) -> FaultSpec {
    match strike {
        false => FaultSpec::None,
        true => FaultSpec::Radiation { model: RadiationModel::default(), root: 2 },
    }
}

/// Frame-sampler cases: `(code, strike, sample)`, 300 shots on a 128-shot
/// chunk grid (the last chunk runs 44 shots).
fn injection_frame_cases() -> Vec<(&'static str, bool, usize)> {
    let mut v = Vec::new();
    for name in ["rep5", "xxzz33"] {
        for strike in [false, true] {
            for sample in [0, 3] {
                v.push((name, strike, sample));
            }
        }
    }
    v
}

fn run_injection_frame_case(name: &str, strike: bool, sample: usize) -> u64 {
    let engine = injection_engine(name, SamplerKind::FrameBatch, 300);
    digest(&engine.frame_batches_at_sample(
        &injection_fault(strike),
        &NoiseSpec::paper_default(),
        sample,
    ))
}

/// Tableau-sampler logical error rate (64 shots, strike at sample 0), as
/// its exact `f64` bits.
fn run_injection_tableau_case(name: &str) -> u64 {
    let engine = injection_engine(name, SamplerKind::Tableau, 64);
    engine.logical_error_at_sample(&injection_fault(true), &NoiseSpec::paper_default(), 0).to_bits()
}

/// Injection-engine digests captured before the engines shared one
/// sampling core; see module docs for the capture command.
const INJECTION_FRAME_GOLDEN: &[(&str, bool, usize, u64)] = &[
    ("rep5", false, 0, 0xcf77091c36fa8caf),
    ("rep5", false, 3, 0x11214d22186043b8),
    ("rep5", true, 0, 0x4e3108719987b8cd),
    ("rep5", true, 3, 0xf8fa4cd4e7250c42),
    ("xxzz33", false, 0, 0xcb5deb857eb9261e),
    ("xxzz33", false, 3, 0xfdcd169f49bc0c10),
    ("xxzz33", true, 0, 0x88563674791dd63c),
    ("xxzz33", true, 3, 0x217e2ef0695afb1d),
];

/// Tableau logical error rates (`f64::to_bits`) captured alongside
/// [`INJECTION_FRAME_GOLDEN`].
const INJECTION_TABLEAU_GOLDEN: &[(&str, u64)] =
    &[("rep5", 0x3fd8000000000000), ("xxzz33", 0x3fe3000000000000)];

#[test]
fn injection_streams_match_golden_digests() {
    let cases = injection_frame_cases();
    assert_eq!(cases.len(), INJECTION_FRAME_GOLDEN.len(), "case list drifted from golden list");
    for (&(name, strike, sample), &(g_name, g_strike, g_sample, want)) in
        cases.iter().zip(INJECTION_FRAME_GOLDEN)
    {
        assert_eq!((name, strike, sample), (g_name, g_strike, g_sample));
        assert_eq!(
            run_injection_frame_case(name, strike, sample),
            want,
            "{name} strike={strike} sample={sample}: frame batches changed"
        );
    }
    assert_eq!(INJECTION_TABLEAU_GOLDEN.len(), 2, "case list drifted from golden list");
    for &(name, want) in INJECTION_TABLEAU_GOLDEN {
        assert_eq!(run_injection_tableau_case(name), want, "{name}: tableau logical error changed");
    }
}

#[test]
#[ignore = "capture tool: prints the injection GOLDEN tables from the current implementation"]
fn capture_injection_golden_digests() {
    for (name, strike, sample) in injection_frame_cases() {
        println!(
            "    (\"{name}\", {strike}, {sample}, 0x{:016x}),",
            run_injection_frame_case(name, strike, sample)
        );
    }
    for name in ["rep5", "xxzz33"] {
        println!("    (\"{name}\", 0x{:016x}),", run_injection_tableau_case(name));
    }
}
