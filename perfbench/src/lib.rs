//! The radqec benchmark: two injection campaigns from the paper and a
//! closed-loop strike stream, timed end to end and per layer.
//!
//! Every workload runs the same three phases (see `README.md` for the
//! metric list and why each workload was chosen):
//!
//! 1. **Timed phase.** After one unmeasured warm-up, repetitions of
//!    set-up plus one campaign, each from freshly built engines, until the
//!    run's seconds are used up. The end-to-end metrics come from here,
//!    with tracing off.
//! 2. **Traced replay.** The same campaign once more on one thread, with
//!    a span around every call into a layer ([`trace::Tracer`]); the
//!    per-layer metrics come from here.
//! 3. **Output checks**, outside both timed sections.

pub mod host;
mod inject;
pub mod json;
mod stats;
mod stream;
pub mod trace;

use json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's two-round radiation campaign on xxzz-(5,5), mesh9x9.
    InjectXxzz55,
    /// The same campaign on xxzz-(3,3), mesh5x5.
    InjectXxzz33,
    /// Closed-loop detect→decode of a central strike on xxzz-(3,3).
    StreamXxzz33Strike,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::InjectXxzz55, Workload::InjectXxzz33, Workload::StreamXxzz33Strike];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InjectXxzz55 => "inject_xxzz55",
            Workload::InjectXxzz33 => "inject_xxzz33",
            Workload::StreamXxzz33Strike => "stream_xxzz33_strike",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one run: everything the program receives that
/// depends on `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// Master seed of the engines' sampling streams.
    pub engine_seed: u64,
}

impl Inputs {
    /// Derive a workload's inputs from the benchmark seed (SplitMix64
    /// finaliser over seed and workload, so neighbouring seeds and
    /// different workloads get unrelated streams).
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let salt = Workload::ALL.iter().position(|&w| w == workload).expect("listed") as u64;
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Inputs { engine_seed: z ^ (z >> 31) }
    }
}

/// End-to-end metrics `(name, unit)`, as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("shots_per_s", "shots/s"),
    ("round_us_p50", "us"),
    ("round_us_p99", "us"),
    ("ler", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as declared in `BENCHMARK.json`. A
/// layer a workload does not run through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.engine_build_s", "s"),
    ("setup.decoder_build_s", "s"),
    ("setup.calibrate_s", "s"),
    ("sampler.busy_s", "s"),
    ("sampler.busy_share", "ratio"),
    ("sampler.shots_per_s", "shots/s"),
    ("sampler.calls", "count"),
    ("sampler.call_us_p50", "us"),
    ("sampler.call_us_p99", "us"),
    ("workspace.allocated", "count"),
    ("workspace.reused", "count"),
    ("bulk_decoder.busy_s", "s"),
    ("bulk_decoder.busy_share", "ratio"),
    ("bulk_decoder.batches", "count"),
    ("bulk_decoder.batch_us_p50", "us"),
    ("bulk_decoder.batch_us_p99", "us"),
    ("bulk_decoder.trivial_share", "ratio"),
    ("bulk_decoder.cache_hit_share", "ratio"),
    ("bulk_decoder.analytic_share", "ratio"),
    ("bulk_decoder.matching_share", "ratio"),
    ("bulk_decoder.cache_entries", "count"),
    ("bulk_decoder.cache_evictions", "count"),
    ("bulk_decoder.degraded", "count"),
    ("matching.solves", "count"),
    ("stream.chunks", "count"),
    ("stream.chunks_stolen", "count"),
    ("stream.chunk_retries", "count"),
    ("stream.failed_chunks", "count"),
    ("stream.sink_share", "ratio"),
    ("stream_decoder.busy_s", "s"),
    ("stream_decoder.busy_share", "ratio"),
    ("stream_decoder.ns_per_shot_round", "ns"),
    ("stream_decoder.alarms", "count"),
    ("stream_decoder.first_alarm_round", "round"),
    ("spacetime.trivial_share", "ratio"),
    ("spacetime.cache_hit_share", "ratio"),
    ("spacetime.matching_share", "ratio"),
    ("spacetime.contexts", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Values for a fixed metric list; unset metrics read 0.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{name: {value, unit}}` over `list`, in list order.
    pub fn to_json(&self, list: &[(&str, &str)]) -> Json {
        Json::obj(list.iter().map(|&(name, unit)| {
            (name, Json::obj([("value", Json::from(self.get(name))), ("unit", Json::str(unit))]))
        }))
    }
}

/// One output check, made outside the timed phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: shots (replicas) over every timed campaign,
    /// plus one per output check.
    pub attempted: u64,
    /// Failed operations: degraded decodes and shots of failed chunks in
    /// the timed campaigns, plus failed checks.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Workload half of the provenance block (shots, chunk width, sample
    /// counts, ...).
    pub provenance: Vec<(String, Json)>,
    /// The traced replay's spans.
    pub tracer: trace::Tracer,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Timed repetitions never stop before this many, however short the run.
pub const MIN_REPS: usize = 3;

/// A repetition counts as uncontended when the hypervisor took at most
/// this share of the machine's CPU time while it ran.
pub const STEAL_LIMIT: f64 = 0.05;

/// The timed phase's repetitions.
pub struct Timed<T> {
    pub reps: Vec<T>,
    /// Per repetition: the share of the machine's CPU time (wall × CPUs)
    /// the hypervisor took while it ran.
    pub steal: Vec<f64>,
    /// Peak resident memory once the first [`MIN_REPS`] repetitions have
    /// run: a fixed amount of work, so the figure does not grow with how
    /// many repetitions a run fits (the harness keeps every repetition's
    /// round latencies).
    pub peak_rss_mb: f64,
}

impl<T> Timed<T> {
    /// The repetitions timing statistics are taken over: those during
    /// which the hypervisor took at most [`STEAL_LIMIT`] of the machine's
    /// CPU time, or at most the run's median share when that is higher, so
    /// a heavily contended run still keeps its less contended half. Work a
    /// stolen CPU did not do measures the host's other tenants, not this
    /// program.
    pub fn timing_reps(&self) -> Vec<&T> {
        let limit = STEAL_LIMIT.max(stats::median(&self.steal));
        self.reps.iter().zip(&self.steal).filter(|(_, &s)| s <= limit).map(|(r, _)| r).collect()
    }

    /// Provenance of the timing statistics: repetitions run and kept, and
    /// the share of CPU time stolen over the whole phase.
    pub fn provenance(&self) -> Vec<(String, Json)> {
        let mean_steal = self.steal.iter().sum::<f64>() / self.steal.len().max(1) as f64;
        vec![
            ("timed_reps".into(), Json::from(self.reps.len())),
            ("timing_reps".into(), Json::from(self.timing_reps().len())),
            ("steal_share".into(), Json::from(mean_steal)),
        ]
    }
}

/// Run `rep` once to warm the process up (first-touch page faults, heap
/// growth, code paths), then until `seconds` have passed and at least
/// [`MIN_REPS`] times. The warm-up repetition is not measured: on the
/// reference host some of its rounds ran 10–40× slower than the same
/// rounds of later repetitions.
pub fn timed_reps<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Timed<T> {
    drop(rep());
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let capacity = host::cpus() as f64;
    let start = Instant::now();
    let mut timed = Timed { reps: Vec::new(), steal: Vec::new(), peak_rss_mb: 0.0 };
    while timed.reps.len() < MIN_REPS || start.elapsed() < budget {
        let (steal0, t) = (host::steal_s(), Instant::now());
        timed.reps.push(rep());
        let wall = t.elapsed().as_secs_f64();
        let stolen = host::steal_s().zip(steal0).map_or(0.0, |(b, a)| b - a);
        timed.steal.push(stolen / (wall * capacity));
        if timed.reps.len() == MIN_REPS {
            timed.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
    }
    timed
}

/// Tracing overhead is measured over alternating untraced/traced replay
/// pairs: at least one, at most this many, and no new pair once this much
/// time has gone into them.
pub const OVERHEAD_PAIRS: usize = 3;
const OVERHEAD_BUDGET: Duration = Duration::from_secs(2);

/// Tracing overhead as a share of the untraced time: the median wall of
/// the traced replays over the median of the untraced ones, minus one.
/// `replay` runs one replay and returns its wall time.
pub fn tracing_overhead(mut replay: impl FnMut(&mut trace::Tracer) -> f64) -> f64 {
    let start = Instant::now();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    while on.is_empty() || (on.len() < OVERHEAD_PAIRS && start.elapsed() < OVERHEAD_BUDGET) {
        off.push(replay(&mut trace::Tracer::disabled()));
        on.push(replay(&mut trace::Tracer::new()));
    }
    stats::median(&on) / stats::median(&off) - 1.0
}

/// Run one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(workload, seed);
    match workload {
        Workload::InjectXxzz55 => {
            inject::run(&inject::InjectConfig::xxzz55(), inputs, seconds, traced)
        }
        Workload::InjectXxzz33 => {
            inject::run(&inject::InjectConfig::xxzz33(), inputs, seconds, traced)
        }
        Workload::StreamXxzz33Strike => {
            stream::run(&stream::StreamConfig::xxzz33_strike(), inputs, seconds, traced)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seeds_and_workloads_give_distinct_inputs() {
        let a = Inputs::generate(Workload::InjectXxzz33, 1);
        assert_eq!(a, Inputs::generate(Workload::InjectXxzz33, 1));
        assert_ne!(a, Inputs::generate(Workload::InjectXxzz33, 2));
        assert_ne!(a, Inputs::generate(Workload::InjectXxzz55, 1));
    }

    #[test]
    fn benchmark_json_declares_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |name: &str| decl.contains(&format!("\"name\": \"{name}\""));
        for w in Workload::ALL {
            assert!(declared(w.name()), "workload {} missing", w.name());
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(declared(name), "metric {name} missing");
            assert!(decl.contains(&format!("\"unit\": \"{unit}\"")), "unit {unit} missing");
        }
        let metric_lines = decl.matches("\"unit\":").count();
        assert_eq!(metric_lines, END_TO_END.len() + PER_LAYER.len(), "undeclared extras");
    }

    #[test]
    fn timing_reps_drop_the_most_contended() {
        let timed =
            |steal: Vec<f64>| Timed { reps: (0..steal.len()).collect(), steal, peak_rss_mb: 0.0 };
        let quiet = timed(vec![0.0, 0.01, 0.2, 0.04]);
        assert_eq!(quiet.timing_reps(), [&0, &1, &3]);
        let busy = timed(vec![0.3, 0.1, 0.5, 0.2, 0.4]);
        assert_eq!(busy.timing_reps(), [&0, &1, &3], "the less contended half stays");
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_rejected() {
        Metrics::default().set("made_up", 1.0);
    }
}
