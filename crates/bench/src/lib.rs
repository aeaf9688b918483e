//! # radqec-bench
//!
//! Benchmark harness for the `radqec` reproduction:
//!
//! * one **binary per paper artefact** (`fig1_fig2` … `fig8`, plus the
//!   ablation binaries) that regenerates the corresponding figure's series
//!   and prints it as a table/CSV;
//! * one **`*_throughput` binary per pipeline layer** (sampler, decoder,
//!   detection, mitigation, fleet, space-time) that times it and writes a
//!   `BENCH_*.json` file through [`Report`];
//! * **criterion benches** (`cargo bench`) for the performance-critical
//!   substrates: tableau simulator, blossom matching, decoders, transpiler
//!   and the end-to-end injection engine.
//!
//! Every binary accepts `--shots N` and `--seed N`; defaults are
//! laptop-friendly. Absolute numbers need larger budgets (the paper used
//! 400M injections); shapes are stable at the defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::InjectionEngine;
use radqec_noise::{FaultSpec, NoiseSpec};
use radqec_telemetry::MetricsSnapshot;
use std::time::Instant;

/// Parse `--name value` or `--name=value` from `std::env::args`, falling
/// back to `default`.
pub fn arg_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let key = format!("--{name}");
    for i in 0..args.len() {
        if args[i] == key {
            if let Some(v) = args.get(i + 1) {
                if let Ok(parsed) = v.parse::<T>() {
                    return parsed;
                }
                eprintln!("warning: could not parse {key} {v}, using default");
            }
        } else if let Some(rest) = args[i].strip_prefix(&format!("{key}=")) {
            if let Ok(parsed) = rest.parse::<T>() {
                return parsed;
            }
            eprintln!("warning: could not parse {key}={rest}, using default");
        }
    }
    default
}

/// Where figure/detection binaries send their CSV series: stdout by
/// default (the historical behaviour), or a file when the invocation
/// carries `--csv <path>` — sections are written in emission order, each
/// preceded by a `# <name>` comment line, so one file collects a whole
/// binary's series.
pub struct CsvSink {
    path: Option<String>,
    sections: usize,
}

impl CsvSink {
    /// Build from the process arguments (`--csv <path>` / `--csv=<path>`).
    pub fn from_args() -> Self {
        let path = arg_flag("csv", String::new());
        CsvSink { path: (!path.is_empty()).then_some(path), sections: 0 }
    }

    /// A sink that always prints to stdout (tests, embedding).
    pub fn stdout() -> Self {
        CsvSink { path: None, sections: 0 }
    }

    /// Emit one named CSV section. The first emission truncates the target
    /// file; later ones append.
    pub fn emit(&mut self, name: &str, csv: &str) {
        match &self.path {
            None => println!("\ncsv [{name}]:\n{csv}"),
            Some(path) => {
                use std::io::Write as _;
                let mut opts = std::fs::OpenOptions::new();
                if self.sections == 0 {
                    opts.write(true).create(true).truncate(true);
                } else {
                    opts.append(true);
                }
                let mut file = opts.open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
                write!(file, "# {name}\n{csv}").unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("csv [{name}] -> {path}");
            }
        }
        self.sections += 1;
    }
}

/// One workload of the detection and mitigation sweeps.
pub struct Workload {
    /// Row name in the BENCH file and CSV section name.
    pub name: &'static str,
    /// The code under test.
    pub spec: CodeSpec,
    /// Whether this workload carries the bin's acceptance gates.
    pub acceptance: bool,
}

/// The rep-5 / xxzz-(3,3) / xxzz-(5,5) sweep shared by
/// `detect_throughput` and `mitigation_throughput`; xxzz-(5,5) carries
/// the gates.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "rep5", spec: RepetitionCode::bit_flip(5).into(), acceptance: false },
        Workload { name: "xxzz33", spec: XxzzCode::new(3, 3).into(), acceptance: false },
        Workload { name: "xxzz55", spec: XxzzCode::new(5, 5).into(), acceptance: true },
    ]
}

/// A sweep's distinct strike roots in first-seen row order (rows repeat
/// each root once per detector or policy).
pub fn sweep_roots(roots: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut distinct = Vec::new();
    for root in roots {
        if !distinct.contains(&root) {
            distinct.push(root);
        }
    }
    distinct
}

/// End-to-end injection throughput at sample 0: one warm-up sample
/// (it builds the frame path's reference trace), then `reps` timed ones.
/// Returns the last logical-error rate and the mean shots/s.
pub fn time_samples(
    engine: &InjectionEngine,
    fault: &FaultSpec,
    noise: &NoiseSpec,
    reps: usize,
) -> (f64, f64) {
    let _ = engine.logical_error_at_sample(fault, noise, 0);
    let start = Instant::now();
    let mut rate = 0.0;
    for _ in 0..reps {
        rate = engine.logical_error_at_sample(fault, noise, 0);
    }
    let secs = start.elapsed().as_secs_f64() / reps as f64;
    (rate, engine.shots() as f64 / secs)
}

/// JSON rendering of the scalars a [`Row`] holds.
mod json {
    use std::fmt::Write as _;

    /// A value that renders as one JSON scalar: strings, integers,
    /// floats, `bool`s, and `Option`s of those (`None` is `null`).
    pub trait Scalar {
        /// Append the JSON text of `self` to `out`.
        fn render(&self, out: &mut String);
    }

    impl<T: Scalar + ?Sized> Scalar for &T {
        fn render(&self, out: &mut String) {
            (**self).render(out);
        }
    }

    impl<T: Scalar> Scalar for Option<T> {
        fn render(&self, out: &mut String) {
            match self {
                Some(v) => v.render(out),
                None => out.push_str("null"),
            }
        }
    }

    /// Shortest round-trip form; JSON has no NaN or infinity, so
    /// non-finite values are `null`.
    impl Scalar for f64 {
        fn render(&self, out: &mut String) {
            if self.is_finite() {
                let _ = write!(out, "{self}");
            } else {
                out.push_str("null");
            }
        }
    }

    macro_rules! display_scalar {
        ($($t:ty),*) => {$(
            impl Scalar for $t {
                fn render(&self, out: &mut String) {
                    let _ = write!(out, "{self}");
                }
            }
        )*};
    }
    display_scalar!(bool, u32, u64, usize);

    impl Scalar for str {
        fn render(&self, out: &mut String) {
            out.push('"');
            for c in self.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if u32::from(c) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", u32::from(c));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    impl Scalar for String {
        fn render(&self, out: &mut String) {
            self.as_str().render(out);
        }
    }
}

/// One record of a BENCH file: `"key":value` members, rendered on one
/// line with no spaces, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Row(String);

impl Row {
    /// Append `"key":value`. Integers render as integers, floats in
    /// their shortest round-trip form (non-finite as `null`), strings
    /// JSON-escaped, `None` as `null`.
    pub fn field(mut self, key: &str, value: impl json::Scalar) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        json::Scalar::render(key, &mut self.0);
        self.0.push(':');
        value.render(&mut self.0);
        self
    }

    /// `<field>_p50` and `<field>_p99` of nanosecond histogram `metric`,
    /// in µs (see [`Row::percentiles`]).
    pub fn latency_us(self, snap: &MetricsSnapshot, metric: &str, field: &str) -> Self {
        self.quantile(snap, metric, field, 50, 1e3).quantile(snap, metric, field, 99, 1e3)
    }

    /// `<field>_p99` alone of nanosecond histogram `metric`, in µs — for
    /// stages where the tail is the story.
    pub fn latency_us_p99(self, snap: &MetricsSnapshot, metric: &str, field: &str) -> Self {
        self.quantile(snap, metric, field, 99, 1e3)
    }

    /// `<field>_p50` and `<field>_p99` of histogram `metric` in its own
    /// units (rounds, µs-valued samples, …). Each is the quantile's
    /// conservative upper bucket bound, or `null` when the histogram is
    /// absent or empty — so the field always exists for CI to assert on.
    pub fn percentiles(self, snap: &MetricsSnapshot, metric: &str, field: &str) -> Self {
        self.quantile(snap, metric, field, 50, 1.0).quantile(snap, metric, field, 99, 1.0)
    }

    /// `<field>_p<p>` of histogram `metric`, divided by `per`.
    fn quantile(self, snap: &MetricsSnapshot, metric: &str, field: &str, p: u8, per: f64) -> Self {
        let bound = snap.histogram(metric).and_then(|h| h.quantile(f64::from(p) / 100.0));
        self.field(&format!("{field}_p{p}"), bound.map(|b| b as f64 / per))
    }
}

/// Everything a `*_throughput` bin emits: the rows of its BENCH file, its
/// gate verdicts, and the merged telemetry snapshot behind
/// `--prometheus <path>` (text exposition 0.0.4).
#[derive(Default)]
pub struct Report {
    path: String,
    rows: Vec<Row>,
    gates: Vec<(String, bool)>,
    /// Everything merged so far (counters and histogram buckets sum,
    /// gauges keep their max).
    snap: MetricsSnapshot,
    prometheus: Option<String>,
}

impl Report {
    /// A report bound for `path`; reads `--prometheus` from the args.
    pub fn new(path: &str) -> Self {
        let prometheus = arg_flag("prometheus", String::new());
        let prometheus = (!prometheus.is_empty()).then_some(prometheus);
        Report { path: path.to_string(), prometheus, ..Report::default() }
    }

    /// Fold one registry snapshot into the exposition.
    pub fn merge(&mut self, snap: &MetricsSnapshot) {
        self.snap.merge_from(snap);
    }

    /// Append one record.
    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Record and print one gate verdict: `name` states the bound,
    /// `observed` the measured value.
    pub fn gate(&mut self, name: &str, observed: impl std::fmt::Display, ok: bool) {
        println!("  gate {name}: {observed} {}", if ok { "PASS" } else { "FAIL" });
        self.gates.push((name.to_string(), ok));
    }

    /// Write the BENCH file (one row per line) and, with `--prometheus`,
    /// the exposition; then print `wrote <path>`, flagged when a gate
    /// failed. Call once, after the last row.
    pub fn write(&self) {
        let rows: Vec<String> = self.rows.iter().map(|r| format!("  {{{}}}", r.0)).collect();
        let json = format!("[\n{}\n]\n", rows.join(",\n"));
        std::fs::write(&self.path, json).unwrap_or_else(|e| panic!("write {}: {e}", self.path));
        if let Some(path) = &self.prometheus {
            std::fs::write(path, self.snap.to_prometheus())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("prometheus exposition -> {path}");
        }
        println!("\n{}", self.summary());
    }

    fn summary(&self) -> String {
        let failed = self.gates.iter().any(|(_, ok)| !ok);
        format!("wrote {}{}", self.path, if failed { " (GATE FAILURES)" } else { "" })
    }
}

/// Render a probability as a percentage with one decimal, e.g. `12.3%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Render a fixed-width horizontal bar for terminal "plots".
pub fn bar(x: f64, scale: f64, width: usize) -> String {
    let filled = ((x / scale) * width as f64).round().clamp(0.0, width as f64) as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

/// Print a section header in the style used by all figure binaries.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 1.0, 4), "██··");
        assert_eq!(bar(2.0, 1.0, 4), "████");
        assert_eq!(bar(-1.0, 1.0, 4), "····");
    }

    #[test]
    fn arg_flag_default_used_without_flag() {
        assert_eq!(arg_flag("definitely-not-passed", 42usize), 42);
    }

    #[test]
    fn csv_sink_file_mode_truncates_then_appends() {
        let path = std::env::temp_dir().join("radqec_csv_sink_test.csv");
        let path_str = path.to_str().unwrap().to_string();
        let mut sink = CsvSink { path: Some(path_str.clone()), sections: 0 };
        sink.emit("stale", "old,data\n");
        // A fresh sink must truncate what an earlier run left behind.
        let mut sink = CsvSink { path: Some(path_str), sections: 0 };
        sink.emit("a", "x,y\n1,2\n");
        sink.emit("b", "u,v\n3,4\n");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, "# a\nx,y\n1,2\n# b\nu,v\n3,4\n");
        let _ = std::fs::remove_file(&path);
    }

    /// Undo the JSON string escapes [`Row::field`] emits.
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                }
                Some(e) => out.push(e),
                None => panic!("dangling escape in {s}"),
            }
        }
        out
    }

    #[test]
    fn row_renders_scalars_in_insertion_order() {
        let name = "rep-(5,1) \"strike\"\n";
        let row = Row::default()
            .field("workload", name)
            .field("shots", 128usize)
            .field("seed", 0xDE7EC7u64)
            .field("ler", 0.0546875)
            .field("delta", -0.25)
            .field("first_alarm_round", None::<usize>)
            .field("root", Some(40u32))
            .field("auc", f64::NAN)
            .field("rate", f64::INFINITY)
            .field("complete", true);
        assert_eq!(
            row.0,
            r#""workload":"rep-(5,1) \"strike\"\u000a","shots":128,"seed":14581447,"ler":0.0546875,"delta":-0.25,"first_alarm_round":null,"root":40,"auc":null,"rate":null,"complete":true"#
        );
        let quoted = row.0.strip_prefix("\"workload\":\"").unwrap();
        let escaped = &quoted[..quoted.find("\",\"shots\"").unwrap()];
        assert_eq!(unescape(escaped), name, "escaped string round-trips");
    }

    #[test]
    fn row_percentiles_scale_to_us_and_render_null_when_absent() {
        let reg = radqec_telemetry::MetricsRegistry::new();
        let h = reg.histogram("stage.decode_ns");
        for _ in 0..100 {
            h.record(10_000); // 10 µs
        }
        let snap = reg.snapshot();
        let bound_ns = snap.histogram("stage.decode_ns").unwrap().quantile(0.99).unwrap();
        assert!((10_000..20_000).contains(&bound_ns), "conservative upper bound {bound_ns}");
        let us = bound_ns as f64 / 1e3;
        let row = Row::default().latency_us(&snap, "stage.decode_ns", "decode_latency_us");
        assert_eq!(row.0, format!(r#""decode_latency_us_p50":{us},"decode_latency_us_p99":{us}"#));
        let raw = Row::default().percentiles(&snap, "stage.decode_ns", "decode_ns");
        assert_eq!(raw.0, format!(r#""decode_ns_p50":{bound_ns},"decode_ns_p99":{bound_ns}"#));
        // A metric nobody recorded still emits its fields — as null — so
        // CI's field assertions never depend on the workload's physics.
        let missing = Row::default()
            .percentiles(&snap, "detect.latency_rounds", "latency_rounds")
            .latency_us_p99(&snap, "stage.extract_ns", "extract_latency_us");
        assert_eq!(
            missing.0,
            r#""latency_rounds_p50":null,"latency_rounds_p99":null,"extract_latency_us_p99":null"#
        );
    }

    #[test]
    fn report_merges_registries_and_flags_failed_gates() {
        let a = radqec_telemetry::MetricsRegistry::new();
        let b = radqec_telemetry::MetricsRegistry::new();
        a.counter("decode.shots").add(3);
        b.counter("decode.shots").add(4);
        a.histogram("stream.round_ns").record(1000);
        b.histogram("stream.round_ns").record(1000);
        let mut report = Report::new("BENCH_test.json");
        report.merge(&a.snapshot());
        report.merge(&b.snapshot());
        assert_eq!(report.snap.counter("decode.shots"), 7);
        assert_eq!(report.snap.histogram("stream.round_ns").map(|h| h.count()), Some(2));
        report.gate("auc ≥ 0.9", 0.95, true);
        assert_eq!(report.summary(), "wrote BENCH_test.json");
        report.gate("ratio ≥ 0.8", 0.5, false);
        report.gate("delta > 0", 0.1, true);
        assert_eq!(report.summary(), "wrote BENCH_test.json (GATE FAILURES)");
    }

    #[test]
    fn report_writes_one_row_per_line_and_exposition_only_on_request() {
        let dir = std::env::temp_dir();
        let bench = dir.join("radqec_report_test_BENCH.json");
        let prom = dir.join("radqec_report_test.prom");
        let _ = std::fs::remove_file(&prom);
        let mut report = Report::new(bench.to_str().unwrap());
        assert!(report.prometheus.is_none(), "tests run without --prometheus");
        let reg = radqec_telemetry::MetricsRegistry::new();
        reg.counter("decode.shots").add(5);
        report.merge(&reg.snapshot());
        report.row(Row::default().field("workload", "rep5").field("shots", 5usize));
        report.row(Row::default().field("workload", "xxzz33").field("ler", 0.5));
        report.write();
        let written = std::fs::read_to_string(&bench).unwrap();
        assert_eq!(
            written,
            "[\n  {\"workload\":\"rep5\",\"shots\":5},\n  {\"workload\":\"xxzz33\",\"ler\":0.5}\n]\n"
        );
        assert!(!prom.exists(), "no --prometheus, no exposition");
        report.prometheus = Some(prom.to_str().unwrap().to_string());
        report.write();
        let exposition = std::fs::read_to_string(&prom).unwrap();
        assert!(exposition.contains("# TYPE decode_shots counter\ndecode_shots 5\n"));
        let _ = std::fs::remove_file(&bench);
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn csv_sink_without_flag_prints() {
        let mut sink = CsvSink::from_args();
        assert!(sink.path.is_none(), "tests run without --csv");
        sink.emit("noop", "h\n"); // must not touch the filesystem
        assert_eq!(sink.sections, 1);
    }
}
