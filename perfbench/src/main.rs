//! The radqec benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inject_xxzz55|inject_xxzz33|stream_xxzz33_strike> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the provenance block and every metric with its unit, then, as
//! the last line, one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which also writes the spans to
//! `perfbench/out/trace-<workload>-seed<n>.json`). Exits 1 when an
//! output check fails, 2 on bad arguments.

use radqec_perfbench::json::Json;
use radqec_perfbench::{host, run, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(args.workload, args.seed, args.seconds, args.trace);

    let mut provenance = host::provenance();
    provenance.push(("workload".into(), Json::str(args.workload.name())));
    provenance.push(("seed".into(), Json::from(args.seed)));
    provenance.push(("seconds".into(), Json::from(args.seconds)));
    provenance.extend(outcome.provenance.iter().cloned());
    let provenance = Json::Obj(provenance);
    println!("provenance {provenance}");
    for check in &outcome.checks {
        let verdict = if check.passed { "PASS" } else { "FAIL" };
        println!("check {verdict} {}: {}", check.name, check.detail);
    }

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in list {
        println!("metric {name} = {} {unit}", outcome.metrics.get(name));
    }

    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
        let selfs = outcome.tracer.self_times_s();
        let dump = Json::obj([
            ("provenance", provenance),
            ("wall_s", Json::from(outcome.tracer.wall_s())),
            ("self_s", Json::obj(selfs.iter().map(|(&k, &v)| (k, Json::from(v))))),
            ("layers", outcome.metrics.to_json(PER_LAYER)),
            ("spans", outcome.tracer.to_json()),
        ]);
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{dump}\n")));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if let Some((layer, s)) = selfs
            .iter()
            .filter(|(k, _)| ["sampler", "bulk_decoder", "stream_decoder"].contains(k))
            .max_by(|a, b| a.1.total_cmp(b.1))
        {
            println!(
                "dominant layer {layer}: {:.1}% of traced wall",
                100.0 * s / outcome.tracer.wall_s()
            );
        }
    }

    let result = Json::obj([
        ("correct", Json::from(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", outcome.metrics.to_json(list)),
    ]);
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
