//! Where a result came from: host, toolchain, source revision — and the
//! process's peak memory.

use crate::json::Json;
use std::path::Path;

/// Worker threads the engines may use (they size their pools from this).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model as the kernel reports it, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in `dir`, read from `.git` without running git;
/// `"none"` outside a git checkout.
pub fn git_rev(dir: &Path) -> String {
    let git = dir.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the measured source tree under `root` (workspace
/// sources, vendored dependencies, manifests and the benchmark itself), so
/// a result stays attributable to its code where no `.git` is present.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() && entry.file_name() != "target" => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/build.rs"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned();
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in rel.bytes().chain([0]).chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{hash:016x}")
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor has taken from this machine so far, in
/// seconds: the `steal` column of `/proc/stat` (in USER_HZ = 100 ticks per
/// second), or `None` where the kernel does not report it.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// The host and build half of a result's provenance block.
pub fn provenance() -> Vec<(String, Json)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap_or(Path::new("."));
    vec![
        ("host_cpus".into(), Json::from(cpus())),
        ("cpu_model".into(), Json::str(cpu_model())),
        ("arch".into(), Json::str(std::env::consts::ARCH)),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile".into(), Json::str(env!("PERFBENCH_PROFILE"))),
        ("git_rev".into(), Json::str(git_rev(root))),
        ("source_digest".into(), Json::str(source_digest(root))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_outside_a_checkout_is_none() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(git_rev(&dir), "none");
    }

    #[test]
    fn source_digest_is_stable_and_content_sensitive() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
        assert_eq!(source_digest(root), source_digest(root));
        assert_ne!(source_digest(root), source_digest(&root.join("perfbench")));
    }

    #[test]
    fn linux_reports_peak_rss_and_steal() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            assert!(steal_s().is_some_and(|s| s >= 0.0));
        }
    }
}
