//! Host and provenance facts printed with every result: what ran, on
//! what, built how.

use std::path::Path;

use crate::{util, workspace_root, Args};

/// Peak resident set (`VmHWM`) of this process in MiB. Each run is its
/// own process running one workload, so this is the workload's peak.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    field_kib(&status, key)
}

fn field_kib(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Cache sizes of cpu0 as `L1d=48K L1i=32K L2=2048K L3=307200K`.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{suffix}={}", level.trim(), size.trim()));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(" ")
    }
}

/// The commit, when the benchmark runs inside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout; see source_fnv)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head.to_string(),
    }
}

/// FNV-1a over every Rust source and manifest of the workspace (paths
/// and bytes, sorted by path): identifies the measured code where no
/// git metadata exists.
fn source_fnv(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if !name.starts_with('.') && name != "target" && name != "out" {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "src", "perfbench"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut fp = sciserve::Fingerprint::new();
    for f in &files {
        fp.push_bytes(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        fp.push_bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x} ({} files)", fp.finish(), files.len())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block as one JSON object.
pub fn provenance(args: &Args, workers: usize, extra: &[(&'static str, String)]) -> String {
    let root = workspace_root();
    let mem_mib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| field_kib(&m, "MemTotal:"))
        .map_or(0, |kib| kib / 1024);
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.as_secs().to_string()),
        ("trace", args.trace.to_string()),
        ("cores", workers.to_string()),
        ("mem_total_mib", mem_mib.to_string()),
        ("caches", json_str(&cache_sizes())),
        ("commit", json_str(&commit(&root))),
        ("source_fnv", json_str(&source_fnv(&root))),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
    ];
    if workers < 2 {
        fields.push((
            "warning",
            json_str(
                "single-core host: parallel metrics (reference_par_ms, parexec.speedup, \
                 serve.concurrency_gain) carry no scaling information",
            ),
        ));
    }
    fields.extend(extra.iter().map(|(k, v)| (*k, json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / util::MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_fields_and_escapes_strings() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(field_kib(status, "VmHWM:"), Some(2048));
        assert_eq!(field_kib(status, "VmPeak:"), None);
        assert!(peak_rss_mib() > 0.0);
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
