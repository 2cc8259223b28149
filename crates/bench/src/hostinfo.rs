//! The shared `"host"` block of every bench JSON artifact.
//!
//! Every emitter (`BENCH_kernels.json`, `BENCH_e2e.json`,
//! `BENCH_skew.json`, `BENCH_compress.json`, `BENCH_serve.json`,
//! `BENCH_ooc.json`) stamps the host's available parallelism, total
//! system memory, and the single-core flag, so a ~1x curve, a serial
//! wall time from a one-core host, or a spill measurement from a
//! memory-starved host can never be mistaken for a representative
//! measurement.

use scilint::json::{obj, Json};

/// Detect the host's available parallelism (1 when the query fails).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Total system memory in bytes, from `/proc/meminfo`'s `MemTotal` line;
/// 0 when undetectable (non-Linux hosts, restricted procfs). The bench
/// crate is the sanctioned home for ambient host probes like this one —
/// library crates stay deterministic.
pub fn total_memory_bytes() -> u64 {
    let Ok(meminfo) = std::fs::read_to_string("/proc/meminfo") else {
        return 0;
    };
    meminfo
        .lines()
        .find_map(|line| line.strip_prefix("MemTotal:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// The shared host block: parallelism, total memory, single-core flag.
pub fn host_block(host_parallelism: usize) -> Json {
    obj([
        ("available_parallelism", host_parallelism.into()),
        ("total_memory_bytes", total_memory_bytes().into()),
        ("single_core_host", (host_parallelism == 1).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_flag_tracks_parallelism() {
        assert!(host_block(1)
            .render()
            .contains("\"single_core_host\": true"));
        assert!(host_block(8)
            .render()
            .contains("\"single_core_host\": false"));
        assert!(host_block(8)
            .render()
            .contains("\"available_parallelism\": 8"));
    }

    #[test]
    fn detection_reports_at_least_one() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn host_block_carries_total_memory() {
        assert!(host_block(1).render().contains("\"total_memory_bytes\": "));
        // On Linux (the CI host) /proc/meminfo is readable and non-zero;
        // elsewhere the probe degrades to the explicit 0 sentinel.
        if cfg!(target_os = "linux") {
            assert!(total_memory_bytes() > 0);
        }
    }
}
