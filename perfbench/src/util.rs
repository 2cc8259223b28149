//! Small shared pieces: the check ledger, seed derivation, order
//! statistics and byte-size helpers.

use std::num::NonZeroUsize;

/// Bytes per MiB, for every `*_mb` metric.
pub const MIB: f64 = (1u64 << 20) as f64;

/// The host's core count: engine worker, partition and node counts and
/// the serve client count are all set to it.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Operations attempted and the checks among them that failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; record `what` when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Fold another ledger (e.g. one client thread's) into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The first few failure descriptions, for the error report.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.failures.iter().take(20)
    }
}

/// SplitMix64 finalizer: derives independent input seeds from the
/// command-line seed and a per-input salt.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for request draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(derive_seed(seed, 0x5eed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        derive_seed(self.0, 0)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw an index with probability proportional to `cumulative`'s
    /// increments (`cumulative` ascending, last element the total).
    pub fn weighted(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("at least one weight");
        let x = self.next_f64() * total;
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }
}

/// Sort ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice (0 when
/// empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile reported for `n` operations: the highest one that
/// still has at least ten operations beyond it, capped at p99 and never
/// below the median (a run of fewer than 20 operations has no tail).
pub fn tail_quantile(n: u64) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// `a / b`, or 0 when `b` is 0 (a ratio whose base did not occur).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail_quantile(7), 0.5);
        assert_eq!(tail_quantile(50), 0.8);
        assert_eq!(tail_quantile(100_000), 0.99);
    }

    #[test]
    fn seeds_and_draws_are_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        let cum = [1.0, 3.0, 6.0];
        let draws = |s| {
            let mut r = Rng::new(s);
            (0..64).map(|_| r.weighted(&cum)).collect::<Vec<_>>()
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9), draws(10));
        assert!(draws(9).iter().all(|&i| i < 3));
    }
}
