//! Order statistics, the determinism digest, the seeded exponential draw
//! and the host fingerprint.

use sickle_benchmarks::Rng;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it (`p` in `(0, 100]`); 0.0 when empty. At
/// `p = 99` over 1000 samples, ten samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a-64 over each task's id and rendered solutions, framed like the
/// corpus dump digest: id, each solution followed by `\n`, then `\0`.
pub fn digest<'a>(tasks: impl IntoIterator<Item = (usize, &'a [String])>) -> u64 {
    let mut h = FNV_OFFSET;
    for (id, solutions) in tasks {
        h = fnv1a64(h, id.to_string().as_bytes());
        for s in solutions {
            h = fnv1a64(h, s.as_bytes());
            h = fnv1a64(h, b"\n");
        }
        h = fnv1a64(h, b"\0");
    }
    h
}

/// A uniform draw in `(0, 1]`.
pub fn unit(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// An exponential draw with the given mean (Poisson inter-arrival gap).
pub fn exponential(rng: &mut Rng, mean: f64) -> f64 {
    -unit(rng).ln() * mean
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc` and the CPU model of this host.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        // Ten samples (991..=1000) lie beyond p99.
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn digest_is_order_and_framing_sensitive() {
        let a = vec!["q1".to_string(), "q2".to_string()];
        let b = vec!["q2".to_string(), "q1".to_string()];
        let base = digest([(1, a.as_slice())]);
        assert_eq!(base, digest([(1, a.as_slice())]));
        assert_ne!(base, digest([(1, b.as_slice())]));
        assert_ne!(base, digest([(2, a.as_slice())]));
        // Task boundaries are framed: the solutions of one task cannot
        // be moved to the next without changing the digest.
        let none: Vec<String> = Vec::new();
        assert_ne!(
            digest([(1, a.as_slice()), (2, none.as_slice())]),
            digest([(1, none.as_slice()), (2, a.as_slice())])
        );
        // The empty input hashes to the FNV offset basis.
        assert_eq!(digest(std::iter::empty()), FNV_OFFSET);
        // Known FNV-1a-64 vector: "a" = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn exponential_draws_are_seeded_and_positive() {
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..1000)
                .map(|_| exponential(&mut rng, 2.0))
                .collect::<Vec<_>>()
        };
        let xs = draw(5);
        assert_eq!(xs, draw(5));
        assert_ne!(xs, draw(6));
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.25, "mean {mean}");
    }
}
