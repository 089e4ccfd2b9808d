//! Sample statistics: exact percentiles, the "ten samples beyond" rule
//! for choosing a tail percentile, and the spread and bound comparisons
//! the A/A mode applies.

/// Exact percentile over raw samples, linear between the two nearest
/// ranks. Returns 0 for no samples, so a layer that did nothing reports
/// zero instead of aborting the run.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Tail percentiles a timing may be reported at, highest first. Nothing
/// beyond p99: on a shared box the last thousandth of a distribution is
/// the hypervisor's, not the program's, and does not repeat.
const TAILS: [f64; 3] = [0.99, 0.90, 0.75];

/// The highest percentile of [`TAILS`] that still has at least ten
/// samples beyond it, or `None` below forty samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// A steady estimate of the tail of `samples`: the samples are cut into
/// `blocks` consecutive blocks, the tail percentile (chosen from the
/// block size by [`tail_quantile`]) is taken in each, and the median of
/// those is returned with the percentile used. One late scheduler tick
/// then moves one block, not the result.
pub fn blocked_tail(samples: &[f64], blocks: usize) -> (f64, f64) {
    let blocks = blocks.clamp(1, samples.len().max(1));
    let size = samples.len() / blocks;
    let Some(q) = tail_quantile(size) else {
        // Too few samples to cut: one block, best percentile available.
        let q = tail_quantile(samples.len()).unwrap_or(0.5);
        return (percentile(samples, q), q);
    };
    let per_block: Vec<f64> = samples
        .chunks_exact(size)
        .map(|b| percentile(b, q))
        .collect();
    (median(&per_block), q)
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them. `None` below two values or when
/// the median is zero.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By how much `candidate` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// True when `candidate` is within `bound` of `base`.
pub fn within_bound(base: f64, candidate: f64, better: Better, bound: f64) -> bool {
    worsening(base, candidate, better) <= bound + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_survives_empty_input() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }

    #[test]
    fn blocked_tail_ignores_one_outlier_block() {
        let mut samples: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        let (clean, q) = blocked_tail(&samples, 5);
        assert_eq!(q, 0.90);
        samples[450] = 1e9;
        samples[460] = 1e9;
        assert_eq!(blocked_tail(&samples, 5).0, clean);
        // Too few samples for blocks: falls back to one block.
        assert_eq!(blocked_tail(&[1.0, 2.0, 3.0], 5), (2.0, 0.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[2.0, 1.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!(within_bound(100.0, 109.0, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 111.0, Better::Lower, 0.10));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.0));
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(1.0, 1.0, Better::Higher, 0.0));
        assert!((worsening(200.0, 150.0, Better::Higher) - 0.25).abs() < 1e-12);
    }
}
