//! Support for the machine-readable perf harnesses (`*_scale`): exact
//! sample percentiles. The `BENCH_*.json` baselines themselves are
//! written and re-read with [`farm_telemetry::Json`], keys sorted
//! ([`farm_telemetry::Json::sort_keys`]) so regenerated files diff
//! cleanly against the committed ones.

/// Exact percentile over raw samples (linear interpolation between the
/// two nearest ranks). Unlike the telemetry histograms, this is not
/// bucketed — the harness keeps every sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&s, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&s, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }
}
