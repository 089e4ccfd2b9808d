//! The instrument registry: named counters, gauges and fixed-bucket
//! histograms, all lock-free on the hot path.
//!
//! Instruments are created on first use ([`Registry::counter`] etc.) and
//! live for the registry's lifetime; handles are cheap `Arc` clones that
//! callers cache to skip the name lookup on hot paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over `u64` samples (latencies in
/// microseconds, sizes in bytes, ...).
///
/// Buckets are cumulative-style upper bounds: sample `v` lands in the
/// first bucket whose bound is `>= v`; anything above the last bound
/// lands in the implicit overflow bucket. Percentiles interpolate
/// linearly inside the winning bucket, which is exact enough for p50/p99
/// dashboards and never allocates.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow slot.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Default bucket bounds for latency-style histograms, microseconds:
/// 1µs .. ~100s in roughly 2.5× steps.
pub(crate) const LATENCY_US_BOUNDS: &[u64] = &[
    1,
    2,
    5,
    10,
    25,
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub(crate) fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample, 0 when empty.
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the winning bucket. `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut seen = 0u64;
        for (i, slot) in self.counts.iter().enumerate() {
            let c = slot.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: cap at the observed max.
                    self.max().max(lo)
                };
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + (hi - lo) as f64 * within);
            }
            seen = next;
        }
        Some(self.max() as f64)
    }

    /// Median estimate.
    pub(crate) fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub(crate) fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub(crate) fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Point-in-time copy of one histogram, used in [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: Option<f64>,
    pub p95: Option<f64>,
    pub p99: Option<f64>,
}

impl HistogramSnapshot {
    fn to_json(&self) -> Json {
        let mut o = Json::obj([("count", Json::from(self.count))])
            .with("sum", self.sum)
            .with("max", self.max);
        for (name, p) in [("p50", self.p50), ("p95", self.p95), ("p99", self.p99)] {
            if let Some(p) = p {
                o = o.with(name, p);
            }
        }
        o
    }
}

/// Point-in-time copy of every instrument in a `Registry`.
///
/// Keys are the dotted instrument names, so new instruments show up
/// without an API change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The whole snapshot as one JSON object: counters and gauges as
    /// maps, histograms as `{count, sum, max, p50, p95, p99}` objects
    /// (percentiles only once the histogram has samples).
    pub fn to_json(&self) -> Json {
        fn map<V>(m: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        Json::obj([
            ("counters", map(&self.counters, |v| Json::from(*v))),
            ("gauges", map(&self.gauges, |v| Json::from(*v))),
            ("histograms", map(&self.histograms, |h| h.to_json())),
        ])
    }
}

/// Named instruments, created on first use.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Returns the counter named `name`, creating it if needed.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Returns the histogram named `name`, creating it with `bounds` if
    /// needed. An existing histogram keeps its original bounds.
    pub(crate) fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(bounds));
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Returns the histogram named `name` with the default latency
    /// bounds ([`LATENCY_US_BOUNDS`], microsecond samples).
    pub(crate) fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, LATENCY_US_BOUNDS)
    }

    /// Copies every instrument into a [`Snapshot`].
    pub(crate) fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count(),
                        sum: v.sum(),
                        max: v.max(),
                        p50: v.p50(),
                        p95: v.p95(),
                        p99: v.p99(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("x").get(), 4);
        assert_eq!(r.snapshot().counter("x"), 4);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::default();
        r.gauge("u").set(0.25);
        r.gauge("u").set(0.75);
        assert_eq!(r.snapshot().gauge("u"), Some(0.75));
    }

    #[test]
    fn histogram_buckets_samples_correctly() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.record(v);
        }
        // Buckets: <=10 gets {1,10}; <=100 gets {11,100}; <=1000 empty;
        // overflow gets {5000}.
        let counts: Vec<u64> = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, [2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 5000);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let h = Histogram::new(&[10, 20, 30, 40, 50, 100]);
        // 100 samples spread uniformly over 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.p50().unwrap();
        assert!(
            (40.0..=60.0).contains(&p50),
            "p50 of uniform 1..=100 should be ~50, got {p50}"
        );
        let p99 = h.p99().unwrap();
        assert!(
            (90.0..=100.0).contains(&p99),
            "p99 of uniform 1..=100 should be ~99, got {p99}"
        );
        // Quantiles are monotone.
        assert!(h.quantile(0.1).unwrap() <= p50);
        assert!(p50 <= p99);
    }

    #[test]
    fn histogram_overflow_bucket_caps_at_observed_max() {
        let h = Histogram::new(&[10]);
        h.record(7_000);
        h.record(9_000);
        let p99 = h.p99().unwrap();
        assert!(
            p99 <= 9_000.0,
            "p99 must not exceed observed max, got {p99}"
        );
        assert!(p99 > 10.0);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 5]);
    }

    #[test]
    fn registry_histogram_keeps_first_bounds() {
        let r = Registry::default();
        let h1 = r.histogram("lat", &[10, 100]);
        let h2 = r.histogram("lat", &[999]);
        h1.record(50);
        assert_eq!(h2.count(), 1, "same instrument must be returned");
        assert_eq!(h2.bounds, [10, 100]);
    }
}
