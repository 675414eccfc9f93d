//! Lightweight metrics used by tests and the benchmark harnesses.

use pws_obs::Histogram;
use std::collections::{BTreeMap, VecDeque};

/// A registry of named counters, fixed-bucket histograms and gauge rings.
///
/// Histograms ([`Metrics::record_hist`]) keep O(1) memory per series with
/// a deterministic log-bucket layout, so a series may see millions of
/// values; count, mean, min and max stay exact.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, GaugeRing>,
}

/// Default capacity of a [`GaugeRing`]: enough for the tail of a bench
/// run at one sample per ordered batch, fixed so memory never grows with
/// run length.
pub(crate) const DEFAULT_GAUGE_CAPACITY: usize = 4096;

/// A fixed-capacity time-series ring of `(t_us, value)` gauge samples.
///
/// Unlike a counter (monotone total) or a histogram (distribution without
/// time), a gauge ring answers *"what did this quantity look like over
/// time"* — queue depth, in-flight slots, lock-table size. Capacity is
/// fixed at creation; once full, the oldest sample is evicted, so the ring
/// deterministically holds the most recent `capacity` samples and
/// remembers how many it ever saw.
#[derive(Debug, Clone)]
pub struct GaugeRing {
    cap: usize,
    samples: VecDeque<(u64, f64)>,
    total: u64,
}

impl GaugeRing {
    /// An empty ring holding at most `cap` samples (min 1).
    pub(crate) fn new(cap: usize) -> Self {
        GaugeRing {
            cap: cap.max(1),
            samples: VecDeque::new(),
            total: 0,
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub(crate) fn push(&mut self, t_us: u64, value: f64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back((t_us, value));
        self.total += 1;
    }

    /// Samples currently retained.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// The configured capacity.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Total samples ever pushed (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates over the retained `(t_us, value)` samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The most recent sample, if any.
    #[cfg(test)]
    pub(crate) fn last(&self) -> Option<(u64, f64)> {
        self.samples.back().copied()
    }

    /// Summary statistics over the retained values.
    pub fn summary(&self) -> Option<Summary> {
        let values: Vec<f64> = self.samples.iter().map(|&(_, v)| v).collect();
        Summary::of(&values)
    }
}

/// Pre-formatted metric keys for one [`Metrics::record_batch_with`] prefix.
///
/// Formatting three key strings per batch would cost the per-ordered-batch
/// hot path; callers intern a `BatchKeys` once instead.
#[derive(Debug, Clone)]
pub struct BatchKeys {
    /// `<prefix>.batches` counter key.
    pub(crate) batches: String,
    /// `<prefix>.requests` counter key.
    pub(crate) requests: String,
    /// `<prefix>.occupancy` histogram key.
    pub(crate) occupancy: String,
}

impl BatchKeys {
    /// Interns the three keys for `prefix`.
    pub fn new(prefix: &str) -> Self {
        BatchKeys {
            batches: format!("{prefix}.batches"),
            requests: format!("{prefix}.requests"),
            occupancy: format!("{prefix}.occupancy"),
        }
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `v` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += v;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The current value of counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into the histogram `name`, creating it if absent.
    pub fn record_hist(&mut self, name: &str, v: f64) {
        self.hists.entry(name.to_owned()).or_default().record(v);
    }

    /// The histogram recorded under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Summary statistics of the histogram recorded under `name` (exact
    /// count / mean / min / max; bucket-approximate percentiles).
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.hists.get(name).and_then(Summary::of_histogram)
    }

    /// Iterates over `(name, value)` for all counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over `(name, histogram)` for all histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Records a gauge sample `(t_us, value)` into the ring `name`,
    /// creating it at `DEFAULT_GAUGE_CAPACITY` samples if absent.
    pub(crate) fn gauge(&mut self, name: &str, t_us: u64, value: f64) {
        self.gauges
            .entry(name.to_owned())
            .or_insert_with(|| GaugeRing::new(DEFAULT_GAUGE_CAPACITY))
            .push(t_us, value);
    }

    /// Iterates over `(name, ring)` for all gauge rings, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &GaugeRing)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Clears every counter, histogram, and gauge ring (used
    /// between benchmark phases so a warm-up does not pollute
    /// measurements).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.hists.clear();
        self.gauges.clear();
    }

    /// Records one ordered batch of `len` items under the prefix `keys`
    /// was interned for: bumps `<prefix>.batches`, adds `len` to
    /// `<prefix>.requests`, and records the occupancy into the
    /// `<prefix>.occupancy` histogram. Benches and tests use this to assert
    /// batching actually engaged (via [`Metrics::mean_batch_occupancy`])
    /// instead of inferring it from wall-clock.
    pub fn record_batch_with(&mut self, keys: &BatchKeys, len: usize) {
        self.add(&keys.batches, 1);
        self.add(&keys.requests, len as u64);
        self.record_hist(&keys.occupancy, len as f64);
    }

    /// Number of batches recorded under `prefix` via
    /// [`Metrics::record_batch_with`].
    pub fn batches(&self, prefix: &str) -> u64 {
        self.counter(&format!("{prefix}.batches"))
    }

    /// Mean requests per batch recorded under `prefix`; `0.0` if no batch
    /// was ever recorded.
    pub fn mean_batch_occupancy(&self, prefix: &str) -> f64 {
        let batches = self.counter(&format!("{prefix}.batches"));
        if batches == 0 {
            return 0.0;
        }
        self.counter(&format!("{prefix}.requests")) as f64 / batches as f64
    }
}

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub(crate) p99: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let pct = |p: f64| -> f64 {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        };
        Some(Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: *sorted.last().expect("nonempty"),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        })
    }

    /// Computes a summary from a histogram; returns `None` if empty. Count,
    /// mean, min, and max are exact; percentiles are bucket-approximate.
    pub(crate) fn of_histogram(h: &Histogram) -> Option<Summary> {
        if h.is_empty() {
            return None;
        }
        Some(Summary {
            count: h.count() as usize,
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-only oracles: the key-per-call batch recorder that `BatchKeys`
    // must match, and a per-name value count.
    impl Metrics {
        fn record_batch(&mut self, prefix: &str, len: usize) {
            self.record_batch_with(&BatchKeys::new(prefix), len);
        }

        fn sample_count(&self, name: &str) -> usize {
            self.hists.get(name).map_or(0, |h| h.count() as usize)
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        let all: Vec<_> = m.counters().collect();
        assert_eq!(all, vec![("x", 5)]);
    }

    #[test]
    fn summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        let m = Metrics::new();
        assert!(m.summary("missing").is_none());
    }

    #[test]
    fn batch_occupancy_tracks_mean_and_count() {
        let mut m = Metrics::new();
        assert_eq!(m.mean_batch_occupancy("clbft"), 0.0);
        assert_eq!(m.batches("clbft"), 0);
        m.record_batch("clbft", 1);
        m.record_batch("clbft", 16);
        m.record_batch("clbft", 7);
        assert_eq!(m.batches("clbft"), 3);
        assert_eq!(m.counter("clbft.requests"), 24);
        assert!((m.mean_batch_occupancy("clbft") - 8.0).abs() < 1e-9);
        let s = m.summary("clbft.occupancy").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 16.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("a");
        m.record_hist("c", 1.0);
        m.gauge("d", 0, 1.0);
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.sample_count("c"), 0);
        assert!(m.histogram("c").is_none());
        assert!(m.gauges().next().is_none());
    }

    #[test]
    fn histograms_summarize_and_iterate() {
        let mut m = Metrics::new();
        for i in 1..=100 {
            m.record_hist("lat", i as f64);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        // Bucket-approximate percentiles: within the ~6% bucket width.
        assert!((s.p50 - 50.0).abs() <= 4.0, "p50={}", s.p50);
        assert!((s.p95 - 95.0).abs() <= 7.0, "p95={}", s.p95);
        assert_eq!(m.sample_count("lat"), 100);
        let names: Vec<&str> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["lat"]);
    }

    #[test]
    fn gauge_ring_is_bounded_and_ordered() {
        let mut r = GaugeRing::new(3);
        for i in 0..5u64 {
            r.push(i * 100, i as f64);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.total_recorded(), 5);
        let kept: Vec<_> = r.iter().collect();
        assert_eq!(kept, vec![(200, 2.0), (300, 3.0), (400, 4.0)]);
        assert_eq!(r.last(), Some((400, 4.0)));
        let s = r.summary().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn metrics_gauges_timeseries_and_summary() {
        let mut m = Metrics::new();
        assert!(m.gauges().next().is_none());
        for i in 1..=10u64 {
            m.gauge("q", i * 1000, i as f64);
        }
        let names: Vec<&str> = m.gauges().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["q"]);
        let (_, ring) = m.gauges().next().unwrap();
        assert_eq!(ring.iter().count(), 10);
        assert_eq!(ring.capacity(), DEFAULT_GAUGE_CAPACITY);
        let s = ring.summary().unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        m.reset();
        assert!(m.gauges().next().is_none());
    }

    #[test]
    fn batch_keys_match_record_batch() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let keys = BatchKeys::new("clbft");
        a.record_batch("clbft", 5);
        b.record_batch_with(&keys, 5);
        assert_eq!(a.batches("clbft"), b.batches("clbft"));
        assert_eq!(a.counter("clbft.requests"), b.counter("clbft.requests"));
        assert_eq!(
            a.summary("clbft.occupancy").unwrap(),
            b.summary("clbft.occupancy").unwrap()
        );
    }
}
