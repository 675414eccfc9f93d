//! Fixed-bucket log-scale histograms with a deterministic layout.
//!
//! The bucket grid is fixed at construction-independent positions (HDR
//! style: power-of-two octaves, each split into [`SUB_BUCKETS`] linear
//! sub-buckets), so recording the same multiset of samples in *any* order
//! produces bit-identical counts and therefore identical percentile reads
//! — unlike a raw `Vec<f64>` dump, whose percentile estimates are exact
//! but whose memory grows with the sample count and whose debug output
//! leaks insertion order.

/// Sub-buckets per power-of-two octave. 8 bounds the relative quantile
/// error at `1/(2·8) ≈ 6%`.
pub(crate) const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3;

/// Smallest supported binary exponent: values below `2^MIN_EXP` land in
/// the underflow bucket. `2^-20 ≈ 1e-6`, far below one microsecond when
/// samples are milliseconds.
const MIN_EXP: i32 = -20;
/// Largest supported binary exponent: values at or above `2^(MAX_EXP+1)`
/// land in the overflow bucket. `2^43 ≈ 8.8e12`.
const MAX_EXP: i32 = 43;

const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Underflow bucket + octave grid + overflow bucket.
const NUM_BUCKETS: usize = 2 + OCTAVES * SUB_BUCKETS;

/// A fixed-bucket log-scale histogram over non-negative `f64` samples.
///
/// Tracks exact `count`/`sum`/`min`/`max` alongside the bucket counts, so
/// [`Histogram::max`] and [`Histogram::mean`] are exact while quantiles
/// are bucket-resolution approximations (≈6% relative error), clamped to
/// the exact `[min, max]` range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0; // underflow (also catches NaN deterministically)
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUB_BUCKETS + sub
}

/// Lower bound of bucket `i` (0.0 for the underflow bucket).
fn bucket_lo(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    if i >= NUM_BUCKETS - 1 {
        return exp2i(MAX_EXP + 1);
    }
    let g = i - 1;
    let exp = MIN_EXP + (g / SUB_BUCKETS) as i32;
    let sub = (g % SUB_BUCKETS) as f64;
    exp2i(exp) * (1.0 + sub / SUB_BUCKETS as f64)
}

/// Exclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> f64 {
    if i >= NUM_BUCKETS - 1 {
        return f64::INFINITY;
    }
    bucket_lo(i + 1)
}

/// `2^e` for integer `e`, without floating-point `powf`.
fn exp2i(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Negative and non-finite values land in the
    /// underflow bucket (and are clamped to 0.0 for the exact min/max/sum
    /// tracking) so a stray NaN cannot poison percentile reads.
    pub fn record(&mut self, v: f64) {
        let clean = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += clean;
        if clean < self.min {
            self.min = clean;
        }
        if clean > self.max {
            self.max = clean;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded samples.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`), bucket-resolution approximate,
    /// clamped into the exact `[min, max]` range. 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i);
                let rep = if hi.is_finite() { (lo + hi) / 2.0 } else { lo };
                return rep.clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Test-only: no code outside these tests folds histograms together or
    // lists their buckets. The tests use both as oracles for the bucket
    // layout (two histograms fed disjoint halves must fold into the one
    // fed everything, bucket by bucket).
    impl Histogram {
        /// Merges another histogram's samples into this one.
        fn merge(&mut self, other: &Histogram) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            if other.count > 0 {
                if other.min < self.min {
                    self.min = other.min;
                }
                if other.max > self.max {
                    self.max = other.max;
                }
            }
        }

        /// Iterates over the non-empty buckets as `(lo, hi, count)`.
        fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn exact_stats_and_approximate_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // ≈6% relative bucket error.
        assert!((h.p50() - 500.0).abs() / 500.0 < 0.07, "p50={}", h.p50());
        assert!((h.p95() - 950.0).abs() / 950.0 < 0.07, "p95={}", h.p95());
        assert!((h.p99() - 990.0).abs() / 990.0 < 0.07, "p99={}", h.p99());
    }

    #[test]
    fn hostile_values_land_in_underflow() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn extreme_magnitudes_clamp_to_edge_buckets() {
        let mut h = Histogram::new();
        h.record(1e-12); // below 2^-20
        h.record(1e300); // above 2^44
        assert_eq!(h.count(), 2);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, 0.0, "underflow bucket starts at 0");
        assert!(buckets[1].1.is_infinite(), "overflow bucket is unbounded");
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 0.37).collect();
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(
            a.nonzero_buckets().collect::<Vec<_>>(),
            whole.nonzero_buckets().collect::<Vec<_>>()
        );
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.sum() - whole.sum()).abs() < 1e-9);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover() {
        let mut prev = -1.0;
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lo(i);
            assert!(lo > prev, "bucket {i} lo {lo} after {prev}");
            assert!(bucket_hi(i) > lo);
            prev = lo;
        }
    }

    /// Fills one histogram in the given order and one after a
    /// deterministic seed-driven shuffle; every *read* (bucket counts,
    /// count, min/max, all percentiles) must be bit-identical. Only `sum`
    /// (and thus `mean`) is excluded: f64 addition is not associative, so
    /// it is exact but order-sensitive in the last ulp.
    fn order_invariance_holds(mut xs: Vec<f64>, seed: u64) -> bool {
        let mut fwd = Histogram::new();
        for &x in &xs {
            fwd.record(x);
        }
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in (1..xs.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            xs.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut shuf = Histogram::new();
        for &x in &xs {
            shuf.record(x);
        }
        let q = |h: &Histogram| -> Vec<u64> {
            (0..=20)
                .map(|i| h.quantile(i as f64 / 20.0).to_bits())
                .collect()
        };
        fwd.nonzero_buckets().collect::<Vec<_>>() == shuf.nonzero_buckets().collect::<Vec<_>>()
            && fwd.count() == shuf.count()
            && fwd.min().to_bits() == shuf.min().to_bits()
            && fwd.max().to_bits() == shuf.max().to_bits()
            && q(&fwd) == q(&shuf)
    }

    #[test]
    fn quantile_on_empty_is_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), 0.0, "empty quantile({q})");
        }
    }

    #[test]
    fn merge_with_disjoint_bucket_ranges() {
        // `a` lives entirely in the sub-millisecond octaves, `b` entirely
        // in the multi-second ones: no bucket overlaps.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=10 {
            a.record(i as f64 * 1.0e-4);
            b.record(i as f64 * 1.0e4);
        }
        let (a_buckets, b_buckets) = (a.nonzero_buckets().count(), b.nonzero_buckets().count());
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(
            a.nonzero_buckets().count(),
            a_buckets + b_buckets,
            "disjoint ranges merge without bucket collisions"
        );
        assert_eq!(a.min(), 1.0e-4);
        assert_eq!(a.max(), 1.0e5);
        // The median straddles the gap; both tails stay readable.
        assert!(a.quantile(0.25) < 1.0, "low tail stays low");
        assert!(a.quantile(0.9) > 1.0e3, "high tail stays high");
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut a = Histogram::new();
        a.record(2.5);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        // And empty ← non-empty adopts the source's exact min/max.
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e.min(), 2.5);
        assert_eq!(e.max(), 2.5);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn single_sample_p99_is_the_sample() {
        let mut h = Histogram::new();
        h.record(3.7);
        // Quantiles are bucket midpoints clamped to [min, max]; with one
        // sample min == max, so every quantile is exact.
        assert_eq!(h.p99(), 3.7);
        assert_eq!(h.p50(), 3.7);
        assert_eq!(h.quantile(0.0), 3.7);
        assert_eq!(h.quantile(1.0), 3.7);
    }

    proptest! {
        /// Merge is order-independent: a⊎b and b⊎a produce identical
        /// bucket counts and identical percentile reads.
        #[test]
        fn merge_is_order_independent(
            raw_a in proptest::collection::vec(0u64..1_000_000_000_000, 0..100),
            raw_b in proptest::collection::vec(0u64..1_000_000_000_000, 0..100),
        ) {
            let mut a1 = Histogram::new();
            for &r in &raw_a {
                a1.record(r as f64 / 1.0e6);
            }
            let mut b1 = Histogram::new();
            for &r in &raw_b {
                b1.record(r as f64 / 1.0e6);
            }
            let (mut ab, mut ba) = (a1.clone(), b1.clone());
            ab.merge(&b1);
            ba.merge(&a1);
            prop_assert_eq!(
                ab.nonzero_buckets().collect::<Vec<_>>(),
                ba.nonzero_buckets().collect::<Vec<_>>()
            );
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.min().to_bits(), ba.min().to_bits());
            prop_assert_eq!(ab.max().to_bits(), ba.max().to_bits());
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                prop_assert_eq!(ab.quantile(q).to_bits(), ba.quantile(q).to_bits());
            }
        }

        /// The satellite's bucket-determinism property: the same samples
        /// in any insertion order produce identical percentile reads.
        #[test]
        fn insertion_order_never_changes_reads(
            raw in proptest::collection::vec(0u64..1_000_000_000_000, 1..200),
            seed in 0u64..1000,
        ) {
            // Mix magnitudes: microseconds to kiloseconds when read as ms.
            let xs: Vec<f64> = raw.iter().map(|&r| r as f64 / 1.0e6).collect();
            prop_assert!(order_invariance_holds(xs, seed));
        }

        /// Every finite positive sample lands in a bucket whose bounds
        /// contain it.
        #[test]
        fn samples_land_inside_their_bucket(raw in 1u64..u64::MAX) {
            let x = raw as f64 / 1.0e6;
            let i = bucket_index(x);
            prop_assert!(bucket_lo(i) <= x, "{} < lo {}", x, bucket_lo(i));
            prop_assert!(x < bucket_hi(i), "{} >= hi {}", x, bucket_hi(i));
        }
    }
}
