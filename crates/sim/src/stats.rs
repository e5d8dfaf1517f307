//! Measurement primitives used by the experiment harness.
//!
//! The paper plots, for every parameter point, the *average* number of
//! packets received per group member with *min/max error bars* across
//! members (§5.1). [`Summary`] captures exactly that triple (plus variance,
//! which the harness's JSON report carries beside it), and
//! [`Histogram`] backs the goodput distribution of Figure 8.
//!
//! Everything here is *streaming*: accumulators are constant-size
//! regardless of how many observations they absorb, and every type has
//! an associative `merge`, so metropolis-scale runs can fold millions
//! of per-member observations without the reduced result growing with
//! the node count ([`SummarySet`] is the labelled bundle the harness
//! uses for exactly that).

use std::collections::BTreeMap;
use std::fmt;

/// Running summary of a stream of observations: count, mean, min, max and
/// (Welford) variance — no sample storage.
///
/// # Example
///
/// ```
/// use ag_sim::stats::Summary;
/// let s: Summary = [2.0, 4.0, 6.0].into_iter().collect();
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 6.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Max − min; the length of the paper's error bar.
    pub fn spread(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} min={:.2} max={:.2} sd={:.2}",
            self.count,
            self.mean(),
            self.min(),
            self.max(),
            self.stddev()
        )
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with saturating edge bins.
///
/// # Example
///
/// ```
/// use ag_sim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 100.0, 10);
/// h.record(5.0);
/// h.record(95.0);
/// h.record(95.0);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(9), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation; values outside the range clamp to edge bins.
    pub fn record(&mut self, x: f64) {
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.bins[idx]
    }

    /// Lower edge of bin `idx`.
    pub fn bin_lo(&self, idx: usize) -> f64 {
        self.lo + (self.hi - self.lo) * idx as f64 / self.bins.len() as f64
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterator over `(bin_lower_edge, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.bins.len()).map(|i| (self.bin_lo(i), self.bins[i]))
    }

    /// Merges another histogram into this one bin-by-bin, so per-run
    /// histograms can be combined associatively (like [`Summary::merge`]
    /// and [`CounterSet::merge`]) regardless of which worker produced
    /// them.
    ///
    /// # Panics
    ///
    /// Panics unless both histograms share the same range and bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "merging incompatible histograms"
        );
        for (b, ob) in self.bins.iter_mut().zip(&other.bins) {
            *b += ob;
        }
        self.total += other.total;
    }
}

/// A labelled collection of streaming [`Summary`] accumulators.
///
/// The metropolis-scale harness paths fold per-member observations
/// (packets received, gossip rounds, goodput…) straight into named
/// summaries instead of materialising one record per member, so the
/// reduced result of a run is a handful of fixed-size accumulators no
/// matter how many nodes the scenario has. Like [`CounterSet`], keys
/// are static strings so call sites stay greppable; like [`Summary`],
/// merging is associative, so per-worker sets pooled in a fixed order
/// reproduce the serial fold bit-for-bit on count/min/max (and to
/// floating-point merge tolerance on mean/variance).
///
/// # Example
///
/// ```
/// use ag_sim::stats::SummarySet;
/// let mut s = SummarySet::new();
/// s.record("received", 3.0);
/// s.record("received", 5.0);
/// assert_eq!(s.get("received").mean(), 4.0);
/// assert_eq!(s.get("missing").count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SummarySet {
    summaries: BTreeMap<&'static str, Summary>,
}

impl SummarySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation under `name`, creating the summary if
    /// absent.
    pub fn record(&mut self, name: &'static str, x: f64) {
        self.summaries.entry(name).or_default().record(x);
    }

    /// The summary for `name` (an empty summary if never touched).
    pub fn get(&self, name: &str) -> Summary {
        self.summaries.get(name).copied().unwrap_or_default()
    }

    /// Iterates over `(name, summary)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Summary)> + '_ {
        self.summaries.iter().map(|(k, v)| (*k, v))
    }

    /// Merges another set into this one, summary by summary.
    pub fn merge(&mut self, other: &SummarySet) {
        for (k, v) in other.iter() {
            self.summaries.entry(k).or_default().merge(v);
        }
    }
}

impl fmt::Display for SummarySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.summaries.is_empty() {
            return write!(f, "(no summaries)");
        }
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// A labelled collection of counters, used for per-run protocol statistics
/// (packets sent, collisions, RREQs, gossip replies…).
///
/// Keys are static strings so call sites stay greppable.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counters: BTreeMap<&'static str, u64>,
}

impl CounterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Adds one to counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another set into this one by summing matching counters.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.spread(), 3.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let mut a: Summary = [1.0, 5.0, 2.0].into_iter().collect();
        let b: Summary = [9.0, 3.0].into_iter().collect();
        a.merge(&b);
        let all: Summary = [1.0, 5.0, 2.0, 9.0, 3.0].into_iter().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        let b: Summary = [4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 4.0);
        let mut c: Summary = [4.0].into_iter().collect();
        c.merge(&Summary::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn histogram_clamps_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-100.0);
        h.record(100.0);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(4), 1);
    }

    #[test]
    fn histogram_bin_edges() {
        let h = Histogram::new(0.0, 100.0, 4);
        assert_eq!(h.bin_lo(0), 0.0);
        assert_eq!(h.bin_lo(2), 50.0);
        assert_eq!(h.iter().count(), 4);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        let mut b = Histogram::new(0.0, 100.0, 10);
        let mut whole = Histogram::new(0.0, 100.0, 10);
        for &x in &[5.0, 15.0, 15.0, 95.0] {
            a.record(x);
            whole.record(x);
        }
        for &x in &[15.0, 55.0, -3.0] {
            b.record(x);
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for i in 0..10 {
            assert_eq!(a.bin_count(i), whole.bin_count(i), "bin {i}");
        }
    }

    #[test]
    fn histogram_merge_empty_into_empty() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        let b = Histogram::new(0.0, 100.0, 10);
        a.merge(&b);
        assert_eq!(a.total(), 0);
        assert!(a.iter().all(|(_, c)| c == 0));
    }

    #[test]
    fn histogram_merge_empty_and_nonempty_both_ways() {
        // empty ⊕ non-empty: counts adopted wholesale.
        let mut empty = Histogram::new(0.0, 100.0, 10);
        let mut full = Histogram::new(0.0, 100.0, 10);
        full.record(15.0);
        full.record(95.0);
        empty.merge(&full);
        assert_eq!(empty.total(), 2);
        assert_eq!(empty.bin_count(1), 1);
        assert_eq!(empty.bin_count(9), 1);
        // non-empty ⊕ empty: a no-op.
        let before: Vec<_> = full.iter().collect();
        full.merge(&Histogram::new(0.0, 100.0, 10));
        assert_eq!(full.total(), 2);
        assert_eq!(full.iter().collect::<Vec<_>>(), before);
    }

    #[test]
    #[should_panic]
    fn histogram_merge_rejects_mismatched_range() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        let b = Histogram::new(0.0, 50.0, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic]
    fn histogram_merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        let b = Histogram::new(0.0, 100.0, 5);
        a.merge(&b);
    }

    #[test]
    fn summary_set_merge_matches_sequential() {
        let mut a = SummarySet::new();
        let mut b = SummarySet::new();
        let mut whole = SummarySet::new();
        for &x in &[1.0, 5.0, 2.0] {
            a.record("rx", x);
            whole.record("rx", x);
        }
        a.record("rounds", 7.0);
        whole.record("rounds", 7.0);
        for &x in &[9.0, 3.0] {
            b.record("rx", x);
            whole.record("rx", x);
        }
        a.merge(&b);
        assert_eq!(a.get("rx").count(), whole.get("rx").count());
        assert!((a.get("rx").mean() - whole.get("rx").mean()).abs() < 1e-12);
        assert_eq!(a.get("rx").min(), whole.get("rx").min());
        assert_eq!(a.get("rx").max(), whole.get("rx").max());
        assert_eq!(a.get("rounds").count(), 1);
        assert_eq!(a.get("missing").count(), 0);
    }

    #[test]
    fn summary_set_merge_brings_new_keys() {
        let mut a = SummarySet::new();
        let mut b = SummarySet::new();
        b.record("only_b", 4.0);
        a.merge(&b);
        assert_eq!(a.get("only_b").mean(), 4.0);
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["only_b"]);
    }

    #[test]
    fn summary_set_display() {
        let mut s = SummarySet::new();
        s.record("rx", 2.0);
        assert!(s.to_string().starts_with("rx: n=1"));
        assert_eq!(SummarySet::new().to_string(), "(no summaries)");
    }

    #[test]
    fn counter_set_merge_and_display() {
        let mut a = CounterSet::new();
        a.incr("tx");
        let mut b = CounterSet::new();
        b.add("tx", 2);
        b.incr("rx");
        a.merge(&b);
        assert_eq!(a.get("tx"), 3);
        assert_eq!(a.get("rx"), 1);
        assert_eq!(a.get("missing"), 0);
        assert!(a.to_string().contains("tx: 3"));
        assert_eq!(CounterSet::new().to_string(), "(no counters)");
    }

    proptest! {
        /// Welford mean/min/max agree with naive computation.
        #[test]
        fn prop_summary_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: Summary = xs.iter().copied().collect();
            let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - naive_mean).abs() < 1e-6 * naive_mean.abs().max(1.0));
            prop_assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }

        /// Histogram total equals number of records, regardless of values.
        #[test]
        fn prop_histogram_conserves_mass(xs in prop::collection::vec(-1e3f64..1e3, 0..200)) {
            let mut h = Histogram::new(0.0, 100.0, 7);
            for &x in &xs {
                h.record(x);
            }
            prop_assert_eq!(h.total(), xs.len() as u64);
            prop_assert_eq!(h.iter().map(|(_, c)| c).sum::<u64>(), xs.len() as u64);
        }

        /// Merging summaries in any split matches the sequential result.
        #[test]
        fn prop_summary_merge_associative(xs in prop::collection::vec(-1e3f64..1e3, 2..100), split in 1usize..99) {
            let split = split.min(xs.len() - 1);
            let mut left: Summary = xs[..split].iter().copied().collect();
            let right: Summary = xs[split..].iter().copied().collect();
            left.merge(&right);
            let whole: Summary = xs.iter().copied().collect();
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
        }
    }
}
