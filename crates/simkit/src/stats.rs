//! Measurement infrastructure: per-epoch averages, exact histograms and
//! per-epoch time series.
//!
//! Everything the paper reports — bandwidth shares (Figs. 1, 5–8), service
//! time distributions (Fig. 9), weighted slowdown (Figs. 10–11) and memory
//! efficiency (Fig. 12) — is derived from these primitives.

use crate::Cycle;

/// Accumulates a per-epoch average of a sampled quantity (e.g. memory
/// controller read-queue occupancy, sampled every cycle).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochAverage {
    sum: u64,
    samples: u64,
}

impl EpochAverage {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn sample(&mut self, value: u64) {
        self.sum += value;
        self.samples += 1;
    }

    /// Records `n` samples of the same `value` in one call — exactly
    /// equivalent to calling [`EpochAverage::sample`] `n` times. This is
    /// the batch-accrual entry point for per-cycle accumulators during a
    /// fast-forward skip, where the sampled quantity is constant by
    /// construction (nothing changed state across the skipped window).
    pub fn sample_n(&mut self, value: u64, n: u64) {
        self.sum += value * n;
        self.samples += n;
    }

    /// Returns `(sum, samples)` recorded so far this epoch and resets for
    /// the next epoch. Decisions stay in the integer domain: a threshold
    /// test `mean > t` is exactly `sum > t * samples` with no float
    /// rounding in the loop.
    pub fn take_raw(&mut self) -> (u64, u64) {
        let raw = (self.sum, self.samples);
        self.sum = 0;
        self.samples = 0;
        raw
    }

    /// Number of samples recorded this epoch so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A latency/service-time histogram backed by an exact reservoir of raw
/// values.
///
/// Stores every recorded value (the experiments record at most a few
/// thousand transactions), so percentile queries are exact — there is no
/// bucketing and therefore no bucketing error.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    values: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of recorded values.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<u64>() as f64 / self.values.len() as f64)
    }

    /// Exact percentile (0.0 ..= 100.0) using nearest-rank, or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be within 0..=100");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.values[rank.saturating_sub(1).min(n - 1)])
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.values.iter().copied().max()
    }
}

/// A per-epoch time series of one quantity per QoS class, used for the
/// bandwidth-over-time plots (Figs. 5, 6, 8).
#[derive(Debug, Clone)]
pub struct ClassSeries {
    classes: usize,
    /// `points[e][c]` = value of class `c` during epoch `e`.
    points: Vec<Vec<f64>>,
    epoch_cycles: Cycle,
}

impl ClassSeries {
    /// Creates an empty series for `classes` QoS classes with epochs of
    /// `epoch_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize, epoch_cycles: Cycle) -> Self {
        assert!(classes > 0, "need at least one class");
        Self { classes, points: Vec::new(), epoch_cycles }
    }

    /// Appends one epoch's values (one per class).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the class count.
    // simlint: allow(taint-float): figure-series storage; values are stored verbatim and never read back by the mechanism
    pub fn push_epoch(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.classes, "one value per class required");
        self.points.push(values.to_vec());
    }

    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.points.len()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Epoch length in cycles.
    pub fn epoch_cycles(&self) -> Cycle {
        self.epoch_cycles
    }

    /// Values for epoch `e` (one per class).
    // simlint: allow(taint-float): read-only figure-series access; plots, examples and test assertions only
    pub fn epoch(&self, e: usize) -> &[f64] {
        &self.points[e]
    }

    /// Mean of class `c` over epochs `from_epoch..` (an out-of-range start
    /// yields an empty window and a mean of `0.0`).
    pub fn mean_over(&self, c: usize, from_epoch: usize) -> f64 {
        let pts: Vec<f64> = self.points.iter().skip(from_epoch).map(|v| v[c]).collect();
        if pts.is_empty() {
            return 0.0;
        }
        pts.iter().sum::<f64>() / pts.len() as f64
    }

    /// Sum across classes for epoch `e`.
    pub fn epoch_total(&self, e: usize) -> f64 {
        self.points[e].iter().sum()
    }
}

/// Observed vs. target share comparison used for the allocation-error bars
/// of Figs. 1 and 7.
///
/// `targets` and `observed` are same-length slices of per-class values in
/// any consistent unit (weights and bytes both work — only ratios matter).
/// Returns the maximum relative share error across classes, in percent.
///
/// # Examples
///
/// ```
/// // Target 3:1, observed 1:1 -> high-share class got 50% instead of 75%:
/// // error = |0.5 - 0.75| / 0.75 = 33.3%.
/// let err = pabst_simkit::stats::allocation_error_pct(&[3.0, 1.0], &[1.0, 1.0]);
/// assert!((err - 100.0).abs() < 0.5); // low-share class: |0.5-0.25|/0.25 = 100%
/// ```
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or sum to zero.
pub fn allocation_error_pct(targets: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(targets.len(), observed.len(), "one observation per target");
    assert!(!targets.is_empty(), "need at least one class");
    let tsum: f64 = targets.iter().sum();
    let osum: f64 = observed.iter().sum();
    assert!(tsum > 0.0 && osum > 0.0, "shares must sum to a positive value");
    targets
        .iter()
        .zip(observed)
        .map(|(t, o)| {
            let ts = t / tsum;
            let os = o / osum;
            ((os - ts).abs() / ts) * 100.0
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_average_means_and_resets() {
        let mut a = EpochAverage::new();
        a.sample(2);
        a.sample(4);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.take_raw(), (6, 2)); // mean 3
        assert_eq!(a.take_raw(), (0, 0)); // empty epoch
        assert_eq!(a.samples(), 0);
    }

    #[test]
    fn epoch_average_sample_n_matches_repeated_sample() {
        let mut batched = EpochAverage::new();
        let mut looped = EpochAverage::new();
        batched.sample(5);
        batched.sample_n(3, 7);
        looped.sample(5);
        for _ in 0..7 {
            looped.sample(3);
        }
        assert_eq!(batched.samples(), looped.samples());
        assert_eq!(batched.take_raw(), looped.take_raw());
        assert_eq!(looped.take_raw(), (0, 0));
    }

    #[test]
    fn histogram_percentiles_exact() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn histogram_empty_returns_none() {
        let mut h = Histogram::new();
        assert!(h.percentile(50.0).is_none());
        assert!(h.mean().is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.percentile(0.0), Some(42));
        assert_eq!(h.percentile(50.0), Some(42));
        assert_eq!(h.percentile(100.0), Some(42));
    }

    #[test]
    fn class_series_means() {
        let mut s = ClassSeries::new(2, 1000);
        s.push_epoch(&[1.0, 3.0]);
        s.push_epoch(&[2.0, 4.0]);
        s.push_epoch(&[3.0, 5.0]);
        assert_eq!(s.epochs(), 3);
        assert_eq!(s.mean_over(0, 1), 2.5);
        assert_eq!(s.mean_over(1, 0), 4.0);
        assert_eq!(s.epoch_total(0), 4.0);
    }

    #[test]
    fn allocation_error_zero_when_exact() {
        let err = allocation_error_pct(&[3.0, 1.0], &[75.0, 25.0]);
        assert!(err < 1e-9);
    }

    #[test]
    fn allocation_error_symmetric_units() {
        // Units don't matter, only ratios.
        let a = allocation_error_pct(&[7.0, 3.0], &[70.0, 30.0]);
        assert!(a < 1e-9);
        let b = allocation_error_pct(&[7.0, 3.0], &[0.6, 0.4]);
        assert!(b > 0.0);
    }

    #[test]
    #[should_panic(expected = "one observation per target")]
    fn allocation_error_length_mismatch_panics() {
        let _ = allocation_error_pct(&[1.0], &[1.0, 2.0]);
    }
}
