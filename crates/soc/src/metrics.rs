//! System-wide measurement: everything the paper's figures report.

use pabst_core::qos::MAX_CLASSES;
use pabst_cpu::OooCore;
use pabst_simkit::stats::{ClassSeries, Histogram};
use pabst_simkit::Cycle;

/// Collected measurements, populated by [`crate::system::System`] each
/// epoch and on demand.
#[derive(Debug)]
pub struct Metrics {
    /// Per-class bytes transferred at the memory controllers per epoch
    /// (the bandwidth-over-time series of Figs. 5, 6, 8).
    pub bw_series: ClassSeries,
    /// The governor multiplier at each epoch boundary.
    pub m_series: Vec<u32>,
    /// The ORed saturation bit at each epoch boundary.
    pub sat_series: Vec<bool>,
    /// Per-core transaction service times (from workload markers), cycles.
    pub service: Vec<Histogram>,
    /// Cycle the measurement window started (after warmup).
    pub measure_from: Cycle,
    /// Per-core retired-instruction counts at the measurement start.
    pub retired_at_start: Vec<u64>,
    /// Data-bus busy cycles (all MCs) at measurement start.
    pub bus_busy_at_start: u64,
    /// Stalled controller-cycles (mc-stall fault windows, all MCs) at
    /// measurement start — the utilization denominator's exclusion base.
    pub stall_cycles_at_start: u64,
    /// Total bytes per class at measurement start.
    pub bytes_at_start: [u64; MAX_CLASSES],
    /// Last marker retirement cycle per core (service-time deltas).
    pub last_marker: Vec<Option<Cycle>>,
}

impl Metrics {
    /// Creates empty metrics for `cores` cores and `classes` classes.
    pub fn new(cores: usize, classes: usize, epoch_cycles: Cycle) -> Self {
        Self {
            bw_series: ClassSeries::new(classes, epoch_cycles),
            m_series: Vec::new(),
            sat_series: Vec::new(),
            service: (0..cores).map(|_| Histogram::new()).collect(),
            measure_from: 0,
            retired_at_start: vec![0; cores],
            bus_busy_at_start: 0,
            stall_cycles_at_start: 0,
            bytes_at_start: [0; MAX_CLASSES],
            last_marker: vec![None; cores],
        }
    }

    /// Records core `i`'s retired workload markers as service-time
    /// deltas.
    pub(crate) fn record_markers(&mut self, i: usize, core: &mut OooCore) {
        if !core.has_markers() {
            return;
        }
        for (_tag, at) in core.take_markers() {
            if let Some(prev) = self.last_marker[i] {
                self.service[i].record(at - prev);
            }
            self.last_marker[i] = Some(at);
        }
    }

    /// Mean bandwidth share of `class` over epochs from `from_epoch`,
    /// as a fraction of all classes' traffic.
    pub fn mean_share(&self, class: usize, from_epoch: usize) -> f64 {
        let mine = self.bw_series.mean_over(class, from_epoch);
        let total: f64 =
            (0..self.bw_series.classes()).map(|c| self.bw_series.mean_over(c, from_epoch)).sum();
        if total == 0.0 {
            0.0
        } else {
            mine / total
        }
    }

    /// Mean bytes/cycle delivered to `class` from `from_epoch` on.
    pub fn mean_bytes_per_cycle(&self, class: usize, from_epoch: usize) -> f64 {
        self.bw_series.mean_over(class, from_epoch) / self.bw_series.epoch_cycles() as f64
    }

    /// Total mean bytes/cycle across classes from `from_epoch` on.
    pub fn total_bytes_per_cycle(&self, from_epoch: usize) -> f64 {
        (0..self.bw_series.classes()).map(|c| self.mean_bytes_per_cycle(c, from_epoch)).sum()
    }
}
