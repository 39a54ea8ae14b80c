//! DRAM timing and queue-geometry configuration.
//!
//! All timings are in CPU cycles at the simulated 2 GHz clock (0.5 ns per
//! cycle), so e.g. `t_rcd = 28` models 14 ns. Defaults approximate one
//! DDR4-2400 channel per controller: a 64-byte burst occupies the data bus
//! for ~7 CPU cycles (≈18.3 GB/s per channel, ≈73 GB/s across the four
//! controllers of the 32-core system).

/// Timing and geometry of one memory controller + DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel: a power of two, at most 64 (the controller
    /// keeps a 64-bit mask of the banks with queued work).
    pub banks: usize,
    /// Cache lines per DRAM row (row size / 64 B).
    pub lines_per_row: u64,
    /// ACT-to-column command delay (row activation), CPU cycles.
    pub t_rcd: u64,
    /// Column access (CAS) latency, CPU cycles.
    pub t_cl: u64,
    /// Precharge latency, CPU cycles.
    pub t_rp: u64,
    /// Data-bus occupancy of one 64 B burst, CPU cycles.
    pub t_burst: u64,
    /// Bus turnaround penalty when switching between reads and writes.
    pub t_turnaround: u64,
    /// Ingress FIFO capacity (network → controller port).
    pub ingress_cap: usize,
    /// Front-end read queue capacity (the paper stresses commodity
    /// controllers hold an order of magnitude fewer requests than a large
    /// system has outstanding).
    pub read_q_cap: usize,
    /// Front-end write queue capacity.
    pub write_q_cap: usize,
    /// Write-drain high watermark: start draining writes when the write
    /// queue reaches this depth.
    pub wr_high: usize,
    /// Write-drain low watermark: stop draining when it falls to this.
    pub wr_low: usize,
    /// Frequency divisor: multiplies every latency (models down-clocked
    /// DDR, used by the Fig. 11 static-allocation baseline).
    pub freq_div: u64,
    /// Data-buffer entries: completed column accesses whose bursts await
    /// the bus. Banks run ahead of the bus only this far; the bus
    /// scheduler then picks among the buffered bursts by priority, so the
    /// buffer bounds how much work is in flight without creating a
    /// priority-blind reservation chain.
    pub data_buf_cap: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            banks: 16,
            lines_per_row: 32, // 2 KiB rows
            t_rcd: 28,
            t_cl: 28,
            t_rp: 28,
            t_burst: 7,
            t_turnaround: 12,
            // A small ingress port: the priority-blind window in front of
            // the arbiter stays shallow.
            ingress_cap: 4,
            // Commodity-sized 32-entry front-end read queue: "an order of
            // magnitude smaller" than a large system's outstanding
            // requests (SI). A single 16-core streaming class (256
            // outstanding) already exceeds the four controllers' combined
            // queueing, which is exactly what breaks target-only
            // regulation under flood (Fig. 1b) while the per-source-fair
            // network keeps a latency-bound class's few requests flowing
            // (Fig. 1d).
            read_q_cap: 32,
            write_q_cap: 32,
            wr_high: 24,
            wr_low: 8,
            freq_div: 1,
            // Enough buffered bursts to keep the bus gapless while bank
            // pipelines cycle (~1 row cycle / burst time).
            data_buf_cap: 12,
        }
    }
}

impl DramConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 || !self.banks.is_power_of_two() || self.banks > 64 {
            return Err("banks must be a power of two from 1 to 64".into());
        }
        if self.lines_per_row == 0 || !self.lines_per_row.is_power_of_two() {
            return Err("lines_per_row must be a non-zero power of two".into());
        }
        if self.t_burst == 0 {
            return Err("t_burst must be non-zero".into());
        }
        if self.freq_div == 0 {
            return Err("freq_div must be non-zero".into());
        }
        if self.wr_low >= self.wr_high || self.wr_high > self.write_q_cap {
            return Err("require wr_low < wr_high <= write_q_cap".into());
        }
        if self.data_buf_cap == 0 {
            return Err("data_buf_cap must be non-zero".into());
        }
        if self.ingress_cap == 0 || self.read_q_cap == 0 || self.write_q_cap == 0 {
            return Err("queue capacities must be non-zero".into());
        }
        Ok(())
    }

    /// Effective (frequency-scaled) timing values.
    pub(crate) fn eff(&self, t: u64) -> u64 {
        t * self.freq_div
    }

    /// Theoretical peak bandwidth in bytes per CPU cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        pabst_simkit::LINE_BYTES as f64 / self.eff(self.t_burst) as f64
    }

    /// Returns a copy with all latencies scaled by `div` (down-clocked
    /// DRAM, Fig. 11 baseline).
    pub fn down_clocked(mut self, div: u64) -> Self {
        assert!(div > 0, "divisor must be non-zero");
        self.freq_div = div;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(DramConfig::default().validate(), Ok(()));
    }

    #[test]
    fn peak_bandwidth_matches_burst() {
        let c = DramConfig::default();
        assert!((c.peak_bytes_per_cycle() - 64.0 / 7.0).abs() < 1e-9);
        let slow = c.down_clocked(4);
        assert!((slow.peak_bytes_per_cycle() - 64.0 / 28.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let c = DramConfig { banks: 3, ..DramConfig::default() };
        assert!(c.validate().is_err());
        let c = DramConfig { banks: 128, ..DramConfig::default() };
        assert!(c.validate().is_err());
        let mut c = DramConfig::default();
        c.wr_high = c.wr_low;
        assert!(c.validate().is_err());
        let c = DramConfig { t_burst: 0, ..DramConfig::default() };
        assert!(c.validate().is_err());
        let c = DramConfig { freq_div: 0, ..DramConfig::default() };
        assert!(c.validate().is_err());
    }
}
