//! The memory-controller priority arbiter (§III-C2): earliest-virtual-
//! deadline-first selection driven by per-class virtual clocks.
//!
//! Each QoS class has a virtual clock that advances by the class *stride*
//! for every accepted request, so a high-weight (small-stride) class's
//! clock advances slowly and its requests carry earlier deadlines. A
//! request entering the controller is stamped with the class's current
//! virtual time; the arbiter then services the *ready* read with the
//! earliest stamp. To prevent an idle class banking unbounded virtual
//! credit, a stamp is capped at no more than `slack` (the baseline's
//! 128) virtual ticks behind the most recent deadline the arbiter
//! picked; when the cap binds, the class clock is rewritten to the
//! capped value.
//!
//! Differences from Nesbit et al.'s FQM that the paper calls out are
//! honoured here: true per-request stride charging (not scaled expected
//! access time), a single flat charge per access, and application of the
//! EDF rule in both the front-end and back-end queues (the embedding in
//! `pabst-dram` does the latter).

use crate::qos::{QosId, MAX_CLASSES};

/// Stride scale used by the arbiter's virtual clocks: the highest-weight
/// class advances its clock by this many virtual ticks per request, so the
/// paper's slack of 128 corresponds to roughly eight of its requests.
pub const ARBITER_STRIDE_SCALE: u64 = 16;

/// A virtual deadline stamped onto a request when it enters the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualDeadline(pub u64);

/// Per-class virtual clocks with slack-bounded credit.
///
/// # Examples
///
/// ```
/// use pabst_core::arbiter::VirtualClocks;
/// use pabst_core::qos::{QosId, ShareTable};
///
/// let shares = ShareTable::from_weights(&[3, 1])?;
/// let mut vc = VirtualClocks::new(&shares, 128);
/// let hi = QosId::new(0);
/// let lo = QosId::new(1);
/// // The high-share class's deadlines advance 3x slower, so after one
/// // accepted request each, the high-share class's next stamp is earlier.
/// let (_, _) = (vc.stamp(hi), vc.stamp(lo));
/// assert!(vc.stamp(hi) < vc.stamp(lo));
/// # Ok::<(), pabst_core::qos::ShareError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VirtualClocks {
    clocks: [u64; MAX_CLASSES],
    strides: [u64; MAX_CLASSES],
    classes: usize,
    slack: u64,
    last_picked: u64,
}

impl VirtualClocks {
    /// Creates clocks for the classes of `shares` with the given slack cap
    /// (virtual ticks). Strides are normalized with
    /// [`ARBITER_STRIDE_SCALE`] so the slack bound is meaningful.
    pub fn new(shares: &crate::qos::ShareTable, slack: u64) -> Self {
        let mut strides = [1u64; MAX_CLASSES];
        for (id, _) in shares.iter() {
            strides[id.index()] = shares.scaled_stride(id, ARBITER_STRIDE_SCALE).get();
        }
        Self { clocks: [0; MAX_CLASSES], strides, classes: shares.classes(), slack, last_picked: 0 }
    }

    /// Stamps a newly accepted request from `id`: returns its virtual
    /// deadline and advances the class clock by the class stride.
    ///
    /// Applies the slack cap: the stamp may start at most `slack` virtual
    /// ticks behind the last deadline the arbiter picked; a capped value is
    /// also written back into the class clock.
    pub fn stamp(&mut self, id: QosId) -> VirtualDeadline {
        let i = id.index();
        debug_assert!(i < self.classes, "stamp for unknown class");
        let floor = self.last_picked.saturating_sub(self.slack);
        if self.clocks[i] < floor {
            self.clocks[i] = floor;
        }
        let deadline = self.clocks[i];
        self.clocks[i] = self.clocks[i].saturating_add(self.strides[i]);
        VirtualDeadline(deadline)
    }

    /// Records that the arbiter serviced a request with deadline `d`,
    /// updating the slack reference point.
    pub fn on_picked(&mut self, d: VirtualDeadline) {
        if d.0 > self.last_picked {
            self.last_picked = d.0;
        }
    }

    /// Stamps a request *without* advancing the class clock — the FQM-style
    /// variant (Nesbit et al.) the paper contrasts with PABST's flat
    /// per-request charge: the clock is advanced later by
    /// [`VirtualClocks::charge`] with the access's actual cost.
    pub fn stamp_deferred(&mut self, id: QosId) -> VirtualDeadline {
        let i = id.index();
        debug_assert!(i < self.classes, "stamp for unknown class");
        let floor = self.last_picked.saturating_sub(self.slack);
        if self.clocks[i] < floor {
            self.clocks[i] = floor;
        }
        VirtualDeadline(self.clocks[i])
    }

    /// Advances `id`'s clock by `cost_units` strides — FQM's
    /// charge-by-service-time (e.g. 1 unit for a row hit, more for a
    /// conflict). Pairs with [`VirtualClocks::stamp_deferred`].
    pub fn charge(&mut self, id: QosId, cost_units: u64) {
        let i = id.index();
        self.clocks[i] = self.clocks[i].saturating_add(self.strides[i].saturating_mul(cost_units));
    }

    /// Current virtual time of `id`.
    pub fn clock(&self, id: QosId) -> u64 {
        self.clocks[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ShareTable;

    fn clocks(weights: &[u32], slack: u64) -> VirtualClocks {
        VirtualClocks::new(&ShareTable::from_weights(weights).unwrap(), slack)
    }

    #[test]
    fn deadlines_monotonic_per_class() {
        let mut vc = clocks(&[2, 1], 1_000_000);
        let id = QosId::new(0);
        let mut last = vc.stamp(id);
        for _ in 0..100 {
            let d = vc.stamp(id);
            assert!(d > last);
            last = d;
        }
    }

    #[test]
    fn high_weight_class_gets_earlier_deadlines() {
        let mut vc = clocks(&[4, 1], u64::MAX);
        let hi = QosId::new(0);
        let lo = QosId::new(1);
        // After equal accept counts, the high-weight clock trails 4x.
        for _ in 0..8 {
            let _ = vc.stamp(hi);
            let _ = vc.stamp(lo);
        }
        assert_eq!(vc.clock(lo), 4 * vc.clock(hi));
    }

    #[test]
    fn slack_cap_binds_idle_class() {
        let mut vc = clocks(&[1, 1], 100);
        let busy = QosId::new(0);
        let idle = QosId::new(1);
        // Busy class runs far ahead and the arbiter services it.
        let mut last = 0;
        for _ in 0..50 {
            let d = vc.stamp(busy);
            vc.on_picked(d);
            last = d.0;
        }
        assert!(last > 100);
        // Idle class wakes: its stamp is capped at last - slack, not 0.
        let d = vc.stamp(idle);
        assert_eq!(d.0, last - 100);
        // And its clock was rewritten past the cap.
        assert!(vc.clock(idle) > 0);
    }

    #[test]
    fn slack_cap_does_not_penalize_current_class() {
        let mut vc = clocks(&[1], 10);
        let id = QosId::new(0);
        let d0 = vc.stamp(id);
        assert_eq!(d0.0, 0);
    }

    #[test]
    fn backlogged_service_ratio_tracks_weights() {
        // Model both classes always having a request queued: the EDF rule
        // must service them in ~3:1.
        let mut vc = clocks(&[3, 1], 1_000_000);
        let a = QosId::new(0);
        let b = QosId::new(1);
        // Queue of one pending request per class, re-stamped after service.
        let mut pending = [(a, vc.stamp(a)), (b, vc.stamp(b))];
        let mut served = [0u64; 2];
        for _ in 0..4000 {
            // Earliest deadline first, the lower index on a tie.
            let idx = usize::from(pending[1].1 < pending[0].1);
            let (id, d) = pending[idx];
            vc.on_picked(d);
            served[id.index()] += 1;
            pending[idx] = (id, vc.stamp(id));
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.05, "ratio = {ratio}");
    }
}

#[cfg(test)]
mod fqm_tests {
    use super::*;
    use crate::qos::ShareTable;

    #[test]
    fn deferred_stamp_does_not_advance() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let mut vc = VirtualClocks::new(&shares, 128);
        let id = QosId::new(0);
        let d0 = vc.stamp_deferred(id);
        let d1 = vc.stamp_deferred(id);
        assert_eq!(d0, d1, "deferred stamps share the clock until charged");
        vc.charge(id, 1);
        let d2 = vc.stamp_deferred(id);
        assert!(d2 > d1);
    }

    #[test]
    fn charge_scales_with_cost() {
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut vc = VirtualClocks::new(&shares, u64::MAX);
        vc.charge(QosId::new(0), 1);
        vc.charge(QosId::new(1), 3);
        assert_eq!(3 * vc.clock(QosId::new(0)), vc.clock(QosId::new(1)));
    }

    #[test]
    fn deferred_stamp_still_respects_slack_floor() {
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut vc = VirtualClocks::new(&shares, 50);
        let busy = QosId::new(0);
        let mut last = 0;
        for _ in 0..20 {
            let d = vc.stamp(busy);
            vc.on_picked(d);
            last = d.0;
        }
        let idle = QosId::new(1);
        let d = vc.stamp_deferred(idle);
        assert_eq!(d.0, last - 50);
    }
}
