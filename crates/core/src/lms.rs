//! The LMS prediction-driven governor law (LMS-AR).
//!
//! An alternative to the paper's multiplicative SAT ladder: a
//! least-mean-squares adaptive filter predicts the next epoch's saturation
//! probability from the recent observation history, and the rate
//! multiplier `M` moves **proportionally to the predicted overshoot** of a
//! half-saturated setpoint instead of by a direction-driven step ladder.
//! This follows Srinivasan & Gangadharan's LMS-based adaptive
//! bandwidth-regulation scheme (LMS-AR, PAPERS.md): regulation decisions
//! come from a prediction of demand, not from the most recent sample
//! alone, so the loop anticipates periodic congestion instead of reacting
//! one epoch late.
//!
//! All arithmetic is fixed-point integer (`ONE` = Q8 scale): the law sits
//! on the simulated datapath (reachable from `System::advance`), where the
//! workspace bans floating point. Only the fresh-sample step lives here;
//! [`crate::governor::Governor`] runs it under
//! [`crate::governor::GovernorKind::LmsAr`] and applies the same staleness
//! fail-safe as for SAT, so mechanism comparisons isolate the
//! *prediction* difference, not the fault handling.

use crate::governor::RateDir;

/// Number of past epochs the predictor filters over.
const TAPS: usize = 4;

/// Fixed-point unit (Q8): a saturated epoch observes as `ONE`, an
/// unsaturated one as 0, and filter weights live on the same scale.
const ONE: i64 = 256;

/// The regulation setpoint: the loop steers the predicted saturation
/// probability toward one half (`ONE / 2`), the same operating point the
/// SAT ladder's hover-at-the-threshold behaviour converges to.
const SETPOINT: i64 = ONE / 2;

/// LMS adaptation rate: weight updates are scaled by `2^-MU_SHIFT`
/// relative to the raw gradient. Small enough for stability over the
/// {0, ONE} observation alphabet, large enough to track a workload phase
/// change within a few epochs.
const MU_SHIFT: u32 = 6;

/// Proportional-gain divisor: a full-scale prediction error moves `M` by
/// at most `M / GAIN_DIV` in one epoch, bounding overshoot the way the
/// SAT ladder's `dm_max` clamp does.
const GAIN_DIV: i64 = 8;

/// Magnitude clamp for filter weights (`±4·ONE`), warding off integer
/// drift under adversarial observation sequences.
const W_CLAMP: i64 = 4 * ONE;

/// The LMS-AR predictor: an adaptive linear filter over the saturation
/// history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lms {
    /// Filter weights, Q8.
    w: [i64; TAPS],
    /// Observation history, Q8; `x[0]` is the most recent epoch.
    x: [i64; TAPS],
}

impl Lms {
    /// Uniform filter weights (the predictor starts as a moving average)
    /// and an all-headroom history.
    pub(crate) fn new() -> Self {
        Self { w: [ONE / TAPS as i64; TAPS], x: [0; TAPS] }
    }

    /// The filter's current output: predicted next-epoch saturation in
    /// Q8, clamped to `[0, ONE]`.
    fn predict(&self) -> i64 {
        let raw: i64 = self.w.iter().zip(&self.x).map(|(&w, &x)| w * x).sum::<i64>() / ONE;
        raw.clamp(0, ONE)
    }

    /// One fresh observation: LMS weight update and history shift, then a
    /// proportional step against the forecast. Returns the goal-rate
    /// direction and the step `M` moves by at multiplier `m`: at most
    /// `m / GAIN_DIV`, at least one unit when off-target, 0 on it.
    pub(crate) fn observe(&mut self, m: u32, sat: bool) -> (RateDir, u32) {
        let obs = if sat { ONE } else { 0 };

        // LMS: e = d - w·x, w += μ·e·x (all Q8, gradient scaled 2^-MU_SHIFT).
        let err = obs - self.predict();
        for (w, &x) in self.w.iter_mut().zip(&self.x) {
            *w = (*w + (err * x) / (ONE << MU_SHIFT)).clamp(-W_CLAMP, W_CLAMP);
        }

        // Shift the new observation in and forecast the next epoch.
        self.x.rotate_right(1);
        self.x[0] = obs;
        let rel = self.predict() - SETPOINT;
        if rel == 0 {
            return (RateDir::Up, 0);
        }
        let step = ((i64::from(m) * rel.abs()) / (SETPOINT * GAIN_DIV)).max(1) as u32;
        (if rel > 0 { RateDir::Down } else { RateDir::Up }, step)
    }
}

#[cfg(test)]
mod tests {
    use crate::governor::{Governor, GovernorKind, MonitorConfig};

    fn cfg() -> MonitorConfig {
        MonitorConfig::default()
    }

    fn lms(cfg: MonitorConfig) -> Governor {
        GovernorKind::LmsAr.build(cfg)
    }

    #[test]
    fn sustained_saturation_throttles_to_the_ceiling() {
        let mut g = lms(cfg());
        for _ in 0..200 {
            g.on_epoch(Some(true));
        }
        assert_eq!(g.snapshot().m, cfg().m_max, "predicted saturation must max out M");
    }

    #[test]
    fn sustained_headroom_releases_to_the_floor() {
        let mut g = lms(cfg());
        for _ in 0..400 {
            g.on_epoch(Some(false));
        }
        assert_eq!(g.snapshot().m, cfg().m_min, "predicted headroom must min out M");
    }

    #[test]
    fn step_is_proportional_not_fixed() {
        // At a large M, one saturated-forecast epoch moves M by far more
        // than the SAT monitor's dm_max — the mechanism difference the
        // zoo exists to compare.
        let big = MonitorConfig { m_init: 1 << 20, ..cfg() };
        let mut g = lms(big);
        for _ in 0..8 {
            g.on_epoch(Some(true));
        }
        let before = g.snapshot().m;
        let after = g.on_epoch(Some(true));
        assert!(
            after - before > cfg().dm_max,
            "proportional step {} must exceed the SAT ladder's clamp",
            after - before
        );
    }

    #[test]
    fn lockstep_replicas_agree() {
        let mut replicas: Vec<Governor> = (0..16).map(|_| lms(cfg())).collect();
        let pattern = [Some(true), Some(false), None, Some(false), Some(true), Some(true)];
        for (i, &sat) in pattern.iter().cycle().take(500).enumerate() {
            let ms: Vec<u32> = replicas.iter_mut().map(|r| r.on_epoch(sat)).collect();
            assert!(ms.windows(2).all(|w| w[0] == w[1]), "diverged at epoch {i}");
        }
    }

    #[test]
    fn staleness_holds_then_decays_to_the_floor() {
        let mut g = lms(cfg());
        for _ in 0..10 {
            g.on_epoch(Some(false));
        }
        let held = g.snapshot().m;
        for k in 1..=cfg().staleness_k {
            assert_eq!(g.on_epoch(None), held, "epoch {k}: hold");
            assert!(!g.snapshot().degraded);
        }
        let mut prev = g.snapshot().m;
        for _ in 0..60 {
            let m = g.on_epoch(None);
            assert!(m >= prev, "degraded decay is monotone");
            prev = m;
        }
        assert!(g.snapshot().degraded);
        assert_eq!(g.snapshot().m, cfg().degraded_m);
        assert!(g.degraded_epochs() > 0);
    }

    #[test]
    fn fresh_sample_ends_staleness() {
        let mut g = lms(cfg());
        for _ in 0..cfg().staleness_k + 5 {
            g.on_epoch(None);
        }
        assert!(g.snapshot().degraded);
        g.on_epoch(Some(false));
        assert!(!g.snapshot().degraded);
        assert_eq!(g.snapshot().stale_epochs, 0);
    }

    #[test]
    fn snapshot_reflects_state_and_label_is_stable() {
        let mut g = lms(cfg());
        g.on_epoch(Some(true));
        let s = g.snapshot();
        assert_eq!(s.m, g.on_epoch(None), "a lost sample inside the window holds M");
        assert_eq!(s.epochs, 1);
        assert_eq!(GovernorKind::LmsAr.label(), "lms-ar");
    }

    #[test]
    #[should_panic(expected = "invalid MonitorConfig")]
    fn invalid_config_panics() {
        let bad = MonitorConfig { m_min: 10, m_max: 5, ..MonitorConfig::default() };
        let _ = lms(bad);
    }

    #[test]
    fn kind_builds_the_right_governor() {
        let mut lms = GovernorKind::LmsAr.build(cfg());
        let mut sat = GovernorKind::Sat.build(cfg());
        assert_eq!(lms.snapshot().m, cfg().m_init);
        assert_eq!(lms.snapshot().delta_m, 0, "LMS-AR starts with no step");
        assert_ne!(lms.on_epoch(Some(true)), sat.on_epoch(Some(true)), "the laws differ");
    }
}
