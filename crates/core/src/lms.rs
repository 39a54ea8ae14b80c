//! LMS prediction-driven source governor (LMS-AR).
//!
//! An alternative to the paper's multiplicative SAT feedback
//! ([`crate::governor::SystemMonitor`]): a least-mean-squares adaptive
//! filter predicts the next epoch's saturation probability from the
//! recent observation history, and the rate multiplier `M` moves
//! **proportionally to the predicted overshoot** of a half-saturated
//! setpoint instead of by a direction-driven step ladder. This follows
//! Srinivasan & Gangadharan's LMS-based adaptive bandwidth-regulation
//! scheme (LMS-AR, PAPERS.md): regulation decisions come from a
//! prediction of demand, not from the most recent sample alone, so the
//! loop anticipates periodic congestion instead of reacting one epoch
//! late.
//!
//! All arithmetic is fixed-point integer (`ONE` = Q8 scale): the
//! governor sits on the simulated datapath (reachable from
//! `System::advance`), where the workspace bans floating point. The
//! fail-safe staleness policy — hold for `staleness_k` epochs, then decay
//! `M` toward the conservative `degraded_m` floor — matches the SAT
//! monitor's exactly, so mechanism comparisons isolate the *prediction*
//! difference, not the fault handling.

use crate::governor::{DeltaDir, Governor, GovernorKind, MonitorConfig, MonitorSnapshot, RateDir};

/// Number of past epochs the predictor filters over.
const TAPS: usize = 4;

/// Fixed-point unit (Q8): a saturated epoch observes as `ONE`, an
/// unsaturated one as 0, and filter weights live on the same scale.
const ONE: i64 = 256;

/// The regulation setpoint: the loop steers the predicted saturation
/// probability toward one half (`ONE / 2`), the same operating point the
/// SAT monitor's hover-at-the-threshold behaviour converges to.
const SETPOINT: i64 = ONE / 2;

/// LMS adaptation rate: weight updates are scaled by `2^-MU_SHIFT`
/// relative to the raw gradient. Small enough for stability over the
/// {0, ONE} observation alphabet, large enough to track a workload phase
/// change within a few epochs.
const MU_SHIFT: u32 = 6;

/// Proportional-gain divisor: a full-scale prediction error moves `M` by
/// at most `M / GAIN_DIV` in one epoch, bounding overshoot the way the
/// SAT monitor's `dm_max` clamp does.
const GAIN_DIV: i64 = 8;

/// Magnitude clamp for filter weights (`±4·ONE`), warding off integer
/// drift under adversarial observation sequences.
const W_CLAMP: i64 = 4 * ONE;

/// The LMS-AR governor: an adaptive linear predictor over the saturation
/// history driving proportional rate control.
///
/// Like every [`Governor`], it is deterministic: replicas fed identical
/// observation sequences produce identical `M` sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmsGovernor {
    cfg: MonitorConfig,
    m: u32,
    /// Filter weights, Q8.
    w: [i64; TAPS],
    /// Observation history, Q8; `x[0]` is the most recent epoch.
    x: [i64; TAPS],
    /// |ΔM| applied in the last epoch (snapshot's `delta_m`).
    last_step: u32,
    rate_dir: RateDir,
    delta_dir: DeltaDir,
    /// Consecutive epochs with an unchanged rate direction.
    e: u32,
    epochs: u64,
    stale_epochs: u32,
    degraded_epochs: u64,
}

impl LmsGovernor {
    /// Creates a governor in its initial state: `M = m_init`, uniform
    /// filter weights (the predictor starts as a moving average), and an
    /// all-headroom history.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MonitorConfig::validate`]; configurations
    /// are produced by code, not end users, so a bad one is a bug.
    pub fn new(cfg: MonitorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MonitorConfig: {e}");
        }
        Self {
            cfg,
            m: cfg.m_init,
            w: [ONE / TAPS as i64; TAPS],
            x: [0; TAPS],
            last_step: 0,
            rate_dir: RateDir::Up,
            delta_dir: DeltaDir::Down,
            e: 0,
            epochs: 0,
            stale_epochs: 0,
            degraded_epochs: 0,
        }
    }

    /// The filter's current output: predicted next-epoch saturation in
    /// Q8, clamped to `[0, ONE]`.
    fn predict(&self) -> i64 {
        let raw: i64 = self.w.iter().zip(&self.x).map(|(&w, &x)| w * x).sum::<i64>() / ONE;
        raw.clamp(0, ONE)
    }

    /// One fresh observation: LMS weight update, history shift, then a
    /// proportional rate move against the forecast.
    fn on_fresh_sat(&mut self, sat: bool) -> u32 {
        self.stale_epochs = 0;
        self.epochs += 1;
        let obs = if sat { ONE } else { 0 };

        // LMS: e = d - w·x, w += μ·e·x (all Q8, gradient scaled 2^-MU_SHIFT).
        let err = obs - self.predict();
        for (w, &x) in self.w.iter_mut().zip(&self.x) {
            *w = (*w + (err * x) / (ONE << MU_SHIFT)).clamp(-W_CLAMP, W_CLAMP);
        }

        // Shift the new observation in and forecast the next epoch.
        self.x.rotate_right(1);
        self.x[0] = obs;
        let forecast = self.predict();

        // Proportional control: move M toward the setpoint's rate, at
        // most M/GAIN_DIV per epoch, at least one unit when off-target.
        let rel = forecast - SETPOINT;
        let step = ((i64::from(self.m) * rel.abs()) / (SETPOINT * GAIN_DIV)).max(1) as u32;
        let new_dir = if rel > 0 { RateDir::Down } else { RateDir::Up };
        if rel > 0 {
            self.m = self.m.saturating_add(step).min(self.cfg.m_max);
        } else if rel < 0 {
            self.m = self.m.saturating_sub(step).max(self.cfg.m_min);
        }
        let applied = if rel == 0 { 0 } else { step };
        self.delta_dir = if applied > self.last_step { DeltaDir::Up } else { DeltaDir::Down };
        self.last_step = applied;
        self.e = if new_dir == self.rate_dir { self.e.saturating_add(1) } else { 1 };
        self.rate_dir = new_dir;
        self.m
    }

    /// Consecutive epochs without a fresh observation.
    pub fn stale_epochs(&self) -> u32 {
        self.stale_epochs
    }

    /// True while the fail-safe degraded policy is active.
    pub fn is_degraded(&self) -> bool {
        self.stale_epochs > self.cfg.staleness_k
    }

    /// The configuration the governor was built with.
    pub fn config(&self) -> MonitorConfig {
        self.cfg
    }
}

impl Governor for LmsGovernor {
    fn on_epoch(&mut self, sat: Option<bool>) -> u32 {
        match sat {
            Some(s) => self.on_fresh_sat(s),
            None => {
                // The same fail-safe as the SAT monitor: hold inside the
                // staleness window, then decay toward the conservative
                // floor — lost feedback must not differ across mechanisms.
                self.epochs += 1;
                self.stale_epochs = self.stale_epochs.saturating_add(1);
                if self.stale_epochs > self.cfg.staleness_k {
                    self.degraded_epochs += 1;
                    if self.m < self.cfg.degraded_m {
                        let step = (self.m / 4).saturating_add(1);
                        self.m = self.m.saturating_add(step).min(self.cfg.degraded_m);
                    }
                    self.last_step = 0;
                    self.e = 0;
                    self.delta_dir = DeltaDir::Down;
                }
                self.m
            }
        }
    }

    fn m(&self) -> u32 {
        self.m
    }

    fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs
    }

    fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            m: self.m,
            delta_m: self.last_step,
            steady_epochs: self.e,
            rate_dir: self.rate_dir,
            delta_dir: self.delta_dir,
            epochs: self.epochs,
            stale_epochs: self.stale_epochs,
            degraded: self.is_degraded(),
        }
    }

    fn label(&self) -> &'static str {
        GovernorKind::LmsAr.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MonitorConfig {
        MonitorConfig::default()
    }

    #[test]
    fn sustained_saturation_throttles_to_the_ceiling() {
        let mut g = LmsGovernor::new(cfg());
        for _ in 0..200 {
            g.on_epoch(Some(true));
        }
        assert_eq!(Governor::m(&g), cfg().m_max, "predicted saturation must max out M");
    }

    #[test]
    fn sustained_headroom_releases_to_the_floor() {
        let mut g = LmsGovernor::new(cfg());
        for _ in 0..400 {
            g.on_epoch(Some(false));
        }
        assert_eq!(Governor::m(&g), cfg().m_min, "predicted headroom must min out M");
    }

    #[test]
    fn step_is_proportional_not_fixed() {
        // At a large M, one saturated-forecast epoch moves M by far more
        // than the SAT monitor's dm_max — the mechanism difference the
        // zoo exists to compare.
        let big = MonitorConfig { m_init: 1 << 20, ..cfg() };
        let mut g = LmsGovernor::new(big);
        for _ in 0..8 {
            g.on_epoch(Some(true));
        }
        let before = Governor::m(&g);
        let after = g.on_epoch(Some(true));
        assert!(
            after - before > cfg().dm_max,
            "proportional step {} must exceed the SAT ladder's clamp",
            after - before
        );
    }

    #[test]
    fn lockstep_replicas_agree() {
        let mut replicas: Vec<LmsGovernor> = (0..16).map(|_| LmsGovernor::new(cfg())).collect();
        let pattern = [Some(true), Some(false), None, Some(false), Some(true), Some(true)];
        for (i, &sat) in pattern.iter().cycle().take(500).enumerate() {
            let ms: Vec<u32> = replicas.iter_mut().map(|r| r.on_epoch(sat)).collect();
            assert!(ms.windows(2).all(|w| w[0] == w[1]), "diverged at epoch {i}");
        }
    }

    #[test]
    fn staleness_holds_then_decays_to_the_floor() {
        let mut g = LmsGovernor::new(cfg());
        for _ in 0..10 {
            g.on_epoch(Some(false));
        }
        let held = Governor::m(&g);
        for k in 1..=cfg().staleness_k {
            assert_eq!(g.on_epoch(None), held, "epoch {k}: hold");
            assert!(!g.is_degraded());
        }
        let mut prev = Governor::m(&g);
        for _ in 0..60 {
            let m = g.on_epoch(None);
            assert!(m >= prev, "degraded decay is monotone");
            prev = m;
        }
        assert!(g.is_degraded());
        assert_eq!(Governor::m(&g), cfg().degraded_m);
        assert!(g.degraded_epochs() > 0);
        assert!(g.snapshot().degraded);
    }

    #[test]
    fn fresh_sample_ends_staleness() {
        let mut g = LmsGovernor::new(cfg());
        for _ in 0..cfg().staleness_k + 5 {
            g.on_epoch(None);
        }
        assert!(g.is_degraded());
        g.on_epoch(Some(false));
        assert!(!g.is_degraded());
        assert_eq!(g.stale_epochs(), 0);
    }

    #[test]
    fn snapshot_reflects_state_and_label_is_stable() {
        let mut g = LmsGovernor::new(cfg());
        g.on_epoch(Some(true));
        let s = g.snapshot();
        assert_eq!(s.m, Governor::m(&g));
        assert_eq!(s.epochs, 1);
        assert_eq!(g.label(), "lms-ar");
        assert_eq!(g.config(), cfg());
    }

    #[test]
    #[should_panic(expected = "invalid MonitorConfig")]
    fn invalid_config_panics() {
        let bad = MonitorConfig { m_min: 10, m_max: 5, ..MonitorConfig::default() };
        let _ = LmsGovernor::new(bad);
    }

    #[test]
    fn kind_builds_the_right_governor() {
        let g = GovernorKind::LmsAr.build(cfg());
        assert_eq!(g.label(), "lms-ar");
        assert_eq!(g.m(), cfg().m_init);
    }
}
