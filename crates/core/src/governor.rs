//! The PABST source governor: system monitor and rate generator (§III-B).
//!
//! Every private cache hosts a governor, but all governors run the same
//! deterministic algorithm on the same two inputs — the epoch heartbeat and
//! the global saturation bit — so they stay in lockstep without
//! communicating. The [`Governor`] computes the system-wide multiplier
//! `M`; the [`RateGenerator`] scales `M` by a class stride (and active
//! thread count) into a per-source request *period* in cycles.
//!
//! ## State machine (Tables I/II)
//!
//! | symbol | meaning |
//! |--------|---------|
//! | `M`    | multiplier: how much throttling keeps the MCs from overcommitting; larger `M` ⇒ longer periods ⇒ less traffic |
//! | `δM`   | magnitude of the next change of `M` |
//! | `E`    | consecutive epochs without a rate-direction switch |
//! | phase  | current direction of the goal rate and of `δM` |
//!
//! Rules implemented (from the paper's prose; the printed transition table
//! is corrupt in our source text — see DESIGN.md §2):
//!
//! * `M` moves **opposite** to the goal rate: SAT high ⇒ `M += δM`
//!   (throttle), SAT low ⇒ `M -= δM` (drive more traffic).
//! * `δM` shrinks sharply (÷4) whenever the rate direction flips — a noisy
//!   SAT signal means the loop is hovering at the ideal operating point —
//!   and grows exponentially (×2) once the direction has held for
//!   `inertia` consecutive epochs, so consistently high *or* low SAT
//!   produces rapidly larger adjustments ("adjustments are larger when the
//!   saturation signal has been consistently high or low", §III-B).
//! * `E` counts the consecutive epochs (including the current one) with an
//!   unchanged rate direction; a flip resets it to 1.

use crate::lms::Lms;
use crate::qos::Stride;
use pabst_simkit::Cycle;
use std::fmt;

/// Direction of the goal request rate this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDir {
    /// Rate increasing (M decreasing): memory controllers have headroom.
    Up,
    /// Rate decreasing (M increasing): memory controllers saturated.
    Down,
}

/// Direction `δM` moved this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDir {
    /// δM grew (steady signal; accelerate).
    Up,
    /// δM shrank or held (noisy signal; settle).
    Down,
}

/// Configuration for the [`Governor`] feedback loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Initial multiplier value.
    pub m_init: u32,
    /// Lower clamp for `M`. Must be ≥ 1 so periods never reach zero by
    /// multiplier alone.
    pub m_min: u32,
    /// Upper clamp for `M`, bounding the longest enforced period.
    pub m_max: u32,
    /// Initial / minimum step size.
    pub dm_min: u32,
    /// Maximum step size.
    pub dm_max: u32,
    /// Consecutive low-SAT epochs required before `δM` starts growing
    /// again (the paper's *inertia*, e.g. 3).
    pub inertia: u32,
    /// Fail-safe: stale epochs (no fresh SAT sample) tolerated while the
    /// monitor holds its last rate. Beyond this window the monitor enters
    /// the degraded policy and decays the rate toward a conservative
    /// floor. Must be ≥ 1 — a zero window would degrade on the very first
    /// sample and is a configuration error.
    pub staleness_k: u32,
    /// Fail-safe: the multiplier ceiling the degraded policy decays `M`
    /// toward — the conservative *rate floor*. Heavy throttling (safe when
    /// the feedback signal is lost) but not zero rate. Must lie within
    /// `[m_min, m_max]`.
    pub degraded_m: u32,
}

impl Default for MonitorConfig {
    /// Values tuned for the baseline system with
    /// [`GOVERNOR_STRIDE_SCALE`]-normalized strides, `F = 4096`, and
    /// 20 000-cycle (10 µs) epochs. The range of `M` is wider than the
    /// paper's quoted 12-bit datapath because our stride normalization
    /// moves precision from the stride into `M` (see DESIGN.md §2); the
    /// arithmetic remains adds and shifts.
    fn default() -> Self {
        Self {
            m_init: 2048,
            m_min: 1,
            m_max: 1 << 22,
            // With GOVERNOR_STRIDE_SCALE-normalized strides, saturation
            // operating points land at M in the low thousands for any
            // weight mix, so capping the step at 256 bounds overshoot to
            // ~10% while still crossing the whole operating range in a few
            // tens of epochs.
            dm_min: 1,
            dm_max: 256,
            inertia: 3,
            // With 10 µs epochs, four stale epochs is 40 µs of signal
            // loss before the fail-safe engages — long enough to ride out
            // a dropped broadcast, short enough to bound overcommit.
            staleness_k: 4,
            // 32× the default operating point: heavy throttling, but the
            // system keeps making forward progress while degraded.
            degraded_m: 1 << 16,
        }
    }
}

/// A violated [`MonitorConfig`] constraint, typed so callers can match on
/// the failure instead of probing strings (mirrors `soc::ConfigError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorConfigError {
    /// `m_min` was zero: periods could reach zero by multiplier alone.
    ZeroMMin,
    /// `m_min` exceeded `m_max`.
    InvertedMBounds,
    /// `m_init` fell outside `[m_min, m_max]`.
    MInitOutOfRange,
    /// `dm_min` was zero or exceeded `dm_max`.
    BadDeltaBounds,
    /// `staleness_k` was zero, which would degrade on the first sample.
    ZeroStalenessWindow,
    /// `degraded_m` fell outside `[m_min, m_max]`.
    DegradedMOutOfRange,
}

impl fmt::Display for MonitorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorConfigError::ZeroMMin => write!(f, "m_min must be >= 1"),
            MonitorConfigError::InvertedMBounds => write!(f, "m_min must not exceed m_max"),
            MonitorConfigError::MInitOutOfRange => {
                write!(f, "m_init must lie within [m_min, m_max]")
            }
            MonitorConfigError::BadDeltaBounds => write!(f, "require 0 < dm_min <= dm_max"),
            MonitorConfigError::ZeroStalenessWindow => {
                write!(f, "staleness_k must be >= 1 (a zero window degrades instantly)")
            }
            MonitorConfigError::DegradedMOutOfRange => {
                write!(f, "degraded_m must lie within [m_min, m_max]")
            }
        }
    }
}

impl std::error::Error for MonitorConfigError {}

impl MonitorConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`MonitorConfigError`].
    pub fn validate(&self) -> Result<(), MonitorConfigError> {
        if self.m_min == 0 {
            return Err(MonitorConfigError::ZeroMMin);
        }
        if self.m_min > self.m_max {
            return Err(MonitorConfigError::InvertedMBounds);
        }
        if !(self.m_min..=self.m_max).contains(&self.m_init) {
            return Err(MonitorConfigError::MInitOutOfRange);
        }
        if self.dm_min == 0 || self.dm_min > self.dm_max {
            return Err(MonitorConfigError::BadDeltaBounds);
        }
        if self.staleness_k == 0 {
            return Err(MonitorConfigError::ZeroStalenessWindow);
        }
        if !(self.m_min..=self.m_max).contains(&self.degraded_m) {
            return Err(MonitorConfigError::DegradedMOutOfRange);
        }
        Ok(())
    }
}

/// Which fresh-sample law a [`Governor`] runs (the source-side half of
/// the mechanism selection carried by `soc::SystemConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GovernorKind {
    /// The paper's multiplicative SAT feedback loop (Tables I/II).
    #[default]
    Sat,
    /// LMS prediction-driven rate adaptation ([`crate::lms`],
    /// Srinivasan & Gangadharan's LMS-AR).
    LmsAr,
}

impl GovernorKind {
    /// Stable lowercase label used in config names and provenance hashes.
    pub fn label(self) -> &'static str {
        match self {
            GovernorKind::Sat => "sat",
            GovernorKind::LmsAr => "lms-ar",
        }
    }

    /// Builds a fresh governor running this kind's law, in its initial
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MonitorConfig::validate`]; configurations
    /// are produced by code, not end users, so a bad one is a bug.
    pub fn build(self, cfg: MonitorConfig) -> Governor {
        if let Err(e) = cfg.validate() {
            panic!("invalid MonitorConfig: {e}");
        }
        let law = match self {
            GovernorKind::Sat => Law::Sat,
            GovernorKind::LmsAr => Law::LmsAr(Lms::new()),
        };
        Governor {
            cfg,
            m: cfg.m_init,
            dm: law.resting_dm(&cfg),
            e: 0,
            rate_dir: RateDir::Up,
            delta_dir: DeltaDir::Down,
            epochs: 0,
            stale_epochs: 0,
            degraded_epochs: 0,
            law,
        }
    }
}

/// The fresh-sample step a [`Governor`] delegates to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Law {
    /// The Tables I/II step ladder over `δM`.
    Sat,
    /// The LMS-AR predictor and its proportional step.
    LmsAr(Lms),
}

impl Law {
    /// The `δM` the governor starts with and returns to when it degrades:
    /// the ladder's smallest step, or no step at all for LMS-AR.
    fn resting_dm(&self, cfg: &MonitorConfig) -> u32 {
        match self {
            Law::Sat => cfg.dm_min,
            Law::LmsAr(_) => 0,
        }
    }
}

/// The distributed governor's shared state machine: it turns one
/// congestion observation per epoch into the multiplier `M`.
///
/// It owns the epoch count, the staleness fail-safe and the snapshot; the
/// [`GovernorKind`] it was built with picks only the law applied to a
/// fresh sample, so every kind handles lost feedback identically.
///
/// All governors in a system produce identical `M` sequences from identical
/// inputs (the paper relies on this to avoid inter-governor communication);
/// the `lockstep_replicas_agree` unit tests verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Governor {
    cfg: MonitorConfig,
    law: Law,
    m: u32,
    /// `δM`: the ladder's next step (SAT) or the step applied in the last
    /// epoch (LMS-AR).
    dm: u32,
    /// Consecutive epochs with an unchanged rate direction (the paper's E).
    e: u32,
    rate_dir: RateDir,
    delta_dir: DeltaDir,
    epochs: u64,
    /// Consecutive epochs without a fresh SAT sample (fail-safe state).
    stale_epochs: u32,
    /// Total epochs spent in the degraded policy (observability).
    degraded_epochs: u64,
}

impl Governor {
    /// Advances one epoch given the saturation signal observed during the
    /// epoch that just ended, returning the new multiplier `M`.
    ///
    /// `Some(sat)` is a fresh broadcast and drives the kind's law. `None`
    /// means the SAT broadcast was lost this epoch: for up to
    /// `staleness_k` consecutive stale epochs the governor **holds its
    /// last rate** (`M`, `δM`, and `E` are untouched); beyond the window
    /// it enters the *degraded policy* and decays the goal rate toward a
    /// conservative floor — `M` grows multiplicatively (`M += M/4 + 1`
    /// per epoch) up to `degraded_m`, and the step state resets so the
    /// loop re-converges gently once the signal returns. Returns the
    /// multiplier in force.
    pub fn on_epoch(&mut self, sat: Option<bool>) -> u32 {
        self.epochs += 1;
        match sat {
            Some(sat) => {
                self.stale_epochs = 0;
                self.on_fresh_sat(sat);
            }
            None => {
                self.stale_epochs = self.stale_epochs.saturating_add(1);
                if self.stale_epochs > self.cfg.staleness_k {
                    // Degraded: no information means overcommit is the
                    // dangerous direction, so throttle toward the floor.
                    self.degraded_epochs += 1;
                    if self.m < self.cfg.degraded_m {
                        let step = (self.m / 4).saturating_add(1);
                        self.m = self.m.saturating_add(step).min(self.cfg.degraded_m);
                    }
                    self.dm = self.law.resting_dm(&self.cfg);
                    self.e = 0;
                    self.delta_dir = DeltaDir::Down;
                }
            }
        }
        self.m
    }

    /// The fresh-sample half of the loop: the law sets the goal-rate
    /// direction, `δM` and `E`, then `M` moves by `δM` against the rate.
    fn on_fresh_sat(&mut self, sat: bool) {
        let dir = match &mut self.law {
            Law::Sat => {
                let dir = if sat { RateDir::Down } else { RateDir::Up };
                if dir == self.rate_dir {
                    self.e = self.e.saturating_add(1);
                    if self.e >= self.cfg.inertia {
                        // Steady signal past the inertia window: accelerate
                        // exponentially (shift left).
                        self.dm = (self.dm * 2).min(self.cfg.dm_max);
                        self.delta_dir = DeltaDir::Up;
                    } else {
                        // Still inside the inertia window after a recent
                        // flip: keep settling so the loop damps into the
                        // noise band around the operating point.
                        self.dm = (self.dm / 2).max(self.cfg.dm_min);
                        self.delta_dir = DeltaDir::Down;
                    }
                } else {
                    // Direction flip: the loop is hovering near the
                    // operating point — settle quickly (shift right by two).
                    self.e = 1;
                    self.dm = (self.dm / 4).max(self.cfg.dm_min);
                    self.delta_dir = DeltaDir::Down;
                }
                dir
            }
            Law::LmsAr(lms) => {
                let (dir, step) = lms.observe(self.m, sat);
                self.delta_dir = if step > self.dm { DeltaDir::Up } else { DeltaDir::Down };
                self.dm = step;
                self.e = if dir == self.rate_dir { self.e.saturating_add(1) } else { 1 };
                dir
            }
        };
        self.rate_dir = dir;
        // M moves opposite to the goal rate.
        self.m = match dir {
            RateDir::Down => self.m.saturating_add(self.dm).min(self.cfg.m_max),
            RateDir::Up => self.m.saturating_sub(self.dm).max(self.cfg.m_min),
        };
    }

    /// Total epochs spent under the degraded policy.
    pub fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs
    }

    /// A point-in-time view of the governor's state machine for
    /// observability (trace records, figure dumps). Pure.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            m: self.m,
            delta_m: self.dm,
            steady_epochs: self.e,
            rate_dir: self.rate_dir,
            delta_dir: self.delta_dir,
            epochs: self.epochs,
            stale_epochs: self.stale_epochs,
            degraded: self.stale_epochs > self.cfg.staleness_k,
        }
    }
}

/// A point-in-time view of one [`Governor`] (observability; see
/// [`Governor::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Current multiplier `M`.
    pub m: u32,
    /// Current step magnitude `δM`.
    pub delta_m: u32,
    /// Consecutive epochs without a rate-direction switch (`E`).
    pub steady_epochs: u32,
    /// Current goal-rate direction.
    pub rate_dir: RateDir,
    /// Direction `δM` moved in the last epoch.
    pub delta_dir: DeltaDir,
    /// Total epochs processed.
    pub epochs: u64,
    /// Consecutive epochs without a fresh SAT sample.
    pub stale_epochs: u32,
    /// True while the fail-safe degraded policy is active.
    pub degraded: bool,
}

/// Stride scale used by the governor's rate computation: pass
/// [`crate::qos::ShareTable::scaled_stride`] with this scale. The
/// highest-weight class gets stride 64, which together with the default
/// `F` of 4096 gives sub-cycle rate granularity per unit of `M`.
pub const GOVERNOR_STRIDE_SCALE: u64 = 64;

/// Translates the system-wide multiplier into class-specific request
/// periods (Eqs. 3–4).
///
/// `class_period = (M × stride) / F` (Eq. 3) and `source_period =
/// class_period × threads` (Eq. 4), distributing a class's allocation
/// evenly over its active CPUs. The division by the fixed-point scale
/// factor `F` is applied **after** the threads multiply so a unit step of
/// `M` changes the enforced per-source period by `stride × threads / F`
/// cycles — fractional rate control, exactly the role Eq. 3 gives `F`.
///
/// The paper quotes `F = 16` for its stride magnitudes; with
/// [`GOVERNOR_STRIDE_SCALE`]-normalized strides the equivalent default is
/// 4096 (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateGenerator {
    /// The constant scale factor `F`. Larger values converge more slowly;
    /// smaller values can oscillate (§III-B2).
    pub f_scale: u64,
}

impl Default for RateGenerator {
    fn default() -> Self {
        // Chosen so typical saturation operating points land at M in the
        // low thousands: large relative to δM's bounds (stable) yet fine-
        // grained (one step of M moves a 16-thread period by 1/64 cycle).
        Self { f_scale: 65_536 }
    }
}

impl RateGenerator {
    /// Eq. 3: the class-wide goal period in cycles for multiplier `m`.
    /// May round to zero for aggregate periods below one cycle; the
    /// per-source period from [`RateGenerator::source_period`] is the
    /// enforced quantity.
    pub fn class_period(&self, m: u32, stride: Stride) -> Cycle {
        (u64::from(m) * stride.get()) / self.f_scale
    }

    /// Eq. 4: the per-source period in cycles, scaling the class period by
    /// the number of CPUs actively executing the class (division by `F`
    /// applied last for precision).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero — an idle class has no sources to pace.
    pub fn source_period(&self, m: u32, stride: Stride, threads: u32) -> Cycle {
        assert!(threads > 0, "source_period requires at least one active thread");
        (u64::from(m) * stride.get() * Cycle::from(threads)) / self.f_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{QosId, ShareTable};

    fn cfg() -> MonitorConfig {
        MonitorConfig::default()
    }

    #[test]
    fn m_rises_on_saturation_falls_on_headroom() {
        let mut mon = GovernorKind::Sat.build(cfg());
        let m0 = mon.snapshot().m;
        let m1 = mon.on_epoch(Some(true));
        assert!(m1 > m0, "SAT=1 must raise M (throttle)");
        let m2 = mon.on_epoch(Some(false));
        assert!(m2 < m1, "SAT=0 must lower M (drive traffic)");
    }

    #[test]
    fn m_clamped_to_bounds() {
        let mut mon = GovernorKind::Sat.build(cfg());
        // Enough epochs to traverse [m_init, m_max] at dm_max per epoch.
        let climb = (2 * cfg().m_max / cfg().dm_max) as usize;
        for _ in 0..climb {
            mon.on_epoch(Some(true));
            assert!(mon.snapshot().m <= cfg().m_max);
        }
        assert_eq!(mon.snapshot().m, cfg().m_max);
        for _ in 0..climb {
            mon.on_epoch(Some(false));
            assert!(mon.snapshot().m >= cfg().m_min);
        }
        assert_eq!(mon.snapshot().m, cfg().m_min);
    }

    #[test]
    fn delta_shrinks_on_noise() {
        let mut mon = GovernorKind::Sat.build(cfg());
        // Grow δM with a long low-SAT run first.
        for _ in 0..20 {
            mon.on_epoch(Some(false));
        }
        let grown = mon.snapshot().delta_m;
        assert!(grown > cfg().dm_min);
        // Alternating signal must collapse δM to the minimum.
        for _ in 0..20 {
            mon.on_epoch(Some(true));
            mon.on_epoch(Some(false));
        }
        assert_eq!(mon.snapshot().delta_m, cfg().dm_min);
    }

    #[test]
    fn delta_grows_only_after_inertia() {
        let mut mon = GovernorKind::Sat.build(cfg());
        mon.on_epoch(Some(true)); // reset low_run, δM at min
        let base = mon.snapshot().delta_m;
        mon.on_epoch(Some(false));
        assert_eq!(mon.snapshot().delta_m, base, "1 low epoch < inertia, δM must hold");
        mon.on_epoch(Some(false));
        assert_eq!(mon.snapshot().delta_m, base, "2 low epochs < inertia, δM must hold");
        mon.on_epoch(Some(false));
        assert!(mon.snapshot().delta_m > base, "3rd consecutive low epoch grows δM");
    }

    #[test]
    fn delta_growth_is_exponential() {
        let mut mon = GovernorKind::Sat.build(cfg());
        for _ in 0..cfg().inertia {
            mon.on_epoch(Some(false));
        }
        let d0 = mon.snapshot().delta_m;
        mon.on_epoch(Some(false));
        assert_eq!(mon.snapshot().delta_m, (d0 * 2).min(cfg().dm_max));
    }

    #[test]
    fn delta_clamped_to_max() {
        let mut mon = GovernorKind::Sat.build(cfg());
        for _ in 0..1000 {
            mon.on_epoch(Some(false));
        }
        assert_eq!(mon.snapshot().delta_m, cfg().dm_max);
    }

    #[test]
    fn steady_counter_resets_on_direction_flip() {
        let mut mon = GovernorKind::Sat.build(cfg());
        mon.on_epoch(Some(false));
        mon.on_epoch(Some(false));
        let e_before = mon.snapshot().steady_epochs;
        assert!(e_before >= 2);
        mon.on_epoch(Some(true));
        assert_eq!(mon.snapshot().steady_epochs, 1, "flip starts a new 1-epoch run");
        mon.on_epoch(Some(true));
        assert_eq!(mon.snapshot().steady_epochs, 2);
    }

    #[test]
    fn phase_reflects_directions() {
        let mut mon = GovernorKind::Sat.build(cfg());
        let phase = |mon: &Governor| {
            let s = mon.snapshot();
            (s.rate_dir, s.delta_dir)
        };
        mon.on_epoch(Some(true));
        assert_eq!(phase(&mon), (RateDir::Down, DeltaDir::Down));
        for _ in 0..cfg().inertia {
            mon.on_epoch(Some(false));
        }
        assert_eq!(phase(&mon), (RateDir::Up, DeltaDir::Up));
    }

    #[test]
    fn lockstep_replicas_agree() {
        // The distributed-correctness claim: N monitors fed the same inputs
        // produce identical M at every epoch.
        let mut replicas: Vec<Governor> = (0..32).map(|_| GovernorKind::Sat.build(cfg())).collect();
        let pattern = [true, false, false, true, false, false, false, true];
        for (i, &sat) in pattern.iter().cycle().take(500).enumerate() {
            let ms: Vec<u32> = replicas.iter_mut().map(|r| r.on_epoch(Some(sat))).collect();
            assert!(ms.windows(2).all(|w| w[0] == w[1]), "diverged at epoch {i}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid MonitorConfig")]
    fn invalid_config_panics() {
        let bad = MonitorConfig { m_min: 10, m_max: 5, ..MonitorConfig::default() };
        let _ = GovernorKind::Sat.build(bad);
    }

    #[test]
    fn config_validation_is_typed_and_matchable() {
        let c = MonitorConfig { m_min: 0, ..MonitorConfig::default() };
        assert_eq!(c.validate(), Err(MonitorConfigError::ZeroMMin));
        let c = MonitorConfig { dm_min: 0, ..MonitorConfig::default() };
        assert_eq!(c.validate(), Err(MonitorConfigError::BadDeltaBounds));
        let mut c = MonitorConfig::default();
        c.m_init = c.m_max + 1;
        assert_eq!(c.validate(), Err(MonitorConfigError::MInitOutOfRange));
        let c = MonitorConfig { m_min: 10, m_max: 5, ..MonitorConfig::default() };
        assert_eq!(c.validate(), Err(MonitorConfigError::InvertedMBounds));
        assert!(MonitorConfig::default().validate().is_ok());
        // Display keeps the field name so the panic text stays debuggable.
        assert!(MonitorConfigError::ZeroMMin.to_string().contains("m_min"));
        assert!(MonitorConfigError::BadDeltaBounds.to_string().contains("dm_min"));
        assert!(MonitorConfigError::MInitOutOfRange.to_string().contains("m_init"));
    }

    #[test]
    fn staleness_holds_last_rate_within_the_window() {
        let mut mon = GovernorKind::Sat.build(cfg());
        for _ in 0..10 {
            mon.on_epoch(Some(true));
        }
        let held_m = mon.snapshot().m;
        let held_dm = mon.snapshot().delta_m;
        for k in 1..=cfg().staleness_k {
            assert_eq!(mon.on_epoch(None), held_m, "epoch {k}: hold");
            assert_eq!(mon.snapshot().delta_m, held_dm);
            assert!(!mon.snapshot().degraded);
            assert_eq!(mon.snapshot().stale_epochs, k);
        }
    }

    #[test]
    fn staleness_beyond_k_decays_toward_the_conservative_floor() {
        let mut mon = GovernorKind::Sat.build(cfg());
        let m0 = mon.snapshot().m;
        for _ in 0..cfg().staleness_k {
            mon.on_epoch(None);
        }
        assert_eq!(mon.snapshot().m, m0, "still holding at exactly K stale epochs");
        let mut prev = mon.snapshot().m;
        for _ in 0..60 {
            let m = mon.on_epoch(None);
            assert!(m >= prev, "degraded decay is monotone toward the floor");
            assert!(m <= cfg().degraded_m);
            prev = m;
        }
        assert!(mon.snapshot().degraded);
        assert_eq!(mon.snapshot().m, cfg().degraded_m, "decay converges to degraded_m");
        assert!(mon.degraded_epochs() > 0);
        let snap = mon.snapshot();
        assert!(snap.degraded);
        assert_eq!(snap.stale_epochs, cfg().staleness_k + 60);
    }

    #[test]
    fn degraded_monitor_above_the_floor_holds_not_drops() {
        // A monitor already throttling harder than the floor must not
        // *increase* its rate on no information.
        let high =
            MonitorConfig { m_init: 1 << 20, degraded_m: 1 << 16, ..MonitorConfig::default() };
        let mut mon = GovernorKind::Sat.build(high);
        for _ in 0..high.staleness_k + 10 {
            mon.on_epoch(None);
        }
        assert_eq!(mon.snapshot().m, 1 << 20, "degraded policy never lowers M");
    }

    #[test]
    fn fresh_sample_ends_staleness_and_resumes_the_loop() {
        let mut mon = GovernorKind::Sat.build(cfg());
        for _ in 0..cfg().staleness_k + 5 {
            mon.on_epoch(None);
        }
        assert!(mon.snapshot().degraded);
        let m_degraded = mon.snapshot().m;
        mon.on_epoch(Some(false));
        assert_eq!(mon.snapshot().stale_epochs, 0);
        assert!(!mon.snapshot().degraded);
        assert!(mon.snapshot().m < m_degraded, "headroom sample lowers M again");
        assert_eq!(mon.snapshot().delta_m, cfg().dm_min, "loop re-converges gently");
    }

    #[test]
    fn staleness_config_is_validated() {
        let c = MonitorConfig { staleness_k: 0, ..MonitorConfig::default() };
        assert_eq!(c.validate(), Err(MonitorConfigError::ZeroStalenessWindow));
        let c = MonitorConfig { degraded_m: 0, ..MonitorConfig::default() };
        assert_eq!(c.validate(), Err(MonitorConfigError::DegradedMOutOfRange));
        let mut c = MonitorConfig::default();
        c.degraded_m = c.m_max + 1;
        assert_eq!(c.validate(), Err(MonitorConfigError::DegradedMOutOfRange));
        assert!(MonitorConfigError::ZeroStalenessWindow.to_string().contains("staleness_k"));
        assert!(MonitorConfigError::DegradedMOutOfRange.to_string().contains("degraded_m"));
    }

    #[test]
    fn periods_proportional_to_strides() {
        // The proportional-share invariant (Eq. 5): for any M, per-source
        // periods are in stride ratio, hence rates are in weight ratio.
        let shares = ShareTable::from_weights(&[4, 1]).unwrap();
        let rg = RateGenerator::default();
        let s0 = shares.scaled_stride(QosId::new(0), GOVERNOR_STRIDE_SCALE);
        let s1 = shares.scaled_stride(QosId::new(1), GOVERNOR_STRIDE_SCALE);
        // Use multipliers large enough that integer truncation of the
        // period is negligible relative to the ratio.
        for m in [8192u32, 100_000, 1 << 20] {
            let p0 = rg.source_period(m, s0, 16);
            let p1 = rg.source_period(m, s1, 16);
            let ratio = p1 as f64 / p0 as f64;
            assert!((ratio - 4.0).abs() < 0.05, "m={m}: p0={p0} p1={p1}");
        }
    }

    #[test]
    fn source_period_scales_by_threads() {
        let shares = ShareTable::from_weights(&[2, 1]).unwrap();
        let rg = RateGenerator::default();
        let s = shares.scaled_stride(QosId::new(0), GOVERNOR_STRIDE_SCALE);
        // Division-last keeps the threads scaling exact.
        assert_eq!(rg.source_period(4096, s, 4), 4 * rg.source_period(4096, s, 1));
    }

    #[test]
    fn unit_m_step_is_subcycle() {
        // The role of F: one step of M moves a 16-thread source period by
        // less than one cycle, so rates are finely controllable.
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let rg = RateGenerator::default();
        let s = shares.scaled_stride(QosId::new(0), GOVERNOR_STRIDE_SCALE);
        let p = rg.source_period(1000, s, 16);
        let p_next = rg.source_period(1001, s, 16);
        assert!(p_next - p <= 1, "step {} too coarse", p_next - p);
    }

    #[test]
    #[should_panic(expected = "at least one active thread")]
    fn zero_threads_panics() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let _ = RateGenerator::default().source_period(10, shares.stride(QosId::new(0)), 0);
    }
}
