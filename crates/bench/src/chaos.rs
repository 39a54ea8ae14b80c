//! Chaos campaign: seeded fault-plan sweeps over the mechanism zoo.
//!
//! The campaign expands a grid of cells from a single campaign seed.
//! Cell 0 is a committed **fixture**: a fault plan built to violate the
//! liveness invariant (a permanent full-probability controller stall
//! padded with two firing-but-harmless decoy specs), proving end to end
//! that the checker catches it, the classifier labels it, and the
//! shrinker strips the decoys. Every other cell is **derived**: its
//! mechanism pair and fault plan are pure functions of
//! `(CAMPAIGN_SEED, index)` via stateless splitmix64 draws, so any cell
//! reproduces from its index alone — no state threads between cells and
//! results are identical at any `--jobs` count.
//!
//! Each cell runs a 3:1 read-stream contest on the scaled 8-core
//! machine with release-mode invariant checking on
//! ([`pabst_simkit::invariant`]) and the panicking watchdog off — a
//! wedge is something to classify here, not a reason to kill the sweep.
//! The per-cell deadline is an **epoch budget**, not a wall clock: every
//! run executes exactly `warmup + epochs` epochs (the simulator always
//! advances cycles, so a "hang" cannot actually hang), and a cell is
//! classified `timeout` when the budget expires with work still queued
//! and a dead bandwidth tail.
//!
//! Outcome classes, in precedence order:
//!
//! | class                | meaning                                        |
//! |----------------------|------------------------------------------------|
//! | `panic`              | the run unwound (caught per cell)              |
//! | `invariant-violation`| the checker recorded at least one violation    |
//! | `timeout`            | budget exhausted wedged: pending work, dead tail|
//! | `degraded`           | fail-safe engaged or allocation error > envelope|
//! | `clean`              | none of the above                              |
//!
//! The renderer re-derives every non-clean cell's plan from its index,
//! re-runs it serially through [`crate::shrink::shrink_plan`], and
//! emits the minimal plan as JSONL plus a repro command.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::harness::{ExperimentResult, Params, RunCtx};
use crate::registry::MECHANISM_COMBOS;
use crate::scenarios::read_streamers;
use crate::shrink::shrink_plan;
use crate::table::Table;
use pabst_core::governor::GovernorKind;
use pabst_dram::ArbiterMode;
use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec, PPM_SCALE};
use pabst_simkit::stats::allocation_error_pct;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};

/// Base seed every campaign draw mixes from. Changing it reshuffles
/// every derived cell (the fixture is pinned), so treat it as part of
/// the campaign's identity: repro commands are only valid for the seed
/// they were generated under.
pub const CAMPAIGN_SEED: u64 = 0xC4A0_5EED_0000_0009;

/// Grid index of the committed failure fixture.
pub const FIXTURE_INDEX: usize = 0;

/// Consecutive stalled epochs (with work pending) before the liveness
/// invariant fires. Derived plans cap mc-stall windows well below this
/// so only the fixture trips it by construction.
pub const LIVENESS_EPOCHS: u64 = 8;

/// Trailing epochs that must all deliver zero bytes for a cell to
/// count as wedged at budget exhaustion.
const TAIL_EPOCHS: usize = 4;

/// Allocation error above which a faulted run leaves the "degraded
/// within envelope" band even without the fail-safe engaging.
const ENVELOPE_ERROR_PCT: f64 = 10.0;

/// Failing cells minimized per campaign; the renderer logs how many
/// were left unshrunk when more fail.
const MAX_SHRINK_CELLS: usize = 4;

/// Oracle-run budget per shrink.
const SHRINK_ATTEMPTS: u64 = 48;

const QUICK_CELLS: usize = 64;
const FULL_CELLS: usize = 96;
const QUICK_EPOCHS: usize = 12;
const FULL_EPOCHS: usize = 20;

// ---------------------------------------------------------------------
// Outcome classification.
// ---------------------------------------------------------------------

/// How one chaos cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No faults bit, or they left no observable dent.
    Clean,
    /// Faults bit but the machine stayed inside its envelope: the
    /// fail-safe engaged and/or allocation error exceeded the band,
    /// with no invariant violated.
    Degraded,
    /// The invariant checker recorded at least one violation.
    InvariantViolation,
    /// The run unwound; caught per cell, never aborts the sweep.
    Panic,
    /// Epoch budget exhausted with pending work and a dead bandwidth
    /// tail.
    Timeout,
}

impl Outcome {
    /// All classes, in code order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Clean,
        Outcome::Degraded,
        Outcome::InvariantViolation,
        Outcome::Panic,
        Outcome::Timeout,
    ];

    /// Stable numeric code (stored as the `outcome` metric).
    pub fn code(self) -> u64 {
        match self {
            Outcome::Clean => 0,
            Outcome::Degraded => 1,
            Outcome::InvariantViolation => 2,
            Outcome::Panic => 3,
            Outcome::Timeout => 4,
        }
    }

    /// Decodes a metric value written by [`Outcome::code`].
    pub fn from_code(code: u64) -> Outcome {
        Outcome::ALL[(code as usize).min(Outcome::ALL.len() - 1)]
    }

    /// Kebab-case display label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Degraded => "degraded",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::Panic => "panic",
            Outcome::Timeout => "timeout",
        }
    }

    /// True for the classes worth minimizing and reporting as repros.
    pub fn is_failure(self) -> bool {
        matches!(self, Outcome::InvariantViolation | Outcome::Panic | Outcome::Timeout)
    }
}

/// Everything one cell run produced.
#[derive(Debug, Clone, Copy)]
pub struct CellOutcome {
    /// The classified outcome.
    pub outcome: Outcome,
    /// Max relative share error vs the 3:1 target, percent.
    pub error_pct: f64,
    /// Aggregate delivered bandwidth over the measured window, bytes/cycle.
    pub total_bpc: f64,
    /// Fault events injected over the run.
    pub faults: u64,
    /// Epochs the governor spent in the degraded fail-safe.
    pub degraded_epochs: u64,
    /// Invariant violations recorded.
    pub violations: u64,
    /// Invariant checks executed (proof the checker was live).
    pub checks: u64,
}

/// Pure precedence rule mapping run facts to an outcome class; panics
/// are classified upstream (there is no `System` left to read facts
/// from).
fn outcome_from_facts(
    violations: u64,
    wedged: bool,
    degraded_epochs: u64,
    faults: u64,
    error_pct: f64,
) -> Outcome {
    if violations > 0 {
        Outcome::InvariantViolation
    } else if wedged {
        Outcome::Timeout
    } else if degraded_epochs > 0 || (faults > 0 && error_pct > ENVELOPE_ERROR_PCT) {
        Outcome::Degraded
    } else {
        Outcome::Clean
    }
}

// ---------------------------------------------------------------------
// Cell derivation: pure functions of (CAMPAIGN_SEED, index).
// ---------------------------------------------------------------------

/// One cell of the campaign: a mechanism pair under a fault plan.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Governor mechanism under test.
    pub governor: GovernorKind,
    /// Target arbiter mechanism under test.
    pub arbiter: ArbiterMode,
    /// The fault plan injected into the run.
    pub plan: FaultPlan,
}

impl ChaosCell {
    /// `governor-arbiter` label for tables.
    pub fn mechanism(&self) -> String {
        format!("{}-{}", self.governor.label(), self.arbiter.label())
    }

    /// `kind+kind+...` plan summary for tables.
    pub fn plan_summary(&self) -> String {
        let kinds: Vec<&str> = self.plan.specs().iter().map(|s| s.kind.label()).collect();
        kinds.join("+")
    }
}

/// splitmix64 finalizer: the same stateless mixer `simkit::fault` uses
/// for per-event draws, applied here to (seed, index, slot) tuples so
/// every cell's plan is reproducible without any RNG state.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draw `slot` for cell `index` — pure in (CAMPAIGN_SEED, index, slot).
fn draw(index: u64, slot: u64) -> u64 {
    mix(CAMPAIGN_SEED
        ^ mix(index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ slot.wrapping_mul(0xD134_2543_DE82_EF95)))
}

/// The committed failure fixture: a permanent full-probability stall of
/// the only memory controller (guaranteed liveness violation once the
/// stall outlasts [`LIVENESS_EPOCHS`]) buried under two decoy specs
/// that fire without breaking anything. The decoys exist so the
/// shrinker has real work: the minimal repro is the one mc-stall spec.
fn fixture_cell() -> ChaosCell {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        kind: FaultKind::SatCorrupt,
        target: 0,
        from_epoch: 0,
        until_epoch: u64::MAX,
        prob_ppm: 200_000,
        magnitude: 0,
        seed: 0xF1B0_0001,
    });
    plan.push(FaultSpec {
        kind: FaultKind::McStall,
        target: 0,
        from_epoch: 0,
        until_epoch: u64::MAX,
        prob_ppm: PPM_SCALE,
        magnitude: 0,
        seed: 0xF1B0_0002,
    });
    plan.push(FaultSpec {
        kind: FaultKind::CreditLeak,
        target: 3,
        from_epoch: 0,
        until_epoch: u64::MAX,
        prob_ppm: 100_000,
        magnitude: 2_000,
        seed: 0xF1B0_0003,
    });
    ChaosCell { governor: GovernorKind::Sat, arbiter: ArbiterMode::Edf, plan }
}

/// Expands grid index `index` into its cell descriptor. Index 0 is the
/// fixture; every other cell derives its mechanisms and 1–3 fault specs
/// from stateless draws. Derived mc-stall specs are capped at 200 000
/// ppm over windows of at most 4 epochs: [`LIVENESS_EPOCHS`] requires 9
/// consecutive stalls, so a derived stall can degrade a run but cannot
/// legitimately trip liveness — any violation outside the fixture is a
/// genuine bug, which is what lets CI demand zero of them.
pub fn cell_descriptor(index: usize) -> ChaosCell {
    if index == FIXTURE_INDEX {
        return fixture_cell();
    }
    let i = index as u64;
    let (governor, arbiter) = MECHANISM_COMBOS[(draw(i, 0) % 4) as usize];
    let nspecs = 1 + draw(i, 1) % 3;
    let mut plan = FaultPlan::new();
    for s in 0..nspecs {
        let d = |slot: u64| draw(i, 16 + s * 16 + slot);
        let kind = FaultKind::ALL[(d(0) % 6) as usize];
        let target = match kind {
            // SAT kinds hit the single global monitor; mc-stall the
            // single controller of the scaled 8-core machine.
            FaultKind::SatDrop
            | FaultKind::SatDelay
            | FaultKind::SatCorrupt
            | FaultKind::McStall => 0,
            // Tile-scoped kinds pick one of the 8 cores.
            FaultKind::EpochSkew | FaultKind::CreditLeak => d(1) % 8,
        };
        let prob_ppm = match kind {
            FaultKind::McStall => [10_000, 50_000, 200_000][(d(2) % 3) as usize],
            _ => [10_000, 50_000, 200_000, 500_000, PPM_SCALE][(d(2) % 5) as usize],
        };
        let (from_epoch, until_epoch) = match kind {
            FaultKind::McStall => {
                let from = d(3) % 12;
                (from, from + 1 + d(4) % 3)
            }
            _ => (d(3) % 8, u64::MAX),
        };
        let magnitude = match kind {
            FaultKind::SatDelay => 1 + d(5) % 6,
            FaultKind::CreditLeak => 500 + d(5) % 4_500,
            _ => 0,
        };
        plan.push(FaultSpec {
            kind,
            target,
            from_epoch,
            until_epoch,
            prob_ppm,
            magnitude,
            seed: d(6),
        });
    }
    ChaosCell { governor, arbiter, plan }
}

// ---------------------------------------------------------------------
// Cell execution.
// ---------------------------------------------------------------------

/// Runs one cell to completion and classifies it. Panics unwind no
/// further than this function: the run happens under `catch_unwind`, so
/// a panicking mechanism becomes an [`Outcome::Panic`] row in the
/// campaign table instead of a lost cell. Returns the finished system
/// (for report collection) unless the run panicked.
pub fn run_cell(cell: &ChaosCell, epochs: usize, seed: u64) -> (CellOutcome, Option<System>) {
    let plan = cell.plan.clone();
    let governor = cell.governor;
    let arbiter = cell.arbiter;
    let ran = catch_unwind(AssertUnwindSafe(move || {
        let mut cfg = SystemConfig::scaled_8core();
        cfg.governor = governor;
        cfg.arbiter = arbiter;
        // The checker classifies wedges; the watchdog's panic would
        // just turn every timeout into a noisier panic.
        cfg.watchdog_epochs = 0;
        cfg.invariants.enabled = true;
        cfg.invariants.bound_checks = true;
        cfg.invariants.liveness_epochs = LIVENESS_EPOCHS;
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, read_streamers(0, 2, seed))
            .class(1, read_streamers(1, 2, seed))
            .fault_plan(plan)
            .build()
            .expect("valid chaos configuration");
        let warm = epochs / 2;
        sys.run_epochs(warm + epochs);
        (sys, warm)
    }));
    match ran {
        Ok((sys, warm)) => {
            let report = classify(&sys, warm);
            (report, Some(sys))
        }
        Err(_) => (
            CellOutcome {
                outcome: Outcome::Panic,
                error_pct: 0.0,
                total_bpc: 0.0,
                faults: 0,
                degraded_epochs: 0,
                violations: 0,
                checks: 0,
            },
            None,
        ),
    }
}

/// Reads the run facts off a finished system and applies the
/// precedence rule.
fn classify(sys: &System, warm: usize) -> CellOutcome {
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, warm);
    let o1 = m.bw_series.mean_over(1, warm);
    let ec = m.bw_series.epoch_cycles() as f64;
    let error_pct = allocation_error_pct(&[3.0, 1.0], &[o0.max(1.0), o1.max(1.0)]);
    let total_bpc = (o0 + o1) / ec;
    let inv = sys.invariant_report();
    let epochs_run = m.bw_series.epochs();
    let tail_dead = epochs_run >= TAIL_EPOCHS
        && (epochs_run - TAIL_EPOCHS..epochs_run).all(|e| m.bw_series.epoch_total(e) < 0.5);
    let wedged = tail_dead && sys.has_pending_work();
    let faults = sys.faults_injected();
    let degraded_epochs = sys.degraded_epochs();
    CellOutcome {
        outcome: outcome_from_facts(
            inv.total_violations(),
            wedged,
            degraded_epochs,
            faults,
            error_pct,
        ),
        error_pct,
        total_bpc,
        faults,
        degraded_epochs,
        violations: inv.total_violations(),
        checks: inv.checks_run(),
    }
}

// ---------------------------------------------------------------------
// Experiment plumbing (grid / run / render).
// ---------------------------------------------------------------------

/// Expands the campaign grid: 64 cells under `--quick`, 96 full.
pub fn chaos_grid(quick: bool) -> Vec<Params> {
    let cells = if quick { QUICK_CELLS } else { FULL_CELLS };
    let epochs = if quick { QUICK_EPOCHS } else { FULL_EPOCHS };
    (0..cells)
        .map(|i| {
            let c = cell_descriptor(i);
            let mut cfg = SystemConfig::scaled_8core();
            cfg.governor = c.governor;
            cfg.arbiter = c.arbiter;
            Params::new(
                "chaos",
                format!("c{i:03}/{}/{}", c.mechanism(), c.plan_summary()),
                i,
                epochs,
            )
            .with_provenance(cfg.mechanism_hash(), c.plan.digest())
        })
        .collect()
}

/// Runs one campaign cell.
pub fn chaos_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let cell = cell_descriptor(p.index);
    let (r, sys) = run_cell(&cell, p.epochs, p.seed);
    if let Some(sys) = sys.as_ref() {
        ctx.report(sys);
    }
    ctx.finish(
        p,
        vec![
            ("outcome", r.outcome.code() as f64),
            ("error_pct", r.error_pct),
            ("bpc", r.total_bpc),
            ("faults", r.faults as f64),
            ("degraded", r.degraded_epochs as f64),
            ("violations", r.violations as f64),
            ("checks", r.checks as f64),
        ],
        Vec::new(),
    )
}

fn outcome_of(r: &ExperimentResult) -> Outcome {
    Outcome::from_code(r.metric("outcome") as u64)
}

/// Renders the campaign report: outcome tallies (with the CI-grepped
/// `unexpected` lines — failures outside the fixture), the full cell
/// table, and a shrunk repro plan for every failing cell (capped at
/// `MAX_SHRINK_CELLS`). Shrinking happens here, serially, by
/// re-deriving each failing cell from its index and re-running it under
/// candidate plans — renderers run after the sweep on one thread, so
/// the minimized plans are identical at any `--jobs` count.
pub fn chaos_render(results: &[ExperimentResult]) -> String {
    let mut counts = [0usize; 5];
    for r in results {
        counts[outcome_of(r).code() as usize] += 1;
    }
    let unexpected = |class: Outcome| {
        results.iter().filter(|r| r.params.index != FIXTURE_INDEX && outcome_of(r) == class).count()
    };
    let mut out = format!(
        "Chaos — seeded fault-plan campaign across the mechanism zoo\n\
         (campaign seed {CAMPAIGN_SEED:#018x}, {} cells; every cell re-derives from\n \
         its index; per-cell deadline is an epoch budget, never a wall clock;\n \
         cell c000 is the committed failure fixture and must violate liveness)\n\n",
        results.len()
    );
    out.push_str("outcomes:");
    for (class, n) in Outcome::ALL.iter().zip(counts) {
        out.push_str(&format!(" {}={n}", class.label()));
    }
    out.push('\n');
    out.push_str(&format!(
        "unexpected invariant violations: {}\n\
         unexpected panics: {}\n\
         unexpected timeouts: {}\n",
        unexpected(Outcome::InvariantViolation),
        unexpected(Outcome::Panic),
        unexpected(Outcome::Timeout),
    ));
    if let Some(fixture) = results.iter().find(|r| r.params.index == FIXTURE_INDEX) {
        out.push_str(&format!(
            "fixture outcome: {} (expected invariant-violation)\n",
            outcome_of(fixture).label()
        ));
    }
    out.push('\n');
    let mut t = Table::new(vec![
        "cell",
        "mechanism",
        "fault plan",
        "outcome",
        "alloc error %",
        "bpc",
        "faults",
        "degraded",
        "violations",
    ]);
    for r in results {
        let c = cell_descriptor(r.params.index);
        t.row(vec![
            format!("c{:03}", r.params.index),
            c.mechanism(),
            c.plan_summary(),
            outcome_of(r).label().into(),
            format!("{:.1}", r.metric("error_pct")),
            format!("{:.3}", r.metric("bpc")),
            format!("{}", r.metric("faults")),
            format!("{}", r.metric("degraded")),
            format!("{}", r.metric("violations")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&render_shrinks(results));
    out
}

fn render_shrinks(results: &[ExperimentResult]) -> String {
    let failing: Vec<&ExperimentResult> =
        results.iter().filter(|r| outcome_of(r).is_failure()).collect();
    if failing.is_empty() {
        return "\nshrunk repro plans: none (no failing cells)\n".to_string();
    }
    let mut out = "\nshrunk repro plans:\n".to_string();
    for (n, r) in failing.iter().enumerate() {
        if n >= MAX_SHRINK_CELLS {
            out.push_str(&format!(
                "  ({} more failing cells not shrunk this run)\n",
                failing.len() - MAX_SHRINK_CELLS
            ));
            break;
        }
        let cell = cell_descriptor(r.params.index);
        let want = outcome_of(r);
        let horizon = (r.params.epochs / 2 + r.params.epochs) as u64;
        let epochs = r.params.epochs;
        let seed = r.params.seed;
        let governor = cell.governor;
        let arbiter = cell.arbiter;
        let sr = shrink_plan(&cell.plan, horizon, SHRINK_ATTEMPTS, |candidate| {
            let probe = ChaosCell { governor, arbiter, plan: candidate.clone() };
            run_cell(&probe, epochs, seed).0.outcome == want
        });
        out.push_str(&format!(
            "  c{:03} [{}] {} spec(s) -> {} spec(s), {} oracle runs{}, plan digest {:#018x}:\n",
            r.params.index,
            want.label(),
            cell.plan.specs().len(),
            sr.plan.specs().len(),
            sr.attempts,
            if sr.hit_cap { " (budget capped)" } else { "" },
            sr.plan.digest(),
        ));
        for line in sr.plan.to_jsonl().lines() {
            out.push_str(&format!("    {line}\n"));
        }
        let quick = epochs <= QUICK_EPOCHS;
        out.push_str(&format!(
            "    repro: cargo run --release -p pabst-bench --bin chaos --{} --jobs 1\n",
            if quick { " --quick" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_codes_round_trip_and_order_failures_correctly() {
        for class in Outcome::ALL {
            assert_eq!(Outcome::from_code(class.code()), class);
        }
        assert!(Outcome::InvariantViolation.is_failure());
        assert!(Outcome::Panic.is_failure());
        assert!(Outcome::Timeout.is_failure());
        assert!(!Outcome::Clean.is_failure());
        assert!(!Outcome::Degraded.is_failure());
    }

    #[test]
    fn classification_precedence_is_violation_timeout_degraded_clean() {
        // A violation wins even when the run also wedged and degraded.
        assert_eq!(outcome_from_facts(1, true, 5, 10, 50.0), Outcome::InvariantViolation);
        // A wedge wins over degradation.
        assert_eq!(outcome_from_facts(0, true, 5, 10, 50.0), Outcome::Timeout);
        // The fail-safe engaging is degraded even at low error.
        assert_eq!(outcome_from_facts(0, false, 5, 10, 1.0), Outcome::Degraded);
        // Faults with envelope-busting error degrade without the fail-safe.
        assert_eq!(outcome_from_facts(0, false, 0, 10, 50.0), Outcome::Degraded);
        // Faults absorbed inside the envelope stay clean.
        assert_eq!(outcome_from_facts(0, false, 0, 10, 1.0), Outcome::Clean);
        assert_eq!(outcome_from_facts(0, false, 0, 0, 0.0), Outcome::Clean);
    }

    #[test]
    fn cell_derivation_is_pure_and_the_grid_indexes_line_up() {
        for quick in [true, false] {
            let grid = chaos_grid(quick);
            assert_eq!(grid.len(), if quick { QUICK_CELLS } else { FULL_CELLS });
            for (i, p) in grid.iter().enumerate() {
                assert_eq!(p.index, i);
                assert_eq!(p.experiment, "chaos");
            }
        }
        for i in 0..FULL_CELLS {
            let a = cell_descriptor(i);
            let b = cell_descriptor(i);
            assert_eq!(a.plan.specs(), b.plan.specs(), "cell {i} must re-derive identically");
            assert_eq!(a.mechanism(), b.mechanism());
        }
    }

    #[test]
    fn derived_plans_always_fire_and_never_trip_liveness_by_construction() {
        for i in 1..FULL_CELLS {
            let cell = cell_descriptor(i);
            let specs = cell.plan.specs();
            assert!((1..=3).contains(&specs.len()), "cell {i}: {} specs", specs.len());
            for s in specs {
                assert!(s.prob_ppm >= 10_000, "cell {i}: inert spec {s:?}");
                assert!(s.prob_ppm <= PPM_SCALE);
                if s.kind == FaultKind::McStall {
                    assert!(s.prob_ppm <= 200_000, "cell {i}: stall too hot {s:?}");
                    assert!(s.until_epoch != u64::MAX, "cell {i}: open stall window {s:?}");
                    let len = s.until_epoch - s.from_epoch + 1;
                    assert!(len <= 4, "cell {i}: stall window {len} epochs {s:?}");
                }
            }
        }
    }

    #[test]
    fn fixture_cell_violates_liveness_and_shrinks_to_the_single_stall() {
        let cell = cell_descriptor(FIXTURE_INDEX);
        assert_eq!(cell.plan.specs().len(), 3, "fixture ships with two decoys");
        let (r, sys) = run_cell(&cell, 8, 0);
        assert_eq!(r.outcome, Outcome::InvariantViolation, "{r:?}");
        assert!(r.violations > 0 && r.checks > 0);
        let sys = sys.expect("fixture run completes without panicking");
        assert!(sys.has_pending_work(), "the stalled controller still holds work");
        // The shrinker strips both decoys: only the permanent stall
        // reproduces the liveness violation.
        let sr = shrink_plan(&cell.plan, 12, SHRINK_ATTEMPTS, |candidate| {
            let probe = ChaosCell {
                governor: cell.governor,
                arbiter: cell.arbiter,
                plan: candidate.clone(),
            };
            run_cell(&probe, 8, 0).0.outcome == Outcome::InvariantViolation
        });
        assert!(
            sr.plan.specs().len() <= 2,
            "minimal repro must drop the decoys: {:?}",
            sr.plan.specs()
        );
        assert!(
            sr.plan.specs().iter().any(|s| s.kind == FaultKind::McStall),
            "the stall is the failure and must survive shrinking"
        );
    }

    #[test]
    fn a_derived_cell_runs_clean_or_degraded_without_violations() {
        let cell = cell_descriptor(1);
        let (r, sys) = run_cell(&cell, 8, 0);
        assert!(sys.is_some(), "derived cells must not panic");
        assert_eq!(r.violations, 0, "{r:?}");
        assert!(r.checks > 0, "checker must have been live");
        assert!(
            matches!(r.outcome, Outcome::Clean | Outcome::Degraded),
            "derived cell 1 outcome: {:?}",
            r.outcome
        );
    }
}
