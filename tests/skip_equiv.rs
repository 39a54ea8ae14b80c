//! The cycle-skipping correctness contract, end to end: for every cell of
//! a (configuration × workload × fault plan) matrix, a run with
//! event-horizon fast-forward enabled and one stepped naively must emit
//! byte-identical report JSON and trace JSONL, finish on the same cycle,
//! and retire the same instructions — the skip is an execution strategy,
//! never a model change.
//!
//! The matrix deliberately covers the paths where a wrong horizon would
//! diverge: every regulation mode (pacer reprogramming on and off),
//! pointer-chasing memory stalls (the deepest quiescent windows), write
//! drains, MSHR-full refusals of store-heavy traffic and of read streams
//! below the core's MLP bound (tiles blocked on a release must park
//! there), misses waiting on an exhausted L3 MSHR table, saturated
//! controllers whose one-entry ingress refuses the drain nearly every
//! cycle (the reject count must match too), skewed-controller traffic,
//! per-MC regulation, L3-way overrides, an armed liveness window, the
//! distance-modelled mesh network at 64 and 256 tiles (staged link
//! arbitration), idle-heavy mesh mixes where tile-local parking (not the
//! global jump) does the work, partial skip under the DPQ arbiter (some
//! tiles parked while others keep the controllers live), and each fault
//! kind — including the required mc-stall window (a frozen controller
//! must contribute no horizon events and take no occupancy samples, not
//! even the ones a global jump accrues) and epoch-skew cell (stale pacer
//! periods must throttle identically across a skip).

use std::cell::RefCell;
use std::rc::Rc;

use pabst_cpu::Workload;
use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec, PPM_SCALE};
use pabst_simkit::trace::{EpochRecord, TraceSink};
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::report::SystemReport;
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{ChaserGen, Region, SkewedStreamGen, StreamGen};

/// Captures the trace exactly as a JSONL file would store it.
#[derive(Debug, Clone, Default)]
struct Jsonl(Rc<RefCell<String>>);

impl TraceSink for Jsonl {
    fn record(&mut self, rec: &EpochRecord) {
        let mut s = self.0.borrow_mut();
        s.push_str(&rec.to_json());
        s.push('\n');
    }
}

fn region() -> Region {
    Region::new(0, 1 << 16)
}

fn streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(StreamGen::reads(region(), salt + i as u64)) as _).collect()
}

/// Read streamers over disjoint regions, so they share no lines and
/// every miss goes to memory.
fn private_streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            let seed = salt + i as u64;
            Box::new(StreamGen::reads(Region::new(seed << 32, 1 << 16), seed)) as _
        })
        .collect()
}

fn write_streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(StreamGen::writes(region(), salt + i as u64)) as _).collect()
}

fn compute_streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| Box::new(StreamGen::reads(region(), salt + i as u64).with_compute(8)) as _)
        .collect()
}

fn chasers(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(ChaserGen::new(region(), 4, salt + i as u64)) as _).collect()
}

fn skewed(n: usize, mcs: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(SkewedStreamGen::new(region(), 0, mcs, salt + i as u64)) as _).collect()
}

fn window(kind: FaultKind, target: u64, from: u64, until: u64, magnitude: u64) -> FaultSpec {
    FaultSpec {
        kind,
        target,
        from_epoch: from,
        until_epoch: until,
        prob_ppm: PPM_SCALE,
        magnitude,
        seed: 11,
    }
}

fn always(kind: FaultKind, target: u64, magnitude: u64) -> FaultSpec {
    window(kind, target, 0, u64::MAX, magnitude)
}

fn plan(specs: impl IntoIterator<Item = FaultSpec>) -> FaultPlan {
    let mut p = FaultPlan::new();
    for s in specs {
        p.push(s);
    }
    p
}

/// One matrix cell: a name and a builder factory (called once per A/B arm
/// because workload boxes are single-use).
type Cell = (&'static str, Box<dyn Fn() -> SystemBuilder>);

fn cells() -> Vec<Cell> {
    let small = SystemConfig::small_test;
    let two_mc = || {
        let mut c = SystemConfig::small_test();
        c.mcs = 2;
        c
    };
    let cell = |name: &'static str, mk: Box<dyn Fn() -> SystemBuilder>| (name, mk);
    vec![
        cell(
            "pabst/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 0))
                    .class(1, streams(2, 100))
            }),
        ),
        cell(
            "none/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::None)
                    .class(3, streams(2, 1))
                    .class(1, streams(2, 101))
            }),
        ),
        cell(
            "source-only/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::SourceOnly)
                    .class(3, streams(2, 2))
                    .class(1, streams(2, 102))
            }),
        ),
        cell(
            "target-only/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::TargetOnly)
                    .class(3, streams(2, 3))
                    .class(1, streams(2, 103))
            }),
        ),
        cell(
            "pabst/chasers",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst).class(1, chasers(2, 4))
            }),
        ),
        cell(
            "pabst/chasers-vs-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, chasers(2, 5))
                    .class(1, streams(2, 105))
            }),
        ),
        cell(
            "pabst/write-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, write_streams(2, 6))
                    .class(1, streams(2, 106))
            }),
        ),
        cell(
            "pabst/compute-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, compute_streams(2, 7))
                    .class(1, chasers(1, 107))
            }),
        ),
        cell(
            "pabst/skewed-two-mc",
            Box::new(move || {
                SystemBuilder::new(two_mc(), RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 8))
                    .class(1, streams(2, 108))
            }),
        ),
        cell(
            "per-mc-regulation/streams",
            Box::new(move || {
                let mut c = two_mc();
                c.per_mc_regulation = true;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 9))
                    .class(1, streams(2, 109))
            }),
        ),
        cell(
            "per-mc-regulation/write-streams-2-mshrs",
            Box::new(move || {
                // Two L2 MSHRs under store-heavy traffic: cores run their
                // MSHRs full, so refused accesses wait for a fill and are
                // merged back, in both arms, while per-MC pacers throttle.
                let mut c = two_mc();
                c.per_mc_regulation = true;
                c.l2_mshrs = 2;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, write_streams(2, 34))
                    .class(1, streams(2, 134))
            }),
        ),
        cell(
            "blocked-loads/read-streams-4-mshrs",
            Box::new(move || {
                // Four L2 MSHRs under the core's sixteen load slots: read
                // streams are refused below the MLP bound, so blocked loads
                // (not only stores) wait for a release in the skip arm.
                let mut c = small();
                c.l2_mshrs = 4;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, private_streams(2, 35))
                    .class(1, streams(2, 135))
            }),
        ),
        cell(
            "scaled-8core/streams",
            Box::new(move || {
                let mut c = SystemConfig::scaled_8core();
                c.epoch_cycles = 4_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 10))
                    .class(1, chasers(2, 110))
            }),
        ),
        cell(
            "l3-ways-override/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 12))
                    .l3_ways(0, 4)
                    .class(1, streams(2, 112))
                    .l3_ways(4, 12)
            }),
        ),
        cell(
            "liveness-armed/streams",
            Box::new(move || {
                let mut c = small();
                c.invariants.liveness_epochs = 5;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 13))
                    .class(1, streams(2, 113))
            }),
        ),
        cell(
            "l3-mshr-exhaustion",
            Box::new(move || {
                // An L3 MSHR table far smaller than the streams' misses in
                // flight: refused misses queue in `mshr_wait` and retry as
                // entries free, which keeps the horizon's `mshr_wait`
                // check answering in both arms.
                let mut c = SystemConfig::baseline_32core();
                c.l3_mshrs = 8;
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 35))
                    .class(1, streams(2, 135))
            }),
        ),
        cell(
            "saturated-mc/ingress-1",
            Box::new(move || {
                // One-entry controller ingress under 32 streamers over
                // disjoint regions: a busy controller refuses the drain
                // nearly every cycle (about two rejects per cycle across
                // the machine), so its staging queue backs up and the
                // reject counter climbs next to controllers the streams
                // leave idle.
                let mut c = SystemConfig::baseline_32core();
                c.dram.ingress_cap = 1;
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, private_streams(16, 36))
                    .class(1, private_streams(16, 136))
            }),
        ),
        cell(
            "mesh-64/streams",
            Box::new(move || {
                // The distance-modelled mesh: staged requests behind a
                // bounded controller link must still report exact horizons.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 23))
                    .class(1, chasers(2, 123))
            }),
        ),
        cell(
            "mesh-256x16/streams",
            Box::new(move || {
                let mut c = SystemConfig::mesh_256x16();
                c.epoch_cycles = 1_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 24))
                    .class(1, streams(2, 124))
            }),
        ),
        cell(
            "mesh-64/idle-heavy",
            Box::new(move || {
                // Mostly-wedged mesh: every declared tile walks a
                // dependence chain, so tile-local parking (not the global
                // jump) carries almost all of the elided work while the
                // network and controllers step naively underneath.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 30))
                    .class(1, chasers(2, 130))
            }),
        ),
        cell(
            "mesh-256x16/idle-heavy",
            Box::new(move || {
                let mut c = SystemConfig::mesh_256x16();
                c.epoch_cycles = 1_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 31))
                    .class(1, chasers(2, 131))
            }),
        ),
        cell(
            "fault/mc-stall-tile-local",
            Box::new(move || {
                // A frozen mesh controller while tiles park locally: the
                // stalled MC must never be parked (its queues are live but
                // inert) and waking tiles must see identical fill timing.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 32))
                    .class(1, streams(2, 132))
                    .fault_plan(plan([window(FaultKind::McStall, 2, 1, 3, 0)]))
            }),
        ),
        cell(
            "mechanism/dpq-partial-skip",
            Box::new(move || {
                // Partial skip under the DPQ arbiter: chasing tiles park
                // while streaming tiles keep the controllers busy, so the
                // machine never fully quiesces and only tile-local
                // fast-forward is in play.
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 33))
                    .class(1, streams(2, 133))
            }),
        ),
        cell(
            "per-mc-regulation/mc-stall-fault",
            Box::new(move || {
                // Per-controller SAT loops while one controller freezes: the
                // stalled MC must vanish from the horizon without desyncing
                // its sibling's regulation window.
                let mut c = two_mc();
                c.per_mc_regulation = true;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 25))
                    .class(1, streams(2, 125))
                    .fault_plan(plan([window(FaultKind::McStall, 1, 1, 3, 0)]))
            }),
        ),
        // Mechanism-zoo cells: every competing governor/arbiter behind the
        // trait seams must uphold the same byte-identity contract as the
        // paper's default pair — a mechanism whose horizon lies would
        // diverge here.
        cell(
            "mechanism/lms-ar-governor",
            Box::new(move || {
                let mut c = small();
                c.governor = pabst_core::governor::GovernorKind::LmsAr;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 26))
                    .class(1, streams(2, 126))
            }),
        ),
        cell(
            "mechanism/per-bank-arbiter",
            Box::new(move || {
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::PerBank;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 27))
                    .class(1, chasers(2, 127))
            }),
        ),
        cell(
            "mechanism/dpq-arbiter",
            Box::new(move || {
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 28))
                    .class(1, streams(2, 128))
            }),
        ),
        cell(
            "mechanism/lms-ar-dpq-combined",
            Box::new(move || {
                let mut c = small();
                c.governor = pabst_core::governor::GovernorKind::LmsAr;
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, write_streams(2, 29))
                    .class(1, streams(2, 129))
            }),
        ),
        // Fault cells: the plan must observe the identical epoch/boundary
        // sequence in both arms for these to match.
        cell(
            "fault/mc-stall-window",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 14))
                    .class(1, streams(2, 114))
                    .fault_plan(plan([window(FaultKind::McStall, 0, 1, 2, 0)]))
            }),
        ),
        cell(
            "fault/mc-stall-chasers",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(1, chasers(2, 15))
                    .fault_plan(plan([window(FaultKind::McStall, 0, 2, 3, 0)]))
            }),
        ),
        cell(
            "fault/epoch-skew",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 16))
                    .class(1, streams(2, 116))
                    .fault_plan(plan([always(FaultKind::EpochSkew, 0, 0)]))
            }),
        ),
        cell(
            "fault/credit-leak",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 17))
                    .class(1, streams(2, 117))
                    .fault_plan(plan([always(FaultKind::CreditLeak, 1, 10_000)]))
            }),
        ),
        cell(
            "fault/sat-drop",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 18))
                    .class(1, streams(2, 118))
                    .fault_plan(plan([always(FaultKind::SatDrop, 0, 0)]))
            }),
        ),
        cell(
            "fault/sat-delay",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 19))
                    .class(1, streams(2, 119))
                    .fault_plan(plan([always(FaultKind::SatDelay, 0, 2)]))
            }),
        ),
        cell(
            "fault/combined",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 20))
                    .class(1, chasers(2, 120))
                    .fault_plan(plan([
                        always(FaultKind::EpochSkew, 0, 0),
                        always(FaultKind::CreditLeak, 1, 5_000),
                        window(FaultKind::McStall, 0, 3, 4, 0),
                        always(FaultKind::SatCorrupt, 0, 0),
                    ]))
            }),
        ),
    ]
}

/// One arm's observables: the artifacts and counters the two arms must
/// agree on, plus the skip counters.
struct Arm {
    report: String,
    trace: String,
    now: u64,
    rejects: u64,
    /// Cycles elided by global jumps.
    skipped: u64,
    /// Tile-cycles elided by tile-local parking (global jumps included).
    tiles_parked: u64,
    tiles: u64,
}

/// Runs one arm of a cell: warmup, measurement window, then every
/// observable artifact plus the skip and reject counters.
fn run_arm(mk: &dyn Fn() -> SystemBuilder, skip: bool) -> Arm {
    let mut sys = mk().skip(skip).build().expect("matrix cell must build");
    let trace = Jsonl::default();
    sys.add_trace_sink(Box::new(trace.clone()));
    sys.run_epochs(2);
    sys.mark_measurement();
    sys.run_epochs(4);
    let report = SystemReport::collect(&sys).to_json();
    let trace = trace.0.borrow().clone();
    Arm {
        report,
        trace,
        now: sys.now(),
        rejects: sys.ingress_rejects(),
        skipped: sys.cycles_skipped(),
        tiles_parked: sys.tile_cycles_skipped(),
        tiles: sys.tiles().len() as u64,
    }
}

/// Cells whose tiles spend most cycles with every access refused: the
/// skip arm must park them for most of the run, or the cell compares two
/// near-naive runs.
const BLOCKED_PARK_CELLS: [&str; 2] =
    ["per-mc-regulation/write-streams-2-mshrs", "blocked-loads/read-streams-4-mshrs"];

#[test]
fn every_matrix_cell_is_byte_identical_across_skip_modes() {
    let mut total_skipped = 0u64;
    let mut total_cycles = 0u64;
    for (name, mk) in cells() {
        let s = run_arm(mk.as_ref(), true);
        let n = run_arm(mk.as_ref(), false);
        assert_eq!(s.report, n.report, "{name}: report JSON diverged");
        assert_eq!(s.trace, n.trace, "{name}: trace JSONL diverged");
        assert_eq!(s.now, n.now, "{name}: final cycle diverged");
        assert_eq!(s.rejects, n.rejects, "{name}: ingress rejects diverged");
        assert_eq!((n.skipped, n.tiles_parked), (0, 0), "{name}: naive arm must not skip");
        assert!(!s.trace.is_empty(), "{name}: trace must not be empty");
        if BLOCKED_PARK_CELLS.contains(&name) {
            let tile_cycles = s.now * s.tiles;
            assert!(
                s.tiles_parked * 2 > tile_cycles,
                "{name}: blocked tiles must park: {} of {tile_cycles} tile-cycles",
                s.tiles_parked
            );
        }
        total_skipped += s.skipped;
        total_cycles += s.now;
    }
    assert!(
        total_skipped > total_cycles / 20,
        "the matrix must exercise real skipping: {total_skipped} of {total_cycles} cycles"
    );
}

#[test]
fn pointer_chasing_skips_most_of_its_cycles() {
    // The perf motivation in miniature: dependent-load chains leave the
    // whole machine quiescent for most of each miss latency.
    let mk = || {
        SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
            .class(1, chasers(2, 21))
    };
    let Arm { now, skipped, .. } = run_arm(&mk, true);
    assert!(
        skipped > now / 4,
        "chaser workloads must fast-forward a large fraction: {skipped} of {now}"
    );
}

#[test]
fn trace_lines_from_a_skipping_run_parse_cleanly() {
    let mk = || {
        SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
            .class(3, streams(2, 22))
            .class(1, chasers(1, 122))
    };
    let Arm { report, trace, .. } = run_arm(&mk, true);
    for line in trace.lines() {
        let _ = pabst_simkit::trace::parse_line(line).expect("valid epoch record");
    }
    assert!(
        !report.contains("cycles_skipped") && !trace.contains("cycles_skipped"),
        "the skip counter is diagnostic-only and must never leak into artifacts"
    );
}
