//! The fault-injection contract, end to end: fault decisions are a pure
//! function of the plan (so a faulted sweep is byte-identical at any
//! `--jobs` count), plans round-trip through their JSONL schema, and a
//! panicking grid cell degrades to a failure record — never a dead sweep
//! or a truncated report.

use pabst_bench::harness::{run_sweep, Experiment, ExperimentResult, Params, RunCtx, SweepOutput};
use pabst_bench::obs::CliArgs;
use pabst_bench::registry;
use pabst_cpu::Workload;
use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec, PPM_SCALE};
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{Region, StreamGen};

/// A traced `--quick --jobs <jobs>` sweep (the trace stays buffered in
/// the output; only `run_cli` writes the file).
fn sweep(name: &str, jobs: usize) -> SweepOutput {
    let exp = registry::find(name).expect("registered experiment");
    let trace = Some("trace.jsonl".to_string());
    run_sweep(exp, &CliArgs { quick: true, jobs: Some(jobs), trace, ..CliArgs::default() })
}

#[test]
fn faulted_sweep_is_byte_identical_across_jobs() {
    // The resilience grid injects every fault kind (SAT drop/corrupt,
    // epoch skew, credit leak, MC stall windows). Each injection decision
    // is a stateless draw keyed by (seed, kind, target, epoch), so the
    // worker schedule must not be able to change any outcome.
    let serial = sweep("resilience", 1);
    let parallel = sweep("resilience", 4);
    assert_eq!(serial.rendered, parallel.rendered, "rendered table depends on --jobs");
    assert_eq!(serial.trace, parallel.trace, "merged trace JSONL depends on --jobs");
    assert_eq!(serial.reports, parallel.reports, "merged report JSON depends on --jobs");
    assert!(serial.failures.is_empty(), "the resilience grid must survive its own faults");
    assert!(serial.rendered.contains("sat-drop/0ppm"), "healthy reference row present");
}

#[test]
fn fault_plans_round_trip_through_jsonl() {
    let mut plan = FaultPlan::new();
    for (i, kind) in FaultKind::ALL.iter().enumerate() {
        plan.push(FaultSpec {
            kind: *kind,
            target: i as u64,
            from_epoch: i as u64,
            until_epoch: 40 + i as u64,
            prob_ppm: (i as u64 + 1) * 1_000,
            magnitude: i as u64 * 7,
            seed: 0xFEED ^ i as u64,
        });
    }
    let text = plan.to_jsonl();
    let back = FaultPlan::parse(&text).expect("schema round-trips");
    assert_eq!(back.specs(), plan.specs());
    assert_eq!(back.to_jsonl(), text, "serialization is canonical");
}

// A deliberately flaky experiment: four cells, the third panics. Must be
// a plain fn table (no closures) because `Experiment` holds fn pointers.
fn flaky_grid(_quick: bool) -> Vec<Params> {
    (0..4).map(|i| Params::new("flaky_it", format!("cell{i}"), i, 1)).collect()
}

fn flaky_run(p: &Params, ctx: RunCtx) -> ExperimentResult {
    assert!(p.index != 2, "injected panic in cell {}", p.index);
    ctx.finish(p, vec![("v", p.index as f64)], Vec::new())
}

fn flaky_render(results: &[ExperimentResult]) -> String {
    let vs: Vec<String> = results.iter().map(|r| format!("{}", r.metric("v"))).collect();
    format!("flaky_it: {}\n", vs.join(" "))
}

const FLAKY: Experiment = Experiment {
    name: "flaky_it",
    title: "integration fixture: one cell panics",
    grid: flaky_grid,
    run: flaky_run,
    render: flaky_render,
};

#[test]
fn panicking_cell_yields_failure_record_and_complete_report() {
    for jobs in [1, 3] {
        let args = CliArgs { quick: true, jobs: Some(jobs), no_skip: true, ..CliArgs::default() };
        let out = run_sweep(&FLAKY, &args);
        assert_eq!(out.failures.len(), 1, "exactly the injected failure (jobs={jobs})");
        let f = &out.failures[0];
        assert_eq!(f.params.config, "cell2");
        assert!(f.panic.contains("injected panic in cell 2"), "{}", f.panic);
        let repro = f.repro(FLAKY.name, &args);
        assert!(repro.contains("--jobs 1"), "repro pins one worker");
        assert!(repro.ends_with(" --quick --no-skip"), "repro keeps the sweep's flags: {repro}");
        assert!(out.rendered.contains(&repro), "{}", out.rendered);
        // The surviving cells still render, and the failure is visible.
        assert!(out.rendered.starts_with("flaky_it: 0 1 3\n"), "{}", out.rendered);
        assert!(out.rendered.contains("FAILED flaky_it/cell2 (seed 0):"), "{}", out.rendered);
        // The merged report carries a machine-readable failure line in the
        // failed cell's submission-order slot.
        let failed: Vec<&str> =
            out.reports.lines().filter(|l| l.contains("\"failed\":true")).collect();
        assert_eq!(failed.len(), 1, "{}", out.reports);
        assert!(
            failed[0].starts_with("{\"experiment\":\"flaky_it\",\"config\":\"cell2\",\"seed\":0,"),
            "{}",
            failed[0]
        );
    }
}

/// One measured run of the small machine under streaming load, with an
/// optional certain two-epoch MC-stall window inside the measurement.
fn util_probe(stall: bool) -> (f64, u64) {
    let cfg = SystemConfig::small_test();
    let streams = |salt: u64| -> Vec<Box<dyn Workload>> {
        (0..2).map(|i| Box::new(StreamGen::reads(Region::new(0, 1 << 16), salt + i)) as _).collect()
    };
    let mut b =
        SystemBuilder::new(cfg, RegulationMode::Pabst).class(3, streams(30)).class(1, streams(130));
    if stall {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::McStall,
            target: 0,
            from_epoch: 2,
            until_epoch: 3,
            prob_ppm: PPM_SCALE,
            magnitude: 0,
            seed: 0,
        });
        b = b.fault_plan(plan);
    }
    let mut sys = b.build().expect("probe config");
    sys.run_epochs(1);
    sys.mark_measurement();
    sys.run_epochs(4);
    (sys.bus_utilization_since_mark(), sys.stalled_mc_cycles_since_mark())
}

#[test]
fn bus_utilization_denominator_excludes_stalled_controller_cycles() {
    // Regression pin: a controller frozen by an mc-stall fault cannot
    // transfer, so counting its frozen cycles in the utilization window
    // halves the reported figure for a half-stalled window. The metric
    // must divide by live controller-cycles only.
    let (util_clean, stalled_clean) = util_probe(false);
    let (util_faulted, stalled_faulted) = util_probe(true);
    let epoch_cycles = SystemConfig::small_test().epoch_cycles;
    assert_eq!(stalled_clean, 0, "no fault plan, no stalled cycles");
    assert_eq!(stalled_faulted, 2 * epoch_cycles, "certain two-epoch window, one MC");
    assert!(util_clean > 0.2, "streamers must keep the bus visibly busy: {util_clean}");
    // Over live cycles the faulted run streams like the clean one. With
    // the stalled half of the window wrongly left in the denominator the
    // figure would collapse to ~util_clean/2 and this bound would trip.
    assert!(
        util_faulted > util_clean * 0.7,
        "stalled cycles leaked into the denominator: {util_faulted} vs clean {util_clean}"
    );
}

#[test]
fn all_zero_probability_plan_never_fires() {
    // The byte-identity acceptance criterion in miniature: a plan whose
    // specs all carry probability zero makes no draws and fires nowhere.
    let mut plan = FaultPlan::new();
    for kind in FaultKind::ALL {
        plan.push(FaultSpec {
            kind,
            target: 0,
            from_epoch: 0,
            until_epoch: u64::MAX,
            prob_ppm: 0,
            magnitude: 3,
            seed: 9,
        });
    }
    assert!(plan.is_inert());
    for kind in FaultKind::ALL {
        for epoch in 0..64 {
            assert!(!plan.fires(kind, 0, epoch));
            assert_eq!(plan.magnitude(kind, 0, epoch), None);
        }
    }
    // And a certain spec (prob == PPM_SCALE) fires on every in-window epoch.
    let certain = FaultSpec {
        kind: FaultKind::McStall,
        target: 1,
        from_epoch: 2,
        until_epoch: 5,
        prob_ppm: PPM_SCALE,
        magnitude: 0,
        seed: 0,
    };
    for epoch in 0..8 {
        assert_eq!(certain.fires(epoch), (2..=5).contains(&epoch));
    }
}
