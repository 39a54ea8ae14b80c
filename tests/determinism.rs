//! The parallel-sweep determinism contract, end to end: running a
//! two-figure sweep on one worker and on four oversubscribed workers
//! (this may be a single-core CI box — `--jobs` is honored exactly so
//! the schedules really differ) must produce byte-identical rendered
//! output, trace JSONL, and report JSON.
//!
//! This is the acceptance test for `bench::harness`: if a cell leaks
//! state across threads, or results merge in completion order instead of
//! submission order, these comparisons fail.

use pabst_bench::harness::{run_sweep, SweepOutput};
use pabst_bench::obs::CliArgs;
use pabst_bench::registry;

/// A traced `--quick --jobs <jobs>` sweep (the trace stays buffered in
/// the output; only `run_cli` writes the file).
fn sweep(name: &str, jobs: usize) -> SweepOutput {
    let exp = registry::find(name).expect("registered experiment");
    let trace = Some("trace.jsonl".to_string());
    run_sweep(exp, &CliArgs { quick: true, jobs: Some(jobs), trace, ..CliArgs::default() })
}

#[test]
fn two_figure_sweep_is_byte_identical_across_jobs() {
    // fig01 has a 4-cell grid (real parallelism), fig08 a 1-cell grid
    // (serial fast path) — together they cover both executor paths.
    for name in ["fig01", "fig08"] {
        let serial = sweep(name, 1);
        let parallel = sweep(name, 4);
        assert_eq!(
            serial.rendered, parallel.rendered,
            "{name}: rendered output must not depend on --jobs"
        );
        assert_eq!(
            serial.trace, parallel.trace,
            "{name}: merged trace JSONL must not depend on --jobs"
        );
        assert_eq!(
            serial.reports, parallel.reports,
            "{name}: merged report JSON must not depend on --jobs"
        );
        assert!(!serial.rendered.is_empty(), "{name}: sweep rendered something");
        assert!(!serial.trace.is_empty(), "{name}: tracing was on, records were buffered");
        assert!(!serial.reports.is_empty(), "{name}: every run reported");
    }
}

#[test]
fn repeated_parallel_runs_agree_with_themselves() {
    let a = sweep("fig01", 3);
    let b = sweep("fig01", 3);
    assert_eq!(a.rendered, b.rendered);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.reports, b.reports);
}

#[test]
fn reports_are_tagged_with_experiment_config_and_seed() {
    let out = sweep("fig01", 2);
    for line in out.reports.lines() {
        assert!(line.starts_with("{\"experiment\":\"fig01\",\"config\":\""), "{line}");
        assert!(line.contains("\"seed\":0,"), "{line}");
    }
    // Cells appear in grid (submission) order regardless of scheduling.
    let exp = registry::find("fig01").unwrap();
    let grid = (exp.grid)(true);
    let mut lines = out.reports.lines();
    for cell in &grid {
        let line = lines.next().expect("one report per cell");
        let key = format!("\"config\":\"{}\"", cell.config);
        assert!(line.contains(&key), "expected {key} in {line}");
    }
}

#[test]
fn trace_records_parse_and_are_grouped_by_cell() {
    let out = sweep("fig08", 2);
    let mut epochs_seen = 0usize;
    for line in out.trace.lines() {
        let rec = pabst_simkit::trace::parse_line(line).expect("valid epoch record");
        assert_eq!(rec.epoch as usize, epochs_seen, "records stay in emission order");
        epochs_seen += 1;
    }
    assert!(epochs_seen > 0, "fig08 traced at least one epoch");
}

#[test]
fn cli_filter_selects_and_jobs_parse() {
    let argv: Vec<String> =
        ["--quick", "--jobs", "4", "--filter", "fig01"].iter().map(|s| s.to_string()).collect();
    let args = CliArgs::parse_from(&argv).expect("valid args");
    assert!(args.quick);
    assert_eq!(args.jobs, Some(4));
    assert_eq!(args.filter.as_deref(), Some("fig01"));
}
