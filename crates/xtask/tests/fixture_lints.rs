//! Drives every `tests/fixtures/*.rs` file through `lint_source` and checks
//! that each rule fires where intended — and stays quiet where suppressed.
//!
//! The fixtures live under `tests/fixtures/` precisely so the workspace walk
//! skips them: they violate the rules on purpose.

use xtask::{lint_files, lint_source, Diagnostic, FileSpec, SourceFile};

fn lint_fixture(crate_name: &str, rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let spec = FileSpec { crate_name, rel_path, is_test: false };
    lint_source(&spec, source)
}

/// A fixture file for the full (cross-file) pipeline.
fn sf(crate_name: &str, rel_path: &str, source: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.to_string(),
        rel_path: rel_path.to_string(),
        is_test: false,
        source: source.to_string(),
    }
}

fn lines_for(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn hash_map_fixture_flags_every_use() {
    let diags =
        lint_fixture("cache", "crates/cache/src/fixture.rs", include_str!("fixtures/hash_map.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_HASH_MAP), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_HASH_MAP), vec![3, 4, 7, 8]);
}

#[test]
fn nondet_fixture_flags_clock_and_entropy() {
    let diags = lint_fixture(
        "workloads",
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/nondet.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_NONDET), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_NONDET), vec![3, 6, 7, 12]);
}

#[test]
fn nondet_fixture_is_clean_in_bench_crate() {
    let diags =
        lint_fixture("bench", "crates/bench/src/fixture.rs", include_str!("fixtures/nondet.rs"));
    assert!(diags.is_empty(), "bench is exempt from nondet: {diags:?}");
}

#[test]
fn float_fixture_flags_datapath_floats() {
    let diags =
        lint_fixture("core", "crates/core/src/pacer.rs", include_str!("fixtures/float_math.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_FLOAT_MATH), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_FLOAT_MATH).len(), 3);
}

#[test]
fn float_fixture_is_clean_outside_datapath_files() {
    let diags =
        lint_fixture("core", "crates/core/src/governor.rs", include_str!("fixtures/float_math.rs"));
    assert!(
        !diags.iter().any(|d| d.rule == xtask::RULE_FLOAT_MATH),
        "governor.rs is not in the float-free set: {diags:?}"
    );
}

#[test]
fn float_fixture_flags_simkit_trace_module() {
    let diags = lint_fixture(
        "simkit",
        "crates/simkit/src/trace.rs",
        include_str!("fixtures/float_math.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_FLOAT_MATH), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_FLOAT_MATH).len(), 3);
}

#[test]
fn float_fixture_is_clean_in_other_simkit_files() {
    let diags = lint_fixture(
        "simkit",
        "crates/simkit/src/stats.rs",
        include_str!("fixtures/float_math.rs"),
    );
    assert!(
        !diags.iter().any(|d| d.rule == xtask::RULE_FLOAT_MATH),
        "stats.rs keeps its f64 summaries: {diags:?}"
    );
}

#[test]
fn unwrap_fixture_flags_panicking_extractors_only() {
    let diags =
        lint_fixture("simkit", "crates/simkit/src/fixture.rs", include_str!("fixtures/unwrap.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_UNWRAP), "{diags:?}");
    // unwrap() on line 5 and expect() on line 9; unwrap_or() on 13 is fine.
    assert_eq!(lines_for(&diags, xtask::RULE_UNWRAP), vec![5, 9]);
}

#[test]
fn missing_docs_fixture_flags_bare_pub_fns() {
    let diags = lint_fixture(
        "core",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/missing_docs.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_MISSING_DOCS), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_MISSING_DOCS), vec![8, 13]);
}

#[test]
fn thread_fixture_flags_spawns_outside_the_harness() {
    let diags =
        lint_fixture("soc", "crates/soc/src/fixture.rs", include_str!("fixtures/thread_use.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_THREAD), "{diags:?}");
    // `use std::thread`, `thread::spawn`, `std::thread::scope`; the
    // justified allow silences `sanctioned()` and plain identifiers
    // containing "thread" never match.
    assert_eq!(lines_for(&diags, xtask::RULE_THREAD), vec![3, 6, 11]);
}

#[test]
fn thread_fixture_in_the_harness_file_reports_only_the_stale_allow() {
    // The sweep executor may use std::thread, so the fixture's
    // allow(thread) suppresses nothing — strict hygiene reports exactly
    // that, and nothing else.
    let diags = lint_fixture(
        "bench",
        "crates/bench/src/harness.rs",
        include_str!("fixtures/thread_use.rs"),
    );
    assert_eq!(lines_for(&diags, xtask::RULE_UNUSED_SUPPRESSION), vec![17]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn fault_rng_fixture_flags_direct_draws() {
    let diags =
        lint_fixture("soc", "crates/soc/src/fixture.rs", include_str!("fixtures/fault_rng.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_FAULT_RNG), "{diags:?}");
    // The `use`, both signatures naming SimRng, and both draw calls; the
    // justified allow silences `sanctioned()` and `gen_bool_count` on the
    // lookalike line never matches.
    assert_eq!(lines_for(&diags, xtask::RULE_FAULT_RNG), vec![3, 5, 6, 9, 10]);
}

#[test]
fn fault_rng_fixture_is_clean_in_simkit_and_workloads() {
    for (krate, path) in [
        ("simkit", "crates/simkit/src/fixture.rs"),
        ("workloads", "crates/workloads/src/fixture.rs"),
    ] {
        let diags = lint_fixture(krate, path, include_str!("fixtures/fault_rng.rs"));
        assert!(
            !diags.iter().any(|d| d.rule == xtask::RULE_FAULT_RNG),
            "{krate} hosts/seeds RNG legitimately: {diags:?}"
        );
    }
}

#[test]
fn horizon_fixture_flags_per_cycle_state() {
    let diags =
        lint_fixture("soc", "crates/soc/src/fixture.rs", include_str!("fixtures/horizon.rs"));
    assert!(diags.iter().all(|d| d.rule == xtask::RULE_HORIZON), "{diags:?}");
    // The naive `now += 1` loop, both per-cycle sample calls, and both
    // per-cycle counters; the justified allow silences `audited()` and
    // identifiers merely containing "sample" never match.
    assert_eq!(lines_for(&diags, xtask::RULE_HORIZON), vec![7, 12, 13, 17, 18]);
}

#[test]
fn horizon_exemption_is_structural_not_a_file_list() {
    // A file that defines its own `next_event` surface steps per cycle
    // by design — the skip loop can bound it.
    let diags = lint_fixture(
        "dram",
        "crates/dram/src/controller.rs",
        include_str!("fixtures/horizon_exempt.rs"),
    );
    assert!(diags.is_empty(), "files defining next_event are exempt: {diags:?}");
    // The same path without that surface is no longer grandfathered:
    // there is no HORIZON_AUDITED_FILES list to hide behind.
    let diags =
        lint_fixture("dram", "crates/dram/src/controller.rs", include_str!("fixtures/horizon.rs"));
    assert_eq!(lines_for(&diags, xtask::RULE_HORIZON), vec![7, 12, 13, 17, 18]);
    // Harness crates stay out of scope — and then the fixture's
    // allow(horizon) suppresses nothing, which strict hygiene reports.
    let diags =
        lint_fixture("bench", "crates/bench/src/fixture.rs", include_str!("fixtures/horizon.rs"));
    assert!(lines_for(&diags, xtask::RULE_HORIZON).is_empty(), "{diags:?}");
    assert_eq!(lines_for(&diags, xtask::RULE_UNUSED_SUPPRESSION), vec![22]);
}

#[test]
fn taint_pair_flags_each_sink_class_reached_from_advance() {
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
        sf("bench", "crates/bench/src/util.rs", include_str!("fixtures/taint_bad.rs")),
    ]);
    for (rule, line) in [
        (xtask::RULE_TAINT_CLOCK, 5),
        (xtask::RULE_TAINT_ENTROPY, 6),
        (xtask::RULE_TAINT_HASH_ITER, 11),
        (xtask::RULE_TAINT_FLOAT, 12),
    ] {
        assert!(
            diags.iter().any(|d| d.rule == rule
                && d.file == "crates/bench/src/util.rs"
                && d.line == line
                && d.message.contains("System::advance")),
            "expected {rule} at line {line}: {diags:?}"
        );
    }
    // Every diagnostic names the full call chain from the root.
    assert!(diags.iter().all(|d| d.message.contains(" via System::advance → ")), "{diags:?}");
}

#[test]
fn taint_pair_stays_quiet_when_sinks_are_unreachable() {
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
        sf("bench", "crates/bench/src/util.rs", include_str!("fixtures/taint_ok.rs")),
    ]);
    assert!(diags.is_empty(), "sinks off the stepping path are legitimate: {diags:?}");
}

#[test]
fn contract_pair_requires_next_event_for_stepped_types() {
    let diags = lint_files(&[sf(
        "cache",
        "crates/cache/src/prefetch.rs",
        include_str!("fixtures/contract_bad.rs"),
    )]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, xtask::RULE_HORIZON_CONTRACT);
    assert_eq!(diags[0].line, 9, "anchored at the step definition");
    assert!(diags[0].message.contains("`Prefetcher` defines `step` but no `next_event`"));

    let diags = lint_files(&[sf(
        "cache",
        "crates/cache/src/prefetch.rs",
        include_str!("fixtures/contract_ok.rs"),
    )]);
    assert!(diags.is_empty(), "a defined horizon surface satisfies the contract: {diags:?}");
}

#[test]
fn contract_requires_next_event_to_be_wired_into_advance() {
    // A defined-but-unreached next_event is still a contract violation
    // when the workspace has a System::advance to wire it into...
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
        sf("cache", "crates/cache/src/prefetch.rs", include_str!("fixtures/contract_ok.rs")),
    ]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, xtask::RULE_HORIZON_CONTRACT);
    assert!(diags[0].message.contains("never reached from System::advance"), "{diags:?}");
    // ...and wiring it in clears the diagnostic.
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/contract_root_wired.rs")),
        sf("cache", "crates/cache/src/prefetch.rs", include_str!("fixtures/contract_ok.rs")),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn contract_accepts_next_event_wired_through_a_domain_probe() {
    // Per-domain parking consults the component's horizon from inside
    // DomainSched rather than from System::advance's min-combine — a
    // domain park site is a legitimate wiring point.
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
        sf("soc", "crates/soc/src/sched.rs", include_str!("fixtures/contract_domain_wired.rs")),
        sf("cache", "crates/cache/src/prefetch.rs", include_str!("fixtures/contract_ok.rs")),
    ]);
    assert!(diags.is_empty(), "a DomainSched probe counts as wiring: {diags:?}");
    // ...but a scheduler that parks blindly leaves the surface unreached,
    // and the diagnostic names both root kinds.
    let diags = lint_files(&[
        sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
        sf("soc", "crates/soc/src/sched.rs", include_str!("fixtures/contract_domain_unwired.rs")),
        sf("cache", "crates/cache/src/prefetch.rs", include_str!("fixtures/contract_ok.rs")),
    ]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, xtask::RULE_HORIZON_CONTRACT);
    assert!(
        diags[0].message.contains("never reached from System::advance or a DomainSched probe"),
        "{diags:?}"
    );
}

#[test]
fn out_of_line_test_module_is_test_code() {
    // The body of `#[cfg(test)] mod oracle;` lives in its own file under
    // `src/`; the declaration, not the directory, makes it test code, so
    // its seeded RNG is no fault-injection bypass.
    let oracle = "use pabst_simkit::rng::SimRng;\n\n\
                  fn seeded_port() -> u64 {\n    \
                  let mut rng = SimRng::seed_from_u64(7);\n    \
                  rng.gen_range(0..4)\n}\n";
    let lint = |parent: &str| {
        lint_files(&[
            sf("cpu", "crates/cpu/src/core_model.rs", parent),
            sf("cpu", "crates/cpu/src/core_model/oracle.rs", oracle),
        ])
    };
    let diags = lint("pub fn model() {}\n\n#[cfg(test)]\nmod oracle;\n");
    assert!(diags.is_empty(), "{diags:?}");
    // Without the gate the same module is mechanism code.
    let diags = lint("pub fn model() {}\n\nmod oracle;\n");
    assert_eq!(lines_for(&diags, xtask::RULE_FAULT_RNG), vec![1, 4, 5], "{diags:?}");
}

#[test]
fn a_let_binding_is_not_a_call_edge_to_the_same_named_fn() {
    // A local named like a fn used to make every later bare use a ref to
    // that fn, so an integer-only path "reached" a float-using `run`.
    let lint = |body: &str| {
        let util = format!(
            "/// Epoch bookkeeping the root calls into.\n\
             pub fn epoch_heartbeat(epoch: u64) -> u64 {{\n{body}}}\n\n\
             /// Never reached from the stepping path.\n\
             pub fn run(values: &[u64]) -> f64 {{\n    \
             values.iter().sum::<u64>() as f64 * 0.5\n}}\n"
        );
        lint_files(&[
            sf("soc", "crates/soc/src/system.rs", include_str!("fixtures/taint_root.rs")),
            sf("bench", "crates/bench/src/util.rs", &util),
        ])
    };
    let diags = lint("    let run = epoch.wrapping_mul(3);\n    run + 1\n");
    assert!(diags.is_empty(), "the local shadows the fn: {diags:?}");
    // Once the binding's block closes, `run` is the fn again.
    let diags = lint("    {\n        let run = epoch;\n        let _ = run;\n    }\n    let f = run;\n    f(&[epoch]) as u64\n");
    assert!(!lines_for(&diags, xtask::RULE_TAINT_FLOAT).is_empty(), "{diags:?}");
}

#[test]
fn stale_allow_pair_flags_only_the_unused_suppression() {
    let diags = lint_fixture(
        "cache",
        "crates/cache/src/fixture.rs",
        include_str!("fixtures/stale_allow.rs"),
    );
    assert_eq!(lines_for(&diags, xtask::RULE_UNUSED_SUPPRESSION), vec![8]);
    assert_eq!(diags.len(), 1, "the live allow still suppresses its hash-map hit: {diags:?}");
}

/// Pins the `--format json` schema: field names, ordering, and rendering
/// are a contract for CI artifact consumers. Regenerate deliberately with
/// `UPDATE_SNAPSHOTS=1 cargo test -p xtask`.
#[test]
fn json_report_matches_the_pinned_snapshot() {
    let diags =
        lint_fixture("cache", "crates/cache/src/fixture.rs", include_str!("fixtures/hash_map.rs"));
    let json = xtask::report_json(&diags).to_pretty();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/hash_map_report.json");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &json).expect("write snapshot");
    }
    let expected =
        std::fs::read_to_string(&path).expect("snapshot exists (run with UPDATE_SNAPSHOTS=1)");
    assert_eq!(json, expected, "JSON report schema drifted; update the snapshot deliberately");
}

#[test]
fn suppressed_fixture_is_fully_clean() {
    let diags =
        lint_fixture("core", "crates/core/src/pacer.rs", include_str!("fixtures/suppressed.rs"));
    assert!(diags.is_empty(), "justified allows silence everything: {diags:?}");
}

#[test]
fn bad_suppression_fixture_reports_and_does_not_silence() {
    let diags = lint_fixture(
        "cache",
        "crates/cache/src/fixture.rs",
        include_str!("fixtures/bad_suppression.rs"),
    );
    // The unjustified allow is reported AND the underlying hash-map
    // violation still fires; the unknown rule name is reported too.
    assert_eq!(lines_for(&diags, xtask::RULE_SUPPRESSION), vec![4, 7]);
    assert_eq!(lines_for(&diags, xtask::RULE_HASH_MAP), vec![4, 6, 8]);
}

#[test]
fn diagnostics_render_file_line_rule() {
    let diags =
        lint_fixture("cache", "crates/cache/src/fixture.rs", include_str!("fixtures/hash_map.rs"));
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/cache/src/fixture.rs:3: [hash-map]"),
        "diagnostic format is file:line: [rule] message — got {rendered}"
    );
}

/// The acceptance gate: the repaired workspace itself lints clean. Keeping
/// this as a test means `cargo test` catches regressions even when nobody
/// runs `cargo run -p xtask -- lint` by hand.
#[test]
fn real_workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = xtask::lint_workspace(&root).expect("workspace scan");
    assert!(diags.is_empty(), "workspace must lint clean:\n{diags:?}");
}
