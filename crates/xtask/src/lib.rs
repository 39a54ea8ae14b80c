//! `simlint`: the PABST workspace's determinism & accounting static-analysis
//! pass.
//!
//! A cycle-accurate simulator is only as trustworthy as its reproducibility:
//! the paper's figures (proportional slowdowns, SAT duty cycles, epoch
//! traces) must come out bit-identical on every run and every host. This
//! crate enforces the workspace conventions that make that true. It is
//! hand-rolled end to end — the workspace builds without network access, so
//! no `syn`/`dylint` machinery is available (or needed).
//!
//! The engine has two layers (catalogued with the rules in `docs/LINTS.md`):
//!
//! 1. **[`lexer`] + [`index`]** — a comment/string-correct Rust token
//!    stream, and from it a per-file item index: every `fn` (owner type,
//!    visibility, doc status, test status, outgoing calls/references,
//!    determinism *sinks*), type definitions, `use` paths, and top-level
//!    fn-pointer-table references.
//! 2. **[`graph`]** — a workspace call-graph approximation over those
//!    indexes. Edges are name-based (CHA-style over-approximation), which
//!    lets reachability-scoped rules trace a sink back to an entry point.
//!
//! File-scoped rules (`hash-map`, `nondet`, `float-math`, `unwrap`,
//! `missing-docs`, `thread`, `fault-rng`, `horizon`) run on layer 1 alone.
//! Reachability-scoped rules run on layer 2:
//!
//! * `taint-clock` / `taint-entropy` / `taint-hash-iter` / `taint-float` —
//!   nothing reachable from `System::advance` may read the host clock, draw
//!   entropy, iterate a hashed collection, or touch floats; nothing
//!   reachable from `Experiment::run` (including through the fn-pointer
//!   registry) may draw entropy or iterate hashed collections.
//! * `horizon-contract` — every sim-crate type with a `step`/`step_*`
//!   method must define `next_event`, and that `next_event` must be
//!   reached from `System::advance`'s horizon min-combine.
//!
//! Hygiene rules police the lint machinery itself: `suppression` (malformed
//! allows) and `unused-suppression` (an allow that silences nothing).
//!
//! Suppression: `// simlint: allow(<rule>): <justification>` on the same
//! line silences that line; on its own line it silences the item that
//! follows (through the item's closing brace or terminating semicolon). The
//! justification is mandatory — an allow without one is itself a violation,
//! and so is an allow that no longer suppresses anything.

#![forbid(unsafe_code)]

pub mod graph;
pub mod index;
pub mod json;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::Path;

/// Rule identifiers, as used in diagnostics and `allow(...)` suppressions.
pub const RULE_HASH_MAP: &str = "hash-map";
/// See [`RULE_HASH_MAP`]; wall-clock / entropy sources.
pub const RULE_NONDET: &str = "nondet";
/// Floating-point arithmetic in the regulation datapath.
pub const RULE_FLOAT_MATH: &str = "float-math";
/// `.unwrap()` / `.expect()` in mechanism crates.
pub const RULE_UNWRAP: &str = "unwrap";
/// `pub fn` without a doc comment in `pabst-core`.
pub const RULE_MISSING_DOCS: &str = "missing-docs";
/// `std::thread` outside the sweep executor.
pub const RULE_THREAD: &str = "thread";
/// Direct RNG draws in mechanism crates instead of `simkit::fault`.
pub const RULE_FAULT_RNG: &str = "fault-rng";
/// Per-cycle stepping/accounting in a file with no next_event surface.
pub const RULE_HORIZON: &str = "horizon";
/// Wall-clock reads reachable from a determinism root.
pub const RULE_TAINT_CLOCK: &str = "taint-clock";
/// Entropy draws reachable from a determinism root.
pub const RULE_TAINT_ENTROPY: &str = "taint-entropy";
/// Hasher-randomized collections reachable from a determinism root.
pub const RULE_TAINT_HASH_ITER: &str = "taint-hash-iter";
/// Floating-point operations reachable from `System::advance`.
pub const RULE_TAINT_FLOAT: &str = "taint-float";
/// A `step` method without a wired-up `next_event` counterpart.
pub const RULE_HORIZON_CONTRACT: &str = "horizon-contract";
/// Malformed suppression comments (missing justification, unknown rule).
pub const RULE_SUPPRESSION: &str = "suppression";
/// A valid suppression that no longer suppresses anything.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// All real (suppressible) rule names.
pub const ALL_RULES: [&str; 13] = [
    RULE_HASH_MAP,
    RULE_NONDET,
    RULE_FLOAT_MATH,
    RULE_UNWRAP,
    RULE_MISSING_DOCS,
    RULE_THREAD,
    RULE_FAULT_RNG,
    RULE_HORIZON,
    RULE_TAINT_CLOCK,
    RULE_TAINT_ENTROPY,
    RULE_TAINT_HASH_ITER,
    RULE_TAINT_FLOAT,
    RULE_HORIZON_CONTRACT,
];

/// Reachability-scoped rules: these only run in whole-workspace lints, so
/// single-file lints cannot judge whether their suppressions are used.
pub const CROSS_RULES: [&str; 5] = [
    RULE_TAINT_CLOCK,
    RULE_TAINT_ENTROPY,
    RULE_TAINT_HASH_ITER,
    RULE_TAINT_FLOAT,
    RULE_HORIZON_CONTRACT,
];

/// Maps a rule name to its canonical `&'static str` id (any rule that can
/// appear in a diagnostic, including the hygiene rules).
pub fn rule_id(name: &str) -> Option<&'static str> {
    ALL_RULES
        .iter()
        .chain([RULE_SUPPRESSION, RULE_UNUSED_SUPPRESSION].iter())
        .copied()
        .find(|r| *r == name)
}

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// What the linter needs to know about a file before rule dispatch.
#[derive(Debug, Clone)]
pub struct FileSpec<'a> {
    /// Short crate name: the directory under `crates/` (e.g. `"core"`),
    /// or `"examples"` / `"tests"` for the top-level members.
    pub crate_name: &'a str,
    /// Workspace-relative path, used in diagnostics and for per-file rule
    /// scoping (the float rule matches on the file name).
    pub rel_path: &'a str,
    /// True when the whole file is test/bench support (lives under a
    /// `tests/` or `benches/` directory, or in the integration-test
    /// package). `#[cfg(test)]` modules inside `src/` are detected
    /// separately.
    pub is_test: bool,
}

/// An owned [`FileSpec`] plus its source text: the unit of input for
/// whole-workspace lints ([`lint_files`]).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// See [`FileSpec::crate_name`].
    pub crate_name: String,
    /// See [`FileSpec::rel_path`].
    pub rel_path: String,
    /// See [`FileSpec::is_test`].
    pub is_test: bool,
    /// The file's full source text.
    pub source: String,
}

/// Lints one file in isolation: the file-scoped rules plus suppression
/// hygiene for them. Reachability-scoped rules need the whole workspace
/// ([`lint_files`]), so their suppressions are not judged here.
pub fn lint_source(spec: &FileSpec<'_>, source: &str) -> Vec<Diagnostic> {
    let lx = lexer::lex(source);
    let idx = index::index_file(spec.crate_name, spec.rel_path, spec.is_test, source, &lx);
    let mut pass = rules::file_pass(spec, &lx, &idx);
    rules::unused_pass(spec.rel_path, &mut pass, false);
    pass.diags
}

/// Lints a file set as one workspace: per-file pass, then the cross pass
/// (taint, horizon-contract), then suppression-usage hygiene over all rules.
/// A file that a `#[cfg(test)] mod name;` declaration (or a test file's
/// `mod name;`) places in the set is linted as test code.
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.source)).collect();
    let is_test = test_modules(files, &lexed);
    let mut indexes = Vec::new();
    let mut passes = Vec::new();
    for ((f, lx), &is_test) in files.iter().zip(&lexed).zip(&is_test) {
        let spec = FileSpec { crate_name: &f.crate_name, rel_path: &f.rel_path, is_test };
        let idx = index::index_file(&f.crate_name, &f.rel_path, is_test, &f.source, lx);
        let pass = rules::file_pass(&spec, lx, &idx);
        indexes.push(idx);
        passes.push(pass);
    }
    rules::cross_pass(&indexes, &mut passes);
    let mut diags = Vec::new();
    for (idx, pass) in indexes.iter().zip(passes.iter_mut()) {
        rules::unused_pass(&idx.rel_path, pass, true);
        diags.append(&mut pass.diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Which of `files` are test code: those marked so, plus every module
/// file declared out of line by a `#[cfg(test)] mod name;`, or by any
/// `mod name;` in a file already found to be test code. A declaration in
/// `dir/lib.rs`, `dir/main.rs` or `dir/mod.rs` names `dir/name.rs` or
/// `dir/name/mod.rs`; one in `dir/file.rs` looks under `dir/file/`.
fn test_modules(files: &[SourceFile], lexed: &[lexer::Lexed]) -> Vec<bool> {
    let by_path: std::collections::BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel_path.as_str(), i)).collect();
    let decls: Vec<Vec<(String, bool)>> =
        lexed.iter().map(|lx| index::mod_decls(&lx.toks)).collect();
    let mut is_test: Vec<bool> = files.iter().map(|f| f.is_test).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, f) in files.iter().enumerate() {
            let dir = match f.rel_path.rsplit_once('/') {
                Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir.to_string(),
                _ => f.rel_path.trim_end_matches(".rs").to_string(),
            };
            for (name, gated) in &decls[i] {
                if !(*gated || is_test[i]) {
                    continue;
                }
                for path in [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")] {
                    if let Some(&j) = by_path.get(path.as_str()) {
                        changed |= !is_test[j];
                        is_test[j] = true;
                    }
                }
            }
        }
    }
    is_test
}

/// Collects and lints every Rust source file in the workspace rooted at
/// `root`, running the full pipeline ([`lint_files`]). Fixture files under
/// `tests/fixtures/` are skipped — they exist to violate the rules on
/// purpose.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for (crate_name, rel_path, is_test) in workspace_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel_path))?;
        sources.push(SourceFile { crate_name, rel_path, is_test, source });
    }
    Ok(lint_files(&sources))
}

/// The machine-readable report (`--format json` / `--report`). The shape is
/// pinned by the snapshot test in `tests/fixture_lints.rs`.
pub fn report_json(diags: &[Diagnostic]) -> json::Json {
    use json::Json;
    let items = diags
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("file".into(), Json::Str(d.file.clone())),
                ("line".into(), Json::Num(d.line as i64)),
                ("rule".into(), Json::Str(d.rule.into())),
                ("message".into(), Json::Str(d.message.clone())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("simlint-report-v1".into())),
        ("count".into(), Json::Num(diags.len() as i64)),
        ("diagnostics".into(), Json::Arr(items)),
    ])
}

/// Walks the workspace: `(crate, rel_path, is_test)` triples in
/// deterministic order.
fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, String, bool)>> {
    let mut files: Vec<(String, String, bool)> = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let name = dir.file_name().and_then(|f| f.to_str()).unwrap_or_default().to_string();
        collect_rs(root, &dir.join("src"), &name, false, &mut files)?;
        collect_rs(root, &dir.join("tests"), &name, true, &mut files)?;
        collect_rs(root, &dir.join("benches"), &name, true, &mut files)?;
    }
    // Top-level members: examples are runnable model code (all rules except
    // the crate-scoped ones apply); the tests package is test support.
    collect_rs(root, &root.join("examples"), "examples", false, &mut files)?;
    collect_rs(root, &root.join("tests"), "tests", true, &mut files)?;

    files.sort();
    Ok(files)
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    is_test: bool,
    out: &mut Vec<(String, String, bool)>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().and_then(|f| f.to_str()) == Some("fixtures") {
                continue;
            }
            collect_rs(root, &path, crate_name, is_test, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push((crate_name.to_string(), rel, is_test));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(crate_name: &'a str, rel_path: &'a str) -> FileSpec<'a> {
        FileSpec { crate_name, rel_path, is_test: false }
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_map_flagged_in_sim_crate_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&lint_source(&spec("core", "crates/core/src/x.rs"), src)), ["hash-map"]);
        assert!(lint_source(&spec("workloads", "crates/workloads/src/x.rs"), src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn b() { let _: HashMap<u8, u8>; }\n}\n";
        assert!(lint_source(&spec("core", "crates/core/src/x.rs"), src).is_empty());
    }

    #[test]
    fn nondet_flagged_everywhere_but_bench() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\n";
        let diags = lint_source(&spec("workloads", "crates/workloads/src/x.rs"), src);
        assert!(diags.iter().all(|d| d.rule == RULE_NONDET));
        assert!(diags.len() >= 2, "both lines flagged: {diags:?}");
        assert!(lint_source(&spec("bench", "crates/bench/src/x.rs"), src).is_empty());
    }

    #[test]
    fn float_rule_scoped_to_datapath_files() {
        let src = "pub(crate) fn f(x: u64) -> f64 {\n    x as f64 * 0.5\n}\n";
        let diags = lint_source(&spec("core", "crates/core/src/pacer.rs"), src);
        assert_eq!(rules(&diags), [RULE_FLOAT_MATH, RULE_FLOAT_MATH]);
        assert!(lint_source(&spec("core", "crates/core/src/governor.rs"), src)
            .iter()
            .all(|d| d.rule != RULE_FLOAT_MATH));
    }

    #[test]
    fn float_rule_covers_simkit_trace_module() {
        let src = "pub(crate) fn f(x: u64) -> f64 {\n    x as f64 * 0.5\n}\n";
        let diags = lint_source(&spec("simkit", "crates/simkit/src/trace.rs"), src);
        assert_eq!(rules(&diags), [RULE_FLOAT_MATH, RULE_FLOAT_MATH]);
        assert!(diags[0].message.contains("trace serializer"), "{diags:?}");
        // So is the line cursor the trace parser shares with fault plans.
        let diags = lint_source(&spec("simkit", "crates/simkit/src/jsonl.rs"), src);
        assert_eq!(rules(&diags), [RULE_FLOAT_MATH, RULE_FLOAT_MATH]);
        // Other simkit files (stats keeps f64 summaries) stay exempt.
        assert!(lint_source(&spec("simkit", "crates/simkit/src/stats.rs"), src)
            .iter()
            .all(|d| d.rule != RULE_FLOAT_MATH));
    }

    #[test]
    fn float_literal_detection_avoids_ranges_and_tuples() {
        // Ranges, tuple fields and integer method calls are not floats.
        let ok =
            "fn f(pair: (u64, u64)) -> u64 {\n    for _i in 0..10 {}\n    pair.0 + 1.max(2)\n}\n";
        assert!(lint_source(&spec("core", "crates/core/src/pacer.rs"), ok).is_empty());
        let bad = "fn f() -> u64 {\n    let _x = 1.25;\n    0\n}\n";
        let diags = lint_source(&spec("core", "crates/core/src/pacer.rs"), bad);
        assert_eq!(rules(&diags), [RULE_FLOAT_MATH]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn unwrap_exact_method_only() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\nfn g(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n";
        let diags = lint_source(&spec("simkit", "crates/simkit/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_UNWRAP]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn missing_docs_on_undocumented_pub_fn() {
        let src = "/// Documented.\npub fn a() {}\npub fn b() {}\n#[must_use]\n/// Attr then doc is fine too.\npub fn c() -> u8 { 0 }\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_MISSING_DOCS]);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains('b'));
    }

    #[test]
    fn trailing_suppression_covers_one_line() {
        let src = "use std::collections::HashMap; // simlint: allow(hash-map): test scaffolding\nuse std::collections::HashSet;\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_HASH_MAP]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn standalone_suppression_covers_following_item() {
        let src = "// simlint: allow(unwrap): invariant established by constructor\nfn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_UNWRAP]);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn suppression_requires_justification() {
        let src = "use std::collections::HashMap; // simlint: allow(hash-map)\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        let r = rules(&diags);
        assert!(r.contains(&RULE_SUPPRESSION), "{diags:?}");
        assert!(r.contains(&RULE_HASH_MAP), "unjustified allow must not suppress: {diags:?}");
    }

    #[test]
    fn doc_comments_are_not_suppressions() {
        let src =
            "/// Use `// simlint: allow(<rule>): <why>` to suppress.\npub fn documented() {}\n";
        assert!(lint_source(&spec("simkit", "crates/simkit/src/x.rs"), src).is_empty());
    }

    #[test]
    fn suppression_unknown_rule_reported() {
        let src = "let x = 1; // simlint: allow(made-up): because\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_SUPPRESSION]);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// simlint: allow(hash-map): was needed before the BTreeMap port\nfn f() {}\n";
        let diags = lint_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_UNUSED_SUPPRESSION]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn cross_rule_suppressions_not_judged_by_single_file_lint() {
        // Taint suppressions can only be judged by the workspace pass; a
        // single-file lint must not call them unused.
        let src = "// simlint: allow(taint-float): judged by the workspace pass\nfn f() {}\n";
        assert!(lint_source(&spec("core", "crates/core/src/x.rs"), src).is_empty());
    }

    #[test]
    fn thread_banned_everywhere_but_the_harness() {
        let src = "use std::thread;\nfn f() { thread::spawn(|| {}); }\n";
        let diags = lint_source(&spec("soc", "crates/soc/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_THREAD, RULE_THREAD]);
        // The sweep executor itself is the one sanctioned user.
        assert!(lint_source(&spec("bench", "crates/bench/src/harness.rs"), src).is_empty());
        // The rest of the bench crate still may not spawn.
        let diags = lint_source(&spec("bench", "crates/bench/src/bin/sim_throughput.rs"), src);
        assert_eq!(rules(&diags), [RULE_THREAD, RULE_THREAD]);
    }

    #[test]
    fn thread_rule_ignores_lookalike_identifiers() {
        let src = "let thread_count = 4;\nlet t = my_thread;\nfn thread() {}\n";
        assert!(lint_source(&spec("soc", "crates/soc/src/x.rs"), src).is_empty());
    }

    #[test]
    fn thread_rule_applies_to_test_code() {
        let fixture =
            FileSpec { crate_name: "soc", rel_path: "crates/soc/tests/t.rs", is_test: true };
        let diags = lint_source(&fixture, "fn f() { std::thread::sleep(d); }\n");
        assert_eq!(rules(&diags), [RULE_THREAD]);
    }

    #[test]
    fn fault_rng_banned_in_mechanism_crates_only() {
        let src = "use pabst_simkit::rng::SimRng;\nfn f(r: &mut SimRng) -> bool { r.gen_bool(500_000) }\n";
        let diags = lint_source(&spec("soc", "crates/soc/src/x.rs"), src);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.rule == RULE_FAULT_RNG), "{diags:?}");
        assert!(diags[0].message.contains("simkit::fault"), "{diags:?}");
        // simkit hosts the RNG and the fault layer; workloads seed streams.
        assert!(lint_source(&spec("simkit", "crates/simkit/src/fault.rs"), src).is_empty());
        assert!(lint_source(&spec("workloads", "crates/workloads/src/x.rs"), src).is_empty());
    }

    #[test]
    fn fault_rng_skips_test_code() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f(r: &mut SimRng) -> u64 { r.gen_range(4) }\n}\n";
        assert!(lint_source(&spec("core", "crates/core/src/x.rs"), src).is_empty());
        let fixture =
            FileSpec { crate_name: "dram", rel_path: "crates/dram/tests/t.rs", is_test: true };
        assert!(
            lint_source(&fixture, "fn f(r: &mut SimRng) -> u64 { r.gen_range(4) }\n").is_empty()
        );
    }

    #[test]
    fn horizon_flags_per_cycle_state_unless_file_defines_next_event() {
        let src = "fn run(mut now: u64, m: &mut Mon) { now += 1; m.sample(3); }\n";
        let diags = lint_source(&spec("soc", "crates/soc/src/x.rs"), src);
        assert_eq!(rules(&diags), [RULE_HORIZON], "{diags:?}");
        // A file that exposes a next_event/batch-accrual surface steps per
        // cycle by design: that is what the structural exemption keys on.
        let exempt = format!("{src}impl Mon {{ pub fn next_event(&self) -> u64 {{ 0 }} }}\n");
        assert!(lint_source(&spec("soc", "crates/soc/src/x.rs"), &exempt).is_empty());
        // Harness crates are out of scope entirely.
        assert!(lint_source(&spec("bench", "crates/bench/src/x.rs"), src).is_empty());
    }

    #[test]
    fn horizon_ignores_lookalike_identifiers() {
        let src = "fn f(now: u64) -> u64 { let sample_rate = now + 1; sample_rate }\n";
        assert!(lint_source(&spec("soc", "crates/soc/src/x.rs"), src).is_empty());
    }

    #[test]
    fn test_files_keep_nondet_rule_but_skip_others() {
        let fixture =
            FileSpec { crate_name: "core", rel_path: "crates/core/tests/t.rs", is_test: true };
        let src = "use std::collections::HashMap;\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\nuse std::time::Instant;\n";
        let diags = lint_source(&fixture, src);
        assert_eq!(rules(&diags), [RULE_NONDET]);
    }

    #[test]
    fn lint_files_taints_sinks_reachable_from_advance() {
        let sys = SourceFile {
            crate_name: "soc".into(),
            rel_path: "crates/soc/src/system.rs".into(),
            is_test: false,
            source: "impl System {\n    pub fn advance(&mut self) { helper(); }\n}\n".into(),
        };
        let util = SourceFile {
            crate_name: "bench".into(),
            rel_path: "crates/bench/src/util.rs".into(),
            is_test: false,
            // `Instant` is legal in bench under the file-scoped rules — only
            // reachability analysis can catch it leaking into the sim clock.
            source: "pub fn helper() -> u64 {\n    let _t = Instant::now();\n    0\n}\n".into(),
        };
        let diags = lint_files(&[sys, util]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == RULE_TAINT_CLOCK && d.file == "crates/bench/src/util.rs"),
            "{diags:?}"
        );
        let taint = diags.iter().find(|d| d.rule == RULE_TAINT_CLOCK).unwrap();
        assert!(taint.message.contains("System::advance"), "{taint:?}");
        assert_eq!(taint.line, 2);
    }

    #[test]
    fn report_json_pretty_text_is_exact() {
        let diags = vec![Diagnostic {
            file: "crates/core/src/x.rs".into(),
            line: 3,
            rule: RULE_HASH_MAP,
            message: "a\"b\n".into(),
        }];
        let expected = r#"{
  "schema": "simlint-report-v1",
  "count": 1,
  "diagnostics": [
    {
      "file": "crates/core/src/x.rs",
      "line": 3,
      "rule": "hash-map",
      "message": "a\"b\n"
    }
  ]
}
"#;
        assert_eq!(report_json(&diags).to_pretty(), expected);
        // A clean run still reports the schema, a zero count and an empty list.
        let clean =
            "{\n  \"schema\": \"simlint-report-v1\",\n  \"count\": 0,\n  \"diagnostics\": []\n}\n";
        assert_eq!(report_json(&[]).to_pretty(), clean);
    }
}
