//! Drives the `xtask lint` binary end to end on a throwaway workspace: exit
//! codes, printed diagnostics, and the guarantee that a lint run leaves the
//! linted tree untouched (no cache or other state files).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A one-file workspace under the system temp dir whose only source file
/// uses a `HashMap` in a simulation crate. Removed on drop.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("simlint-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).expect("create temp workspace");
        std::fs::write(src.join("lib.rs"), "use std::collections::HashMap;\n")
            .expect("write violating file");
        TempWorkspace { root }
    }

    fn lint(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--root"])
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run xtask")
    }

    /// Every path under the root, relative and sorted.
    fn tree(&self) -> Vec<String> {
        fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).expect("read dir") {
                let path = entry.expect("dir entry").path();
                let rel = path.strip_prefix(root).expect("under root");
                out.push(rel.to_string_lossy().replace('\\', "/"));
                if path.is_dir() {
                    walk(root, &path, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        out.sort();
        out
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const SOURCE_TREE: [&str; 4] =
    ["crates", "crates/core", "crates/core/src", "crates/core/src/lib.rs"];

#[test]
fn lint_reports_the_violation_and_writes_nothing() {
    let ws = TempWorkspace::new("plain");
    let out = ws.lint(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "violations exit 1:\n{stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:1: [hash-map] HashMap in a simulation crate"),
        "{stdout}"
    );
    assert!(stdout.ends_with("simlint: 1 violation(s)\n"), "{stdout}");
    assert_eq!(ws.tree(), SOURCE_TREE, "a lint run must not write into the linted tree");
}

#[test]
fn report_is_the_only_file_a_lint_run_writes() {
    let ws = TempWorkspace::new("report");
    let report = ws.root.join("report.json");
    let out = ws.lint(&["--format", "json", "--report", &report.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1));
    let written = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(written, String::from_utf8_lossy(&out.stdout), "report equals --format json");
    assert!(written.contains("\"count\": 1,"), "{written}");
    let mut expected: Vec<&str> = SOURCE_TREE.to_vec();
    expected.push("report.json");
    expected.sort();
    assert_eq!(ws.tree(), expected);
}

#[test]
fn unknown_option_is_a_usage_error() {
    let ws = TempWorkspace::new("usage");
    let out = ws.lint(&["--no-cache"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lint option `--no-cache`"));
    assert_eq!(ws.tree(), SOURCE_TREE);
}
