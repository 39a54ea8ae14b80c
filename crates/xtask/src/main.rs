//! Workspace task runner. Currently one task:
//!
//! ```text
//! cargo run -p xtask -- lint [--root <dir>] [--format text|json]
//!                            [--filter <rule>] [--report <path>]
//! ```
//!
//! runs the `simlint` determinism & accounting pass over every workspace
//! crate and exits non-zero when violations are found. Every run lints
//! every file afresh and writes no file but the `--report` path. See
//! `docs/LINTS.md` for the rule catalogue and the JSON report schema.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--root <workspace-dir>] \
         [--format text|json] [--filter <rule>] [--report <path>]"
    );
}

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut filter: Option<&'static str> = None;
    let mut report: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("xtask: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("text" | "json")) => format = f.to_string(),
                Some(other) => {
                    eprintln!("xtask: --format must be `text` or `json`, got `{other}`");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("xtask: --format needs `text` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--filter" => match it.next() {
                Some(name) => match xtask::rule_id(name) {
                    Some(rule) => filter = Some(rule),
                    None => {
                        eprintln!(
                            "xtask: unknown rule `{name}` in --filter; known rules: {}",
                            xtask::ALL_RULES.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("xtask: --filter needs a rule name");
                    return ExitCode::from(2);
                }
            },
            "--report" => match it.next() {
                Some(path) => report = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xtask: --report needs a file path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask: unknown lint option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p xtask` runs from the workspace root, but fall back to
    // the compile-time manifest location so the binary also works when
    // invoked from a crate subdirectory.
    let root = root.unwrap_or_else(|| {
        let cwd = PathBuf::from(".");
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let mut diags = match xtask::lint_workspace(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("simlint: i/o error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = filter {
        diags.retain(|d| d.rule == rule);
    }

    // The report is written even on a clean run, so CI can always upload it.
    if let Some(path) = &report {
        let text = xtask::report_json(&diags).to_pretty();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("simlint: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    match format.as_str() {
        "json" => print!("{}", xtask::report_json(&diags).to_pretty()),
        _ => {
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                println!("simlint: clean");
            } else {
                println!("simlint: {} violation(s)", diags.len());
            }
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
