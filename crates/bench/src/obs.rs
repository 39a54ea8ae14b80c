//! The one command-line parser shared by every figure/ablation binary.
//!
//! Every `src/bin/` runner accepts the same flags, parsed once into
//! [`CliArgs`] instead of being re-scanned ad hoc per binary:
//!
//! * `--quick` — shortened run (fewer epochs, looser numbers) for CI and
//!   the micro-benchmark wrappers;
//! * `--jobs <n>` — worker threads for the sweep harness (`0` = one per
//!   available core); the merged output is byte-identical at any value;
//! * `--filter <experiment>` — run only the named experiment of a
//!   multi-experiment driver (`all_figures`);
//! * `--trace <path>` — merged JSONL epoch records from every system the
//!   invocation runs, in submission order;
//! * `--report-json <path>` — merged end-of-run summaries, one JSON line
//!   per system, tagged with experiment/config/seed;
//! * `--out <path>` — output override for binaries that write an
//!   artifact (`sim_throughput`);
//! * `--keep-going` — when a grid cell panics, keep running the remaining
//!   experiments instead of stopping after the first one with failures
//!   (either way the cell's failure is recorded and the exit code is
//!   non-zero);
//! * `--no-skip` — force naive per-cycle stepping for every system the
//!   invocation builds. Output is byte-identical either way; that
//!   equivalence is what the CI A/B jobs check.
//!
//! All value flags accept both `--flag value` and `--flag=value`.
//! Unknown flags are an error (exit 2), not a silent ignore — a typoed
//! `--trce` must not quietly drop the trace an experiment depended on.

/// Parsed command-line flags common to every bench binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliArgs {
    /// Shortened run for CI / smoke testing.
    pub quick: bool,
    /// Requested sweep worker count; `None` (flag absent) sizes from
    /// [`std::thread::available_parallelism`], as does an explicit `0`.
    pub jobs: Option<usize>,
    /// Only run the experiment with this name.
    pub filter: Option<String>,
    /// Write merged JSONL epoch records here.
    pub trace: Option<String>,
    /// Write merged end-of-run report JSON lines here.
    pub report_json: Option<String>,
    /// Artifact output path override.
    pub out: Option<String>,
    /// Keep running later experiments after one records cell failures
    /// (default is fail-fast: stop after the first failing experiment).
    pub keep_going: bool,
    /// Force naive per-cycle stepping (the skip-off baseline) for every
    /// system this invocation builds.
    pub no_skip: bool,
}

impl CliArgs {
    /// Parses `std::env::args`, printing the problem and usage to stderr
    /// and exiting with status 2 on any unknown or malformed flag.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&argv) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (no leading program name).
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag, missing value, or
    /// non-numeric `--jobs` argument.
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (a.as_str(), None),
            };
            let value = |it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
                match inline.clone() {
                    Some(v) => Ok(v),
                    None => it.next().cloned().ok_or_else(|| format!("{flag} needs a value")),
                }
            };
            match flag {
                "--quick" => args.quick = true,
                "--jobs" => {
                    let v = value(&mut it)?;
                    args.jobs =
                        Some(v.parse().map_err(|_| format!("--jobs needs a number, got `{v}`"))?);
                }
                "--filter" => args.filter = Some(value(&mut it)?),
                "--trace" => args.trace = Some(value(&mut it)?),
                "--report-json" => args.report_json = Some(value(&mut it)?),
                "--out" => args.out = Some(value(&mut it)?),
                "--keep-going" => args.keep_going = true,
                "--no-skip" => args.no_skip = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(args)
    }
}

/// The flag summary printed on a parse error.
pub fn usage() -> String {
    "usage: <bin> [--quick] [--jobs <n>] [--filter <experiment>] \
     [--trace <path>] [--report-json <path>] [--out <path>] [--keep-going] [--no-skip]"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CliArgs::parse_from(&argv)
    }

    #[test]
    fn defaults_are_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CliArgs::default());
        assert!(!args.quick);
        assert_eq!(args.jobs, None);
    }

    #[test]
    fn parses_both_value_styles() {
        let a = parse(&["--quick", "--jobs", "4", "--trace=t.jsonl", "--filter", "fig05"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.filter.as_deref(), Some("fig05"));
        let b = parse(&["--report-json=r.json", "--out", "bench.json"]).unwrap();
        assert_eq!(b.report_json.as_deref(), Some("r.json"));
        assert_eq!(b.out.as_deref(), Some("bench.json"));
    }

    #[test]
    fn keep_going_defaults_off_and_parses() {
        assert!(!parse(&[]).unwrap().keep_going);
        assert!(parse(&["--keep-going"]).unwrap().keep_going);
    }

    #[test]
    fn no_skip_defaults_off_and_parses() {
        assert!(!parse(&[]).unwrap().no_skip);
        assert!(parse(&["--no-skip"]).unwrap().no_skip);
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["--trce", "t.jsonl"]).unwrap_err();
        assert!(err.contains("--trce"), "{err}");
        assert!(parse(&["positional"]).is_err());
    }

    #[test]
    fn missing_and_malformed_values_are_errors() {
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("needs a number"));
        assert!(parse(&["--trace"]).is_err());
    }
}
