//! Benchmark harness for the PABST reproduction.
//!
//! Every paper figure/table is a registered [`harness::Experiment`] in
//! [`registry`]: a grid of independent `(experiment, config)` cells, a
//! cell runner that builds, runs and measures the cell's systems, and a
//! renderer that rebuilds the printed figure from the ordered results.
//! The binaries in `src/bin/` are one-line [`harness::drive`] wrappers.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p pabst-bench --bin all_figures --release -- --jobs 0
//! ```
//!
//! or a single figure, e.g. `cargo run -p pabst-bench --bin fig10 --release`.
//! Every binary accepts the shared [`obs::CliArgs`] flags: `--quick` for a
//! shortened run (fewer epochs, looser numbers), `--jobs <n>` to fan the
//! sweep out over worker threads (output is byte-identical at any value;
//! see `docs/EXPERIMENTS.md`), `--filter <name>` to select one experiment
//! of a multi-experiment driver, and the observability sinks
//! `--trace <path>` / `--report-json <path>` (merged in submission order —
//! see `docs/OBSERVABILITY.md`).
//!
//! The `sim_throughput` binary self-profiles the simulator (simulated
//! cycles per wall-clock second) and writes `BENCH_sim_throughput.json`,
//! the perf trajectory CI tracks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod obs;
pub mod registry;
pub mod scenarios;
pub mod shrink;
pub mod spark;
pub mod table;
