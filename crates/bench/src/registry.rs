//! The experiment registry: every paper figure, table, ablation, and
//! calibration sweep as an [`Experiment`] descriptor.
//!
//! Each entry decomposes a figure into independent grid cells (one
//! `(experiment, config)` run each — for the SPEC figures one cell is a
//! whole workload row, because its mode runs share the isolated-IPC
//! baseline), a cell runner that builds, runs and measures the cell's
//! systems through its [`RunCtx`], and a renderer that rebuilds the
//! figure's printed output from the submission-ordered results. The
//! `src/bin/` binaries are one-line [`crate::harness::drive`] calls over
//! these names.

use crate::harness::{Experiment, ExperimentResult, Params, RunCtx};
use crate::table::Table;
use pabst_core::governor::GovernorKind;
use pabst_cpu::Workload;
use pabst_dram::ArbiterMode;
use pabst_simkit::bytes_per_cycle_to_gbps;
use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec};
use pabst_simkit::stats::allocation_error_pct;
use pabst_soc::config::{RegulationMode, SystemConfig, WbAccounting};
use pabst_soc::{Metrics, System, SystemBuilder};
use pabst_workloads::{
    chasers, read_streamers, region_for, spec_cores, write_streamers, MemcachedGen,
    PeriodicStreamGen, SkewedStreamGen, StreamGen, ALL_SPEC,
};

/// Warmup epochs before a marked measurement window (the governor
/// converges within ~10 epochs; see the `governor_trace` example).
const WARMUP_EPOCHS: usize = 8;
/// Measured epochs of a full (not `--quick`) SPEC-matrix run.
const MEASURE_EPOCHS: usize = 15;

/// The experiment names `all_figures` runs, in printing order. `fig10`
/// prints both the Fig. 10 and Fig. 12 tables (same runs, two metrics),
/// so `fig12` is not in the list.
pub const ALL_FIGURES: [&str; 10] =
    ["table03", "fig01", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "ablate"];

/// Every registered experiment.
pub static EXPERIMENTS: [Experiment; 16] = [
    Experiment {
        name: "table03",
        title: "Table III — simulated system configuration",
        grid: table03_grid,
        run: table03_run,
        render: table03_render,
    },
    Experiment {
        name: "fig01",
        title: "Fig. 1 — source vs target regulation on two mixes",
        grid: fig01_grid,
        run: fig01_run,
        render: fig01_render,
    },
    Experiment {
        name: "fig05",
        title: "Fig. 5 — proportional allocation over time (7:3)",
        grid: fig05_grid,
        run: fig05_run,
        render: fig05_render,
    },
    Experiment {
        name: "fig06",
        title: "Fig. 6 — work conservation under a periodic partner",
        grid: fig06_grid,
        run: fig06_run,
        render: fig06_render,
    },
    Experiment {
        name: "fig07",
        title: "Fig. 7 — source and target regulation combined",
        grid: fig07_grid,
        run: fig07_run,
        render: fig07_render,
    },
    Experiment {
        name: "fig08",
        title: "Fig. 8 — proportional distribution of excess bandwidth",
        grid: fig08_grid,
        run: fig08_run,
        render: fig08_render,
    },
    Experiment {
        name: "fig09",
        title: "Fig. 9 — memcached service times under an aggressor",
        grid: fig09_grid,
        run: fig09_run,
        render: fig09_render,
    },
    Experiment {
        name: "fig10",
        title: "Figs. 10 & 12 — SPEC slowdown and memory efficiency",
        grid: fig10_grid,
        run: spec_matrix_run,
        render: fig10_render,
    },
    Experiment {
        name: "fig11",
        title: "Fig. 11 — work-conserving IaaS consolidation",
        grid: fig11_grid,
        run: fig11_run,
        render: fig11_render,
    },
    Experiment {
        name: "fig12",
        title: "Fig. 12 — memory efficiency cost of bandwidth QoS",
        grid: fig12_grid,
        run: spec_matrix_run,
        render: fig12_render,
    },
    Experiment {
        name: "ablate",
        title: "Ablations of PABST design choices (DESIGN.md §6)",
        grid: ablate_grid,
        run: ablate_run,
        render: ablate_render,
    },
    Experiment {
        name: "calibrate",
        title: "Calibration — Fig. 1 asymmetry vs controller geometry",
        grid: calibrate_grid,
        run: calibrate_run,
        render: calibrate_render,
    },
    Experiment {
        name: "resilience",
        title: "Resilience — fault rate vs fairness/throughput degradation",
        grid: resilience_grid,
        run: resilience_run,
        render: resilience_render,
    },
    Experiment {
        name: "scale",
        title: "Scale — the global SAT loop as tiles and controllers grow",
        grid: scale_grid,
        run: scale_run,
        render: scale_render,
    },
    Experiment {
        name: "mechanisms",
        title: "Mechanisms — the governor x arbiter zoo (docs/MECHANISMS.md)",
        grid: mechanisms_grid,
        run: mechanisms_run,
        render: mechanisms_render,
    },
    // Deliberately not in ALL_FIGURES: the campaign validates the
    // machinery, it reproduces no paper figure.
    Experiment {
        name: "chaos",
        title: "Chaos — seeded fault campaign with invariants and shrinking (docs/RESILIENCE.md)",
        grid: crate::chaos::chaos_grid,
        run: crate::chaos::chaos_run,
        render: crate::chaos::chaos_render,
    },
];

/// Looks an experiment up by registry key.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn gbps(bpc: f64) -> String {
    format!("{:.1}", bytes_per_cycle_to_gbps(bpc))
}

/// Classes 0 and 1 over the measured tail (epochs `from..`): the max
/// relative share error against `weights`, percent, and their combined
/// bandwidth, bytes/cycle. Each class's mean is floored at one byte so
/// a starved class reads as a large error.
fn tail_alloc(m: &Metrics, weights: [f64; 2], from: usize) -> (f64, f64) {
    let o0 = m.bw_series.mean_over(0, from);
    let o1 = m.bw_series.mean_over(1, from);
    let error_pct = allocation_error_pct(&weights, &[o0.max(1.0), o1.max(1.0)]);
    (error_pct, (o0 + o1) / m.bw_series.epoch_cycles() as f64)
}

/// Mean |ΔM|/M over `m_tail`: the governor's epoch-to-epoch oscillation
/// amplitude.
fn jitter(m_tail: &[u32]) -> f64 {
    let mut sum = 0.0;
    for w in m_tail.windows(2) {
        sum += (f64::from(w[1]) - f64::from(w[0])).abs() / f64::from(w[0].max(1));
    }
    sum / (m_tail.len().max(2) - 1) as f64
}

// ---------------------------------------------------------------------
// Table III.
// ---------------------------------------------------------------------

fn table03_grid(_quick: bool) -> Vec<Params> {
    vec![Params::new("table03", "baseline_32core", 0, 0)]
}

fn table03_run(p: &Params, ctx: RunCtx) -> ExperimentResult {
    ctx.finish(p, Vec::new(), Vec::new())
}

fn table03_render(_results: &[ExperimentResult]) -> String {
    let c = SystemConfig::baseline_32core();
    let d = c.dram;
    let mut t = Table::new(vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("cores", format!("{} (8x4 tiled SoC), 2 GHz", c.cores)),
        (
            "core",
            format!(
                "OoO, {}-entry ROB, width {}, {} outstanding loads",
                c.core.rob, c.core.width, c.core.max_outstanding
            ),
        ),
        ("L1D", format!("{} KiB, {}-way, {}-cycle", c.l1.bytes() / 1024, c.l1.ways, c.l1_lat)),
        (
            "L2 (private)",
            format!(
                "{} KiB, {}-way, {}-cycle, {} MSHRs",
                c.l2.bytes() / 1024,
                c.l2.ways,
                c.l2_lat,
                c.l2_mshrs
            ),
        ),
        (
            "L3 (shared)",
            format!(
                "{} MiB, {}-way, way-partitioned, {}-cycle",
                c.l3.bytes() / (1024 * 1024),
                c.l3.ways,
                c.l3_lat
            ),
        ),
        ("memory controllers", format!("{}, one DDR channel each", c.mcs)),
        (
            "DRAM",
            format!(
                "{} banks/channel, tRCD/tCL/tRP {}/{}/{} cyc, {} cyc burst (~{:.0} GB/s/channel)",
                d.banks,
                d.t_rcd,
                d.t_cl,
                d.t_rp,
                d.t_burst,
                bytes_per_cycle_to_gbps(d.peak_bytes_per_cycle())
            ),
        ),
        (
            "MC queues",
            format!(
                "read {} / write {} front-end, {}-deep ingress, {}-entry data buffer",
                d.read_q_cap, d.write_q_cap, d.ingress_cap, d.data_buf_cap
            ),
        ),
        ("epoch", format!("{} cycles (10 us)", c.epoch_cycles)),
        ("pacer burst", format!("{} requests", c.pacer_burst)),
        ("arbiter slack", format!("{} virtual ticks", c.arbiter_slack)),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    format!("Table III — simulated system configuration\n\n{}", t.render())
}

// ---------------------------------------------------------------------
// Figs. 1 and 7 (same cell shape, different mode sets and labels).
// ---------------------------------------------------------------------

/// The two workload mixes of Figs. 1 and 7, both at 3:1.
#[derive(Debug, Clone, Copy)]
enum Fig1Mix {
    /// Two 16-core write-stream classes.
    StreamStream,
    /// 16 chasers (class 0) against 16 read streamers (class 1).
    ChaserStream,
}

/// Runs one Fig. 1 cell on `cfg` (also the calibration sweep's cell):
/// `p.epochs / 2` warmup epochs, then `p.epochs` measured. Returns
/// class 0's and class 1's bytes/cycle and the allocation error (%)
/// over the measured tail.
fn fig1_cell(
    cfg: SystemConfig,
    mix: Fig1Mix,
    mode: RegulationMode,
    p: &Params,
    ctx: &mut RunCtx,
) -> (f64, f64, f64) {
    let (c0, c1) = match mix {
        Fig1Mix::StreamStream => (write_streamers(0, 16, p.seed), write_streamers(1, 16, p.seed)),
        Fig1Mix::ChaserStream => (chasers(0, 16, p.seed), read_streamers(1, 16, p.seed)),
    };
    let mut sys = ctx.build(SystemBuilder::new(cfg, mode).class(3, c0).class(1, c1));
    let warm = p.epochs / 2;
    sys.run_epochs(warm + p.epochs);
    ctx.report(&sys);
    let m = sys.metrics();
    let ec = m.bw_series.epoch_cycles() as f64;
    let (error_pct, _) = tail_alloc(m, [3.0, 1.0], warm);
    (m.bw_series.mean_over(0, warm) / ec, m.bw_series.mean_over(1, warm) / ec, error_pct)
}

fn fig01_cells() -> Vec<(Fig1Mix, &'static str, RegulationMode)> {
    let mut cells = Vec::new();
    for (mix, mix_name) in
        [(Fig1Mix::StreamStream, "stream+stream"), (Fig1Mix::ChaserStream, "chaser+stream")]
    {
        for mode in [RegulationMode::SourceOnly, RegulationMode::TargetOnly] {
            cells.push((mix, mix_name, mode));
        }
    }
    cells
}

fn fig07_cells() -> Vec<(Fig1Mix, &'static str, RegulationMode)> {
    let mut cells = Vec::new();
    for (mix, mix_name) in
        [(Fig1Mix::StreamStream, "write-stream x2"), (Fig1Mix::ChaserStream, "chaser+stream")]
    {
        for mode in [RegulationMode::SourceOnly, RegulationMode::TargetOnly, RegulationMode::Pabst]
        {
            cells.push((mix, mix_name, mode));
        }
    }
    cells
}

fn alloc_grid(
    experiment: &'static str,
    cells: &[(Fig1Mix, &'static str, RegulationMode)],
    epochs: usize,
) -> Vec<Params> {
    cells
        .iter()
        .enumerate()
        .map(|(i, (_, mix_name, mode))| {
            Params::new(experiment, format!("{mix_name}/{}", mode.label()), i, epochs)
        })
        .collect()
}

fn alloc_run(
    cells: &[(Fig1Mix, &'static str, RegulationMode)],
    p: &Params,
    mut ctx: RunCtx,
) -> ExperimentResult {
    let (mix, _, mode) = cells[p.index];
    let (bpc0, bpc1, error_pct) =
        fig1_cell(SystemConfig::baseline_32core(), mix, mode, p, &mut ctx);
    ctx.finish(p, vec![("bpc0", bpc0), ("bpc1", bpc1), ("error_pct", error_pct)], Vec::new())
}

fn alloc_table(
    cells: &[(Fig1Mix, &'static str, RegulationMode)],
    results: &[ExperimentResult],
) -> Table {
    let mut t = Table::new(vec!["mix", "regulator", "class0 GB/s", "class1 GB/s", "alloc error %"]);
    for (r, (_, mix_name, mode)) in results.iter().zip(cells) {
        t.row(vec![
            (*mix_name).into(),
            mode.label().into(),
            gbps(r.metric("bpc0")),
            gbps(r.metric("bpc1")),
            format!("{:.0}", r.metric("error_pct")),
        ]);
    }
    t
}

fn fig01_grid(quick: bool) -> Vec<Params> {
    alloc_grid("fig01", &fig01_cells(), if quick { 10 } else { 40 })
}

fn fig01_run(p: &Params, ctx: RunCtx) -> ExperimentResult {
    alloc_run(&fig01_cells(), p, ctx)
}

fn fig01_render(results: &[ExperimentResult]) -> String {
    format!(
        "Figure 1 — source vs target regulation, 3:1 target allocation\n\
         (paper: b ~76% error, c ~128% error, a and d accurate)\n\n{}",
        alloc_table(&fig01_cells(), results).render()
    )
}

fn fig07_grid(quick: bool) -> Vec<Params> {
    alloc_grid("fig07", &fig07_cells(), if quick { 10 } else { 40 })
}

fn fig07_run(p: &Params, ctx: RunCtx) -> ExperimentResult {
    alloc_run(&fig07_cells(), p, ctx)
}

fn fig07_render(results: &[ExperimentResult]) -> String {
    format!(
        "Figure 7 — source and target regulation combined (3:1 target)\n\
         (paper: PABST tracks the better regulator in each mix; a small\n \
         residual error remains with the chaser)\n\n{}",
        alloc_table(&fig07_cells(), results).render()
    )
}

// ---------------------------------------------------------------------
// Figs. 5 and 6: time-series experiments (one cell each).
// ---------------------------------------------------------------------

/// Runs a Fig. 5/6 cell: `class0` at weight 7 against 16 read
/// streamers at weight 3 on the baseline machine under PABST for
/// `p.epochs`. Returns each class's per-epoch bytes/cycle.
fn series_cell(
    class0: Vec<Box<dyn Workload>>,
    p: &Params,
    ctx: &mut RunCtx,
) -> (Vec<f64>, Vec<f64>) {
    let mut sys = ctx.build(
        SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
            .class(7, class0)
            .class(3, read_streamers(1, 16, p.seed)),
    );
    sys.run_epochs(p.epochs);
    ctx.report(&sys);
    let bw = &sys.metrics().bw_series;
    let ec = bw.epoch_cycles();
    let series = |c: usize| (0..bw.epochs()).map(|e| bw.epoch(e)[c] / ec as f64).collect();
    (series(0), series(1))
}

fn fig05_grid(quick: bool) -> Vec<Params> {
    vec![Params::new("fig05", "7:3 read streams", 0, if quick { 15 } else { 60 })]
}

fn fig05_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let (s0, s1) = series_cell(read_streamers(0, 16, p.seed), p, &mut ctx);
    ctx.finish(p, Vec::new(), vec![("class0", s0), ("class1", s1)])
}

fn fig05_render(results: &[ExperimentResult]) -> String {
    let r = &results[0];
    let (s0, s1) = (r.series("class0"), r.series("class1"));
    let mut t = Table::new(vec!["epoch", "class0 GB/s", "class1 GB/s", "class0 share"]);
    for (e, (&p0, &p1)) in s0.iter().zip(s1).enumerate() {
        let total = p0 + p1;
        t.row(vec![
            e.to_string(),
            gbps(p0),
            gbps(p1),
            if total > 0.0 { format!("{:.3}", p0 / total) } else { "-".into() },
        ]);
    }
    let epochs = r.params.epochs;
    let from = epochs / 2;
    let mean0: f64 =
        s0[from..].iter().zip(&s1[from..]).map(|(&p0, &p1)| p0 / (p0 + p1)).sum::<f64>()
            / (epochs - from) as f64;
    format!(
        "Figure 5 — proportional allocation, 7:3 read streams\n\
         (paper: quick convergence to a steady 70%/30% split)\n\n{}\n\n{}\n\
         steady-state class0 share: {mean0:.3} (target 0.700)\n",
        crate::spark::spark_rows(&["class0 (70%)", "class1 (30%)"], &[s0.to_vec(), s1.to_vec()]),
        t.render()
    )
}

fn fig06_grid(quick: bool) -> Vec<Params> {
    vec![Params::new("fig06", "periodic 70% + constant 30%", 0, if quick { 40 } else { 170 })]
}

fn fig06_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let periodic = (0..16)
        .map(|i| {
            Box::new(PeriodicStreamGen::new(
                region_for(0, i, 1 << 20),
                256,
                8_000,
                900_000,
                p.seed + i as u64,
            )) as Box<dyn Workload>
        })
        .collect();
    let (s0, s1) = series_cell(periodic, p, &mut ctx);
    ctx.finish(p, Vec::new(), vec![("periodic", s0), ("constant", s1)])
}

fn fig06_render(results: &[ExperimentResult]) -> String {
    let r = &results[0];
    let (s0, s1) = (r.series("periodic"), r.series("constant"));
    let mut t = Table::new(vec!["epoch", "periodic GB/s", "constant GB/s", "constant share"]);
    for (e, (&p0, &p1)) in s0.iter().zip(s1).enumerate() {
        let total = p0 + p1;
        t.row(vec![
            e.to_string(),
            gbps(p0),
            gbps(p1),
            if total > 0.1 { format!("{:.2}", p1 / total) } else { "-".into() },
        ]);
    }
    // Summarize the two phases.
    let (mut boosted, mut throttled) = (Vec::new(), Vec::new());
    for (&p0, &p1) in s0.iter().zip(s1).skip(10) {
        let total = p0 + p1;
        if total < 0.5 {
            continue;
        }
        if p0 / total < 0.10 {
            boosted.push(p1);
        } else if p0 / total > 0.5 {
            throttled.push(p1);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    format!(
        "Figure 6 — work conservation (periodic 70% + constant 30%)\n\
         (paper: constant streamer takes ~100% during the partner's idle phases)\n\n{}\n\n{}\n\
         constant streamer: {:.1} GB/s while partner active, {:.1} GB/s while partner idle\n",
        crate::spark::spark_rows(
            &["periodic (70%)", "constant (30%)"],
            &[s0.to_vec(), s1.to_vec()]
        ),
        t.render(),
        bytes_per_cycle_to_gbps(mean(&throttled)),
        bytes_per_cycle_to_gbps(mean(&boosted)),
    )
}

// ---------------------------------------------------------------------
// Fig. 8.
// ---------------------------------------------------------------------

fn fig08_grid(quick: bool) -> Vec<Params> {
    vec![Params::new("fig08", "resident + high/low DDR", 0, if quick { 20 } else { 60 })]
}

/// `n` read streamers for `class` over `lines`-line regions, seeded
/// `seed + i` (Figs. 8 and 9 salt `seed` per class).
fn streams(class: usize, n: usize, lines: u64, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(class, i, lines), seed + i as u64))
                as Box<dyn Workload>
        })
        .collect()
}

/// A 25%-share L3-resident streamer plus 50%- and 25%-share DDR
/// streamers; the resident class's excess must split 2:1.
fn fig08_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let mut sys = ctx.build(
        SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
            .class(1, streams(0, 8, 4096, p.seed))
            .l3_ways(0, 4)
            .class(2, streams(1, 12, 1 << 20, p.seed + 100))
            .l3_ways(4, 6)
            .class(1, streams(2, 12, 1 << 20, p.seed + 200))
            .l3_ways(10, 6),
    );
    sys.run_epochs(p.epochs);
    ctx.report(&sys);
    let (m, from) = (sys.metrics(), p.epochs / 2);
    let shares = vec![
        ("share0", m.mean_share(0, from)),
        ("share1", m.mean_share(1, from)),
        ("share2", m.mean_share(2, from)),
    ];
    ctx.finish(p, shares, Vec::new())
}

fn fig08_render(results: &[ExperimentResult]) -> String {
    let r = &results[0];
    let mut t = Table::new(vec!["class", "allocation", "observed share"]);
    for (i, (name, alloc)) in
        [("L3-resident stream", "25%"), ("DDR stream (high)", "50%"), ("DDR stream (low)", "25%")]
            .iter()
            .enumerate()
    {
        let share = r.metric(["share0", "share1", "share2"][i]);
        t.row(vec![name.to_string(), alloc.to_string(), format!("{:.1}%", share * 100.0)]);
    }
    format!(
        "Figure 8 — proportional distribution of excess bandwidth\n\
         (paper: high DDR stream ~66%, low DDR stream ~33%)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Fig. 9.
// ---------------------------------------------------------------------

fn fig09_cells() -> [(&'static str, RegulationMode, bool); 3] {
    [
        ("isolated", RegulationMode::None, false),
        ("contended, no QoS", RegulationMode::None, true),
        ("contended, PABST 20:1", RegulationMode::Pabst, true),
    ]
}

fn fig09_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 20 } else { 40 };
    fig09_cells()
        .iter()
        .enumerate()
        .map(|(i, (label, _, _))| Params::new("fig09", *label, i, epochs))
        .collect()
}

/// A memcached server (weight 20, 8 L3 ways) on the scaled 8-core
/// machine, alone or against 7 read-streaming cores (weight 1).
fn fig09_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let (_, mode, aggressor) = fig09_cells()[p.index];
    let server: Vec<Box<dyn Workload>> =
        vec![Box::new(MemcachedGen::new(region_for(0, 0, 1 << 18), p.seed + 7))];
    let mut b =
        SystemBuilder::new(SystemConfig::scaled_8core(), mode).class(20, server).l3_ways(0, 8);
    if aggressor {
        b = b.class(1, streams(1, 7, 1 << 20, p.seed + 50)).l3_ways(8, 8);
    }
    let mut sys = ctx.build(b);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(p.epochs.max(20));
    ctx.report(&sys);
    let h = &mut sys.metrics_mut().service[0];
    let metrics = vec![
        ("mean", h.mean().unwrap_or(0.0)),
        ("p50", h.percentile(50.0).unwrap_or(0) as f64),
        ("p95", h.percentile(95.0).unwrap_or(0) as f64),
        ("p99", h.percentile(99.0).unwrap_or(0) as f64),
        ("count", h.count() as f64),
    ];
    ctx.finish(p, metrics, Vec::new())
}

fn fig09_render(results: &[ExperimentResult]) -> String {
    let mut t = Table::new(vec!["configuration", "txns", "mean (cyc)", "p50", "p95", "p99"]);
    for (r, (label, _, _)) in results.iter().zip(fig09_cells().iter()) {
        t.row(vec![
            (*label).into(),
            format!("{}", r.metric("count")),
            format!("{:.0}", r.metric("mean")),
            format!("{}", r.metric("p50")),
            format!("{}", r.metric("p95")),
            format!("{}", r.metric("p99")),
        ]);
    }
    format!(
        "Figure 9 — memcached service times under a bandwidth aggressor\n\
         (paper: PABST nearly restores both the mean and the tail)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Figs. 10, 11, 12: SPEC workload matrices. One cell = one workload row
// (its mode runs share the isolated-IPC baseline, so they stay together).
// ---------------------------------------------------------------------

const SPEC_MODES: [RegulationMode; 4] = [
    RegulationMode::None,
    RegulationMode::SourceOnly,
    RegulationMode::TargetOnly,
    RegulationMode::Pabst,
];
const SLOWDOWN_KEYS: [&str; 4] =
    ["slowdown_none", "slowdown_source", "slowdown_target", "slowdown_pabst"];
const EFF_KEYS: [&str; 4] = ["eff_none", "eff_source", "eff_target", "eff_pabst"];

fn spec_grid(experiment: &'static str, epochs: usize) -> Vec<Params> {
    ALL_SPEC.iter().enumerate().map(|(i, w)| Params::new(experiment, w.name(), i, epochs)).collect()
}

fn fig10_grid(quick: bool) -> Vec<Params> {
    spec_grid("fig10", if quick { 6 } else { MEASURE_EPOCHS })
}

fn fig12_grid(quick: bool) -> Vec<Params> {
    spec_grid("fig12", if quick { 8 } else { MEASURE_EPOCHS })
}

/// Runs one SPEC-matrix system: [`WARMUP_EPOCHS`] of warmup, then
/// `epochs` in a marked measurement window, reported under `label`.
/// Returns the system and the mean IPC of its first `cores` cores over
/// the window.
fn spec_run(
    builder: SystemBuilder,
    cores: usize,
    label: &str,
    epochs: usize,
    ctx: &mut RunCtx,
) -> (System, f64) {
    let mut sys = ctx.build(builder);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(epochs);
    ctx.report_labeled(&sys, label);
    let ipc = (0..cores).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / cores as f64;
    (sys, ipc)
}

/// Shared Fig. 10 / Fig. 12 cell for one SPEC workload: 16 SPEC cores
/// (weight 32, 8 L3 ways) run alone for the isolated IPC, then against
/// 16 read streamers (weight 1, the other 8 ways) under each regulation
/// mode, for the weighted slowdown and the data-bus utilization.
fn spec_matrix_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let w = ALL_SPEC[p.index];
    let spec = |mode| {
        SystemBuilder::new(SystemConfig::baseline_32core(), mode)
            .class(32, spec_cores(w, 0, 16, p.seed))
            .l3_ways(0, 8)
    };
    let (_, iso) = spec_run(spec(RegulationMode::None), 16, "isolated", p.epochs, &mut ctx);
    let mut metrics = vec![("iso_ipc", iso)];
    for (i, mode) in SPEC_MODES.iter().enumerate() {
        let b = spec(*mode).class(1, read_streamers(1, 16, p.seed)).l3_ways(8, 8);
        let (sys, ipc) = spec_run(b, 16, mode.label(), p.epochs, &mut ctx);
        metrics.push((SLOWDOWN_KEYS[i], iso / ipc));
        metrics.push((EFF_KEYS[i], sys.bus_utilization_since_mark()));
    }
    eprintln!("  done {}", w.name());
    ctx.finish(p, metrics, Vec::new())
}

fn efficiency_table(results: &[ExperimentResult]) -> Table {
    let mut t = Table::new(vec![
        "workload",
        "no-QoS",
        "governor-only",
        "arbiter-only",
        "pabst",
        "latency-sensitive",
    ]);
    for (r, w) in results.iter().zip(ALL_SPEC) {
        let mut cells = vec![w.name().to_string()];
        cells.extend(EFF_KEYS.iter().map(|k| format!("{:.2}", r.metric(k))));
        cells.push(if w.latency_sensitive() { "yes".into() } else { "no".into() });
        t.row(cells);
    }
    t
}

fn fig10_render(results: &[ExperimentResult]) -> String {
    let mut slow = Table::new(vec!["workload", "no-QoS", "source-only", "target-only", "pabst"]);
    let mut sums = [0.0f64; 4];
    for (r, w) in results.iter().zip(ALL_SPEC) {
        let mut cells = vec![w.name().to_string()];
        for (i, k) in SLOWDOWN_KEYS.iter().enumerate() {
            let v = r.metric(k);
            sums[i] += v;
            cells.push(format!("{v:.2}x"));
        }
        slow.row(cells);
    }
    let n = ALL_SPEC.len() as f64;
    slow.row(vec![
        "mean".into(),
        format!("{:.2}x", sums[0] / n),
        format!("{:.2}x", sums[1] / n),
        format!("{:.2}x", sums[2] / n),
        format!("{:.2}x", sums[3] / n),
    ]);
    format!(
        "Figure 10 — weighted slowdown vs isolated run (32:1 shares,\n\
         16 SPEC cores + 16 streaming cores)\n\
         (paper: avg 2.0x without QoS -> 1.2x with PABST; combination always best)\n\n{}\n\
         Figure 12 — memory efficiency (data-bus utilization) of the same runs\n\
         (paper: QoS lowers efficiency; drop largest for latency-sensitive workloads)\n\n{}",
        slow.render(),
        efficiency_table(results).render()
    )
}

fn fig12_render(results: &[ExperimentResult]) -> String {
    format!(
        "Figure 12 — memory efficiency (data-bus utilization), SPEC +\n\
         streaming aggressor at 32:1\n\
         (paper: QoS lowers efficiency; the drop is largest for\n \
         latency-sensitive workloads)\n\n{}",
        efficiency_table(results).render()
    )
}

fn fig11_grid(quick: bool) -> Vec<Params> {
    spec_grid("fig11", if quick { 8 } else { MEASURE_EPOCHS })
}

/// One Fig. 11 workload: four 8-core classes of the same SPEC proxy at
/// equal 25% shares, against a static baseline of 8 cores alone on a 4x
/// down-clocked DDR with the same 4-way cache slice.
fn fig11_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let w = ALL_SPEC[p.index];
    let mut b = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst);
    for c in 0..4 {
        b = b.class(1, spec_cores(w, c, 8, p.seed)).l3_ways(c * 4, 4);
    }
    let (_, pabst_ipc) = spec_run(b, 32, "consolidated", p.epochs, &mut ctx);
    let mut cfg = SystemConfig::baseline_32core();
    cfg.cores = 8;
    cfg.mcs = 4;
    cfg.dram = cfg.dram.down_clocked(4);
    let b = SystemBuilder::new(cfg, RegulationMode::None)
        .class(1, spec_cores(w, 0, 8, p.seed))
        .l3_ways(0, 4);
    let (_, static_ipc) = spec_run(b, 8, "static baseline", p.epochs, &mut ctx);
    eprintln!("  done {}", w.name());
    ctx.finish(p, vec![("static_ipc", static_ipc), ("pabst_ipc", pabst_ipc)], Vec::new())
}

fn fig11_render(results: &[ExperimentResult]) -> String {
    let mut t = Table::new(vec!["workload", "static IPC", "PABST IPC", "improvement"]);
    for (r, w) in results.iter().zip(ALL_SPEC) {
        let (s, p) = (r.metric("static_ipc"), r.metric("pabst_ipc"));
        t.row(vec![
            w.name().into(),
            format!("{s:.3}"),
            format!("{p:.3}"),
            format!("{:+.0}%", (p / s - 1.0) * 100.0),
        ]);
    }
    format!(
        "Figure 11 — four consolidated 25%-share classes vs a static\n\
         quarter-bandwidth allocation\n\
         (paper: 15-90% improvement thanks to work conservation)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// One typed ablation cell (five sub-studies flattened into one grid).
#[derive(Debug, Clone, Copy)]
enum AblateCell {
    Writeback(&'static str, WbAccounting),
    Burst(u64),
    Slack(u64),
    Inertia(u32),
    Skew(&'static str, bool),
}

fn ablate_cells() -> Vec<AblateCell> {
    let mut cells = Vec::new();
    for (name, p) in [
        ("charge-demand (paper)", WbAccounting::ChargeDemand),
        ("charge-owner", WbAccounting::ChargeOwner),
        ("charge-none", WbAccounting::ChargeNone),
    ] {
        cells.push(AblateCell::Writeback(name, p));
    }
    for burst in [1u64, 4, 16, 64, 256] {
        cells.push(AblateCell::Burst(burst));
    }
    for slack in [8u64, 32, 128, 512, 4096] {
        cells.push(AblateCell::Slack(slack));
    }
    for inertia in [1u32, 2, 3, 5, 8] {
        cells.push(AblateCell::Inertia(inertia));
    }
    for (name, per_mc) in
        [("global wired-OR SAT (paper default)", false), ("per-MC SAT + governor", true)]
    {
        cells.push(AblateCell::Skew(name, per_mc));
    }
    cells
}

fn ablate_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 16 } else { 40 };
    ablate_cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let config = match cell {
                AblateCell::Writeback(name, _) => format!("writeback/{name}"),
                AblateCell::Burst(b) => format!("burst/{b}"),
                AblateCell::Slack(s) => format!("slack/{s}"),
                AblateCell::Inertia(n) => format!("inertia/{n}"),
                AblateCell::Skew(name, _) => format!("skew/{name}"),
            };
            Params::new("ablate", config, i, epochs)
        })
        .collect()
}

/// Runs one ablation cell on the baseline machine under PABST: the
/// cell's knob set, its two-class mix run for `p.epochs`, and its
/// metrics measured from epoch `p.epochs / 2` on.
fn ablate_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let cell = ablate_cells()[p.index];
    let seed = p.seed;
    let mut cfg = SystemConfig::baseline_32core();
    let reads_7_3 = || (7, read_streamers(0, 16, seed), 3, read_streamers(1, 16, seed));
    let (w0, c0, w1, c1) = match cell {
        AblateCell::Writeback(_, policy) => {
            cfg.wb_accounting = policy;
            (7, write_streamers(0, 16, seed), 3, write_streamers(1, 16, seed))
        }
        AblateCell::Burst(burst) => {
            cfg.pacer_burst = burst;
            reads_7_3()
        }
        AblateCell::Slack(slack) => {
            cfg.arbiter_slack = slack;
            (3, chasers(0, 16, seed), 1, read_streamers(1, 16, seed))
        }
        AblateCell::Inertia(inertia) => {
            cfg.monitor.inertia = inertia;
            reads_7_3()
        }
        AblateCell::Skew(_, per_mc) => {
            // §III-C1: class 0 hammers one controller while class 1
            // streams across all of them. The global wired-OR SAT stays
            // high for the hot controller and throttles traffic bound
            // for the idle ones; the per-MC variant recovers them.
            cfg.per_mc_regulation = per_mc;
            let skewed = (0..16)
                .map(|i| {
                    Box::new(SkewedStreamGen::new(
                        region_for(0, i, 1 << 20),
                        0,
                        cfg.mcs,
                        seed + i as u64,
                    )) as Box<dyn Workload>
                })
                .collect();
            (1, skewed, 1, read_streamers(1, 16, seed))
        }
    };
    let mut sys =
        ctx.build(SystemBuilder::new(cfg, RegulationMode::Pabst).class(w0, c0).class(w1, c1));
    sys.run_epochs(p.epochs);
    ctx.report(&sys);
    let (m, from) = (sys.metrics(), p.epochs / 2);
    let metrics = match cell {
        AblateCell::Writeback(..) => {
            vec![("share0", m.mean_share(0, from)), ("share1", m.mean_share(1, from))]
        }
        AblateCell::Burst(_) => vec![("error_pct", tail_alloc(m, [7.0, 3.0], from).0)],
        AblateCell::Slack(_) => vec![("error_pct", tail_alloc(m, [3.0, 1.0], from).0)],
        AblateCell::Inertia(_) => vec![
            ("error_pct", tail_alloc(m, [7.0, 3.0], from).0),
            ("jitter", jitter(&m.m_series[from..])),
        ],
        AblateCell::Skew(..) => vec![("bpc", m.total_bytes_per_cycle(from))],
    };
    ctx.finish(p, metrics, Vec::new())
}

fn ablate_render(results: &[ExperimentResult]) -> String {
    let cells = ablate_cells();
    let mut out = String::new();

    out.push_str("Ablation 1 — writeback accounting (write streams, 7:3)\n\n");
    let mut t = Table::new(vec!["policy", "class0 share", "class1 share"]);
    for (r, cell) in results.iter().zip(&cells) {
        if let AblateCell::Writeback(name, _) = cell {
            t.row(vec![
                (*name).into(),
                format!("{:.3}", r.metric("share0")),
                format!("{:.3}", r.metric("share1")),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 2 — pacer burst window (read streams, 7:3)\n\n");
    let mut t = Table::new(vec!["burst (requests)", "alloc error %"]);
    for (r, cell) in results.iter().zip(&cells) {
        if let AblateCell::Burst(burst) = cell {
            t.row(vec![burst.to_string(), format!("{:.1}", r.metric("error_pct"))]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 3 — arbiter slack (chaser+stream, 3:1)\n\n");
    let mut t = Table::new(vec!["slack (vticks)", "alloc error %"]);
    for (r, cell) in results.iter().zip(&cells) {
        if let AblateCell::Slack(slack) = cell {
            t.row(vec![slack.to_string(), format!("{:.1}", r.metric("error_pct"))]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 4 — governor inertia (read streams, 7:3)\n\n");
    let mut t = Table::new(vec!["inertia (epochs)", "alloc error %", "mean |dM|/M"]);
    for (r, cell) in results.iter().zip(&cells) {
        if let AblateCell::Inertia(inertia) = cell {
            t.row(vec![
                inertia.to_string(),
                format!("{:.1}", r.metric("error_pct")),
                format!("{:.4}", r.metric("jitter")),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 5 — per-MC governors under skewed traffic (SIII-C1)\n\n");
    let mut t = Table::new(vec!["regulation granularity", "total GB/s"]);
    for (r, cell) in results.iter().zip(&cells) {
        if let AblateCell::Skew(name, _) = cell {
            t.row(vec![(*name).into(), gbps(r.metric("bpc"))]);
        }
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------
// Calibration sweep.
// ---------------------------------------------------------------------

const CALIBRATE_GEOMETRIES: [(usize, usize, u64); 3] = [
    (32, 16, 12), // default data buffer
    (64, 4, 12),  // deeper front-end, shallow blind FIFO
    (64, 4, 6),   // + shallower data buffer
];
const CALIBRATE_MIXES: [(Fig1Mix, &str, RegulationMode, &str); 4] = [
    (Fig1Mix::StreamStream, "stream", RegulationMode::SourceOnly, "src"),
    (Fig1Mix::StreamStream, "stream", RegulationMode::TargetOnly, "tgt"),
    (Fig1Mix::ChaserStream, "chaser", RegulationMode::SourceOnly, "src"),
    (Fig1Mix::ChaserStream, "chaser", RegulationMode::TargetOnly, "tgt"),
];

fn calibrate_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 8 } else { 16 };
    let mut cells = Vec::new();
    for (read_q, ingress, horizon) in CALIBRATE_GEOMETRIES {
        for (_, mix_name, _, mode_name) in CALIBRATE_MIXES {
            let i = cells.len();
            cells.push(Params::new(
                "calibrate",
                format!("rq{read_q} in{ingress} hz{horizon} {mix_name}/{mode_name}"),
                i,
                epochs,
            ));
        }
    }
    cells
}

fn calibrate_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let (read_q, ingress, horizon) = CALIBRATE_GEOMETRIES[p.index / CALIBRATE_MIXES.len()];
    let (mix, _, mode, _) = CALIBRATE_MIXES[p.index % CALIBRATE_MIXES.len()];
    let mut cfg = SystemConfig::baseline_32core();
    cfg.dram.read_q_cap = read_q;
    cfg.dram.ingress_cap = ingress;
    cfg.dram.data_buf_cap = horizon as usize;
    let (_, _, error_pct) = fig1_cell(cfg, mix, mode, p, &mut ctx);
    eprintln!("  done {}", p.config);
    ctx.finish(p, vec![("error_pct", error_pct)], Vec::new())
}

fn calibrate_render(results: &[ExperimentResult]) -> String {
    let mut t = Table::new(vec![
        "read_q",
        "ingress",
        "data_buf",
        "stream src%",
        "stream tgt%",
        "chaser src%",
        "chaser tgt%",
    ]);
    for (g, (read_q, ingress, horizon)) in CALIBRATE_GEOMETRIES.iter().enumerate() {
        let cell =
            |k: usize| format!("{:.0}", results[g * CALIBRATE_MIXES.len() + k].metric("error_pct"));
        t.row(vec![
            read_q.to_string(),
            ingress.to_string(),
            horizon.to_string(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
        ]);
    }
    format!(
        "Calibration — Fig. 1 asymmetry vs controller geometry\n\
         (want: stream src low / tgt high; chaser src high / tgt low)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Resilience: fault rate vs fairness/throughput (degradation curve).
// Registered but not in ALL_FIGURES — fault sweeps are diagnostics, not
// paper figures, and `all_figures` output must stay byte-stable.
// ---------------------------------------------------------------------

/// One typed resilience cell: which fault kind at which per-epoch rate.
#[derive(Debug, Clone, Copy)]
enum ResilienceCell {
    /// SAT broadcast dropped with this probability (ppm per epoch).
    SatDrop(u64),
    /// SAT broadcast inverted with this probability.
    SatCorrupt(u64),
    /// Per-tile epoch-sync skew (missed reprogram) with this probability.
    EpochSkew(u64),
    /// Per-tile pacer credit leak with this probability.
    CreditLeak(u64),
    /// A finite whole-epoch MC service-stall window (epochs 6..=8).
    McStallWindow,
}

fn resilience_cells() -> Vec<ResilienceCell> {
    let mut cells = Vec::new();
    // The headline curve: SAT-drop rate 0 → 100%. Rate 0 doubles as the
    // live proof that an inert plan reproduces the healthy run; rate
    // 100% starves the governor forever, driving the stale-SAT fail-safe
    // all the way to its conservative floor.
    for ppm in [0u64, 10_000, 50_000, 200_000, 500_000, 1_000_000] {
        cells.push(ResilienceCell::SatDrop(ppm));
    }
    for ppm in [50_000u64, 200_000] {
        cells.push(ResilienceCell::SatCorrupt(ppm));
    }
    cells.push(ResilienceCell::EpochSkew(200_000));
    cells.push(ResilienceCell::CreditLeak(200_000));
    cells.push(ResilienceCell::McStallWindow);
    cells
}

fn resilience_label(cell: ResilienceCell) -> String {
    match cell {
        ResilienceCell::SatDrop(ppm) => format!("sat-drop/{ppm}ppm"),
        ResilienceCell::SatCorrupt(ppm) => format!("sat-corrupt/{ppm}ppm"),
        ResilienceCell::EpochSkew(ppm) => format!("epoch-skew/{ppm}ppm"),
        ResilienceCell::CreditLeak(ppm) => format!("credit-leak/{ppm}ppm"),
        ResilienceCell::McStallWindow => "mc-stall/epochs6-8".to_string(),
    }
}

/// Builds the cell's fault plan. Tile-targeted kinds get one spec per
/// core of the scaled 8-core machine; SAT kinds target the single global
/// monitor (target 0); the stall window targets the single controller.
fn resilience_plan(cell: ResilienceCell, seed: u64) -> FaultPlan {
    let spec = |kind, target, prob_ppm, magnitude| FaultSpec {
        kind,
        target,
        from_epoch: 0,
        until_epoch: u64::MAX,
        prob_ppm,
        magnitude,
        seed: seed ^ 0x5eed_0000,
    };
    let mut plan = FaultPlan::new();
    match cell {
        ResilienceCell::SatDrop(ppm) => plan.push(spec(FaultKind::SatDrop, 0, ppm, 0)),
        ResilienceCell::SatCorrupt(ppm) => plan.push(spec(FaultKind::SatCorrupt, 0, ppm, 0)),
        ResilienceCell::EpochSkew(ppm) => {
            for tile in 0..8 {
                plan.push(spec(FaultKind::EpochSkew, tile, ppm, 0));
            }
        }
        ResilienceCell::CreditLeak(ppm) => {
            for tile in 0..8 {
                plan.push(spec(FaultKind::CreditLeak, tile, ppm, 5_000));
            }
        }
        ResilienceCell::McStallWindow => plan.push(FaultSpec {
            kind: FaultKind::McStall,
            target: 0,
            from_epoch: 6,
            until_epoch: 8,
            prob_ppm: pabst_simkit::fault::PPM_SCALE,
            magnitude: 0,
            seed,
        }),
    }
    plan
}

/// The full labelled resilience curve — `(label, plan)` per cell, in
/// grid order. Public so the chaos-envelope integration test can pin
/// every zoo mechanism against the exact plans the resilience sweep
/// runs.
pub fn resilience_curve(seed: u64) -> Vec<(String, FaultPlan)> {
    resilience_cells()
        .iter()
        .map(|&cell| (resilience_label(cell), resilience_plan(cell, seed)))
        .collect()
}

fn resilience_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 10 } else { 30 };
    let mech = SystemConfig::scaled_8core().mechanism_hash();
    resilience_cells()
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            // Seed 0 matches `Params::new`; `resilience_run` derives the
            // plan from the same `(cell, p.seed)` pair.
            Params::new("resilience", resilience_label(cell), i, epochs)
                .with_provenance(mech, resilience_plan(cell, 0).digest())
        })
        .collect()
}

/// A 3:1 read-stream contest on the scaled 8-core machine with the
/// cell's fault plan injected and a 50-epoch liveness window under the
/// default panicking policy: a fault mix that wedges the machine's one
/// controller becomes a panic the harness records as a cell failure,
/// not a hung run.
fn resilience_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let plan = resilience_plan(resilience_cells()[p.index], p.seed);
    let mut cfg = SystemConfig::scaled_8core();
    cfg.invariants.liveness_epochs = 50;
    let mut sys = ctx.build(
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, read_streamers(0, 4, p.seed))
            .class(1, read_streamers(1, 4, p.seed))
            .fault_plan(plan),
    );
    let warm = p.epochs / 2;
    sys.run_epochs(warm + p.epochs);
    ctx.report(&sys);
    let (error_pct, bpc) = tail_alloc(sys.metrics(), [3.0, 1.0], warm);
    ctx.finish(
        p,
        vec![
            ("error_pct", error_pct),
            ("bpc", bpc),
            ("faults", sys.faults_injected() as f64),
            ("degraded", sys.degraded_epochs() as f64),
        ],
        Vec::new(),
    )
}

fn resilience_render(results: &[ExperimentResult]) -> String {
    let mut t = Table::new(vec![
        "fault",
        "alloc error %",
        "total GB/s",
        "faults injected",
        "degraded epochs",
    ]);
    for r in results {
        t.row(vec![
            r.params.config.clone(),
            format!("{:.1}", r.metric("error_pct")),
            gbps(r.metric("bpc")),
            format!("{}", r.metric("faults")),
            format!("{}", r.metric("degraded")),
        ]);
    }
    format!(
        "Resilience — deterministic fault injection vs fairness and throughput\n\
         (sat-drop row 0ppm is the healthy reference; the governor's stale-SAT\n \
         fail-safe and the finite mc-stall window both recover without deadlock)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Scale: topology study. Registered but not in ALL_FIGURES — the paper
// stops at 32 tiles, and `all_figures` output must stay byte-stable.
// ---------------------------------------------------------------------

/// A labelled machine constructor in the scale ladder.
type ScaleCell = (&'static str, fn() -> SystemConfig);

/// The scale ladder: the paper's machine, then 2× and 8× the tiles with
/// the distance-modelled mesh network.
fn scale_cells() -> [ScaleCell; 3] {
    [
        ("baseline 32t/4mc uniform", SystemConfig::baseline_32core),
        ("mesh 64t/8mc", SystemConfig::mesh_64),
        ("mesh 256t/16mc", SystemConfig::mesh_256x16),
    ]
}

fn scale_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 8 } else { 20 };
    scale_cells()
        .iter()
        .enumerate()
        .map(|(i, (label, _))| Params::new("scale", *label, i, epochs))
        .collect()
}

/// Half the tiles stream reads at weight 3, the other half at weight 1
/// (the Fig. 5 contest scaled to the machine), warmed for `p.epochs / 2`
/// and measured for `p.epochs`. The jitter column is where the 256-tile
/// wobble shows: one global M paces 256 tiles toward 16 controllers, so
/// each step moves 8x the baseline's traffic and the loop hunts around
/// its fixed point.
fn scale_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let cfg = (scale_cells()[p.index].1)();
    let half = cfg.cores / 2;
    let mut sys = ctx.build(
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, read_streamers(0, half, p.seed))
            .class(1, read_streamers(1, half, p.seed)),
    );
    let warm = p.epochs / 2;
    sys.run_epochs(warm + p.epochs);
    ctx.report(&sys);
    eprintln!("  done {}", p.config);
    let m = sys.metrics();
    let (error_pct, bpc) = tail_alloc(m, [3.0, 1.0], warm);
    let sat_tail = &m.sat_series[warm..];
    let sat_duty = sat_tail.iter().filter(|&&s| s).count() as f64 / sat_tail.len().max(1) as f64;
    ctx.finish(
        p,
        vec![
            ("error_pct", error_pct),
            ("bpc", bpc),
            ("sat_duty", sat_duty),
            ("jitter", jitter(&m.m_series[warm..])),
        ],
        Vec::new(),
    )
}

fn scale_render(results: &[ExperimentResult]) -> String {
    let mut t =
        Table::new(vec!["machine", "alloc error %", "total GB/s", "SAT duty", "mean |dM|/M"]);
    for r in results {
        t.row(vec![
            r.params.config.clone(),
            format!("{:.1}", r.metric("error_pct")),
            gbps(r.metric("bpc")),
            format!("{:.2}", r.metric("sat_duty")),
            format!("{:.3}", r.metric("jitter")),
        ]);
    }
    format!(
        "Scale — one wired-OR SAT + global governor vs machine size (3:1 streams)\n\
         (expected: allocation holds at every size, but the single-M loop's\n \
         step size grows with the machine — watch the 256-tile jitter column\n \
         for the governor hunting around its fixed point)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Mechanisms: the governor × arbiter zoo. Registered but not in
// ALL_FIGURES — mechanism comparisons are a design-space study, not a
// paper figure, and `all_figures` output must stay byte-stable.
// ---------------------------------------------------------------------

/// The mechanism pairs the sweep compares. The first entry is the
/// paper's default (SAT governor + EDF arbiter); the rest swap exactly
/// one side of the seam at a time so differences attribute cleanly.
/// Shared with [`crate::chaos`] (every campaign cell draws one pair)
/// and the chaos-envelope integration test.
pub const MECHANISM_COMBOS: [(GovernorKind, ArbiterMode); 4] = [
    (GovernorKind::Sat, ArbiterMode::Edf),
    (GovernorKind::LmsAr, ArbiterMode::Edf),
    (GovernorKind::Sat, ArbiterMode::PerBank),
    (GovernorKind::Sat, ArbiterMode::Dpq),
];

/// The workload mixes each pair runs under: (label, chaser_mix).
const MECHANISM_MIXES: [(&str, bool); 2] =
    [("memcached+streams", false), ("memcached+chasers", true)];

fn mechanisms_cells() -> Vec<(GovernorKind, ArbiterMode, &'static str, bool)> {
    let mut cells = Vec::new();
    for (mix, chaser) in MECHANISM_MIXES {
        for (g, a) in MECHANISM_COMBOS {
            cells.push((g, a, mix, chaser));
        }
    }
    cells
}

fn mechanisms_grid(quick: bool) -> Vec<Params> {
    let epochs = if quick { 10 } else { 30 };
    mechanisms_cells()
        .iter()
        .enumerate()
        .map(|(i, (g, a, mix, _))| {
            Params::new("mechanisms", format!("{mix}/{}/{}", g.label(), a.label()), i, epochs)
        })
        .collect()
}

/// One zoo cell on the scaled 8-core machine, the (governor, arbiter)
/// pair selected through [`SystemConfig`] as a provenance-tracked run
/// would: class 0 (weight 3) is a memcached server plus three
/// aggressors, read streamers or (in the chaser mix) pointer chasers;
/// class 1 (weight 1) is four read streamers.
fn mechanisms_run(p: &Params, mut ctx: RunCtx) -> ExperimentResult {
    let (governor, arbiter, _, chaser_mix) = mechanisms_cells()[p.index];
    let mut cfg = SystemConfig::scaled_8core();
    cfg.governor = governor;
    cfg.arbiter = arbiter;
    // The server gets address-space slice 2 so its region never collides
    // with the per-class aggressor slices.
    let mut c0: Vec<Box<dyn Workload>> =
        vec![Box::new(MemcachedGen::new(region_for(2, 0, 1 << 18), p.seed + 7))];
    c0.extend(if chaser_mix { chasers(0, 3, p.seed) } else { read_streamers(0, 3, p.seed) });
    let mut sys = ctx.build(
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, c0)
            .class(1, read_streamers(1, 4, p.seed)),
    );
    let warm = p.epochs / 2;
    sys.run_epochs(warm);
    sys.mark_measurement();
    sys.run_epochs(p.epochs);
    ctx.report(&sys);
    let (error_pct, bpc) = tail_alloc(sys.metrics(), [3.0, 1.0], warm);
    let h = &mut sys.metrics_mut().service[0];
    let (p95, p99) = (h.percentile(95.0).unwrap_or(0), h.percentile(99.0).unwrap_or(0));
    ctx.finish(
        p,
        vec![("error_pct", error_pct), ("bpc", bpc), ("p95", p95 as f64), ("p99", p99 as f64)],
        Vec::new(),
    )
}

fn mechanisms_render(results: &[ExperimentResult]) -> String {
    let cells = mechanisms_cells();
    let mut t = Table::new(vec![
        "mix",
        "governor",
        "arbiter",
        "alloc error %",
        "total GB/s",
        "svc p95",
        "svc p99",
    ]);
    for (r, (g, a, mix, _)) in results.iter().zip(&cells) {
        t.row(vec![
            (*mix).into(),
            g.label().into(),
            a.label().into(),
            format!("{:.1}", r.metric("error_pct")),
            gbps(r.metric("bpc")),
            format!("{}", r.metric("p95")),
            format!("{}", r.metric("p99")),
        ]);
    }
    format!(
        "Mechanisms — competing governor and arbiter mechanisms behind the\n\
         Governor / TargetArbiter seams (sat/edf is the paper's pair; each\n \
         other row swaps one side of one seam)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_grids_are_consistent() {
        for exp in &EXPERIMENTS {
            assert!(find(exp.name).is_some(), "{} must be findable", exp.name);
            for quick in [false, true] {
                let grid = (exp.grid)(quick);
                for (i, p) in grid.iter().enumerate() {
                    assert_eq!(p.index, i, "{}: index matches grid position", exp.name);
                    assert_eq!(p.experiment, exp.name, "{}: cell tagged with owner", exp.name);
                }
                let mut names: Vec<&str> = grid.iter().map(|p| p.config.as_str()).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), grid.len(), "{}: config names unique", exp.name);
            }
        }
    }

    #[test]
    fn all_figures_names_resolve() {
        for name in ALL_FIGURES {
            assert!(find(name).is_some(), "{name} must be registered");
        }
        assert!(find("fig02").is_none());
    }

    #[test]
    fn table03_renders_without_running_anything() {
        let out = table03_render(&[]);
        assert!(out.starts_with("Table III — simulated system configuration\n\n"));
        assert!(out.contains("pacer burst"));
    }
}
