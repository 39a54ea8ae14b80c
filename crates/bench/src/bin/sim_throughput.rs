//! Self-profiles the simulator: simulated cycles per wall-clock second on
//! the small-test, baseline and mesh machines (read streamers, chasers,
//! and write streamers on the baseline), a per-epoch step() timing via
//! the in-repo micro-benchmark harness, and a serial-vs-parallel sweep
//! comparison through `harness::run_indexed` (the `all_figures` executor).
//!
//! Each profile's window, skip-on and naive alike, is timed 5 times (once
//! under `--quick`) on freshly built systems, and the fastest run is kept:
//! host noise only ever adds time.
//!
//! Writes `BENCH_sim_throughput.json` (override with `--out <path>`) —
//! the seed of the repo's perf trajectory; CI runs this in `--quick`
//! (smoke) mode and uploads the artifact, and the committed file is the
//! full-mode result the next perf PR measures against.

use std::time::Instant;

use pabst_bench::obs::CliArgs;
use pabst_bench::scenarios::{read_streamers, region_for, write_streamers};
use pabst_bench::{harness, timing};
use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};
use pabst_workloads::ChaserGen;

/// One profiled configuration, timed twice: with partitioned cycle
/// skipping (the default execution strategy) and naive per-cycle
/// stepping (`skip(false)`, the `--no-skip` baseline).
struct Profile {
    name: &'static str,
    epoch_cycles: u64,
    epochs_timed: u64,
    elapsed_ns: u128,
    cycles_per_sec: u64,
    noskip_elapsed_ns: u128,
    noskip_cycles_per_sec: u64,
    /// Cycles fast-forwarded by *global* jumps during the timed window.
    cycles_skipped: u64,
    /// `cycles_skipped / cycles_timed` — the fraction of simulated time
    /// the whole machine jumped over at once.
    skip_rate: f64,
    /// Tile-cycles elided by tile-local parking during the window.
    tile_cycles_skipped: u64,
    /// `tile_cycles_skipped / (cycles_timed * tiles)` — the fraction of
    /// per-tile stepping the domain scheduler elided (global jump
    /// windows included: a jump parks everything).
    tile_skip_rate: f64,
    /// Controller-cycles accrued by global jumps during the window
    /// (controllers never park; a jump skips every live one).
    mc_cycles_skipped: u64,
    /// `mc_cycles_skipped / (cycles_timed * mcs)`.
    mc_skip_rate: f64,
}

/// One cell of the probe-backoff sweep: cycles/second with the given
/// [`pabst_soc::system::SystemBuilder::probe_backoff_cap`].
struct BackoffPoint {
    prof_name: &'static str,
    cap: u64,
    cycles_per_sec: u64,
}

/// Serial vs parallel wall-clock for a batch of independent runs.
struct SweepProfile {
    runs: usize,
    jobs: usize,
    serial_ns: u128,
    parallel_ns: u128,
}

/// Single-chain pointer chasers: each core walks one dependence chain,
/// so it can never overlap its own misses — the latency-bound,
/// memory-stall-heavy regime the event-horizon fast-forward targets.
fn chasers_1chain(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(ChaserGen::new(region_for(class, i, 1 << 18), 1, seed + i as u64))
                as Box<dyn Workload>
        })
        .collect()
}

fn build(name: &str, skip: bool) -> System {
    build_capped(name, skip, None)
}

fn build_capped(name: &str, skip: bool, cap: Option<u64>) -> System {
    let (mut cfg, per_class) = match name {
        "baseline" | "write_stream" => (SystemConfig::baseline_32core(), 16),
        "mesh_64" => (SystemConfig::mesh_64(), 32),
        "mesh_256x16" => (SystemConfig::mesh_256x16(), 32),
        _ => (SystemConfig::small_test(), 2),
    };
    let b = if name == "chaser" {
        // Quarter-speed DDR (the fig11 static-baseline knob) stretches
        // every miss, so nearly all of simulated time is pure stall.
        cfg.dram = cfg.dram.down_clocked(4);
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, chasers_1chain(0, per_class, 0))
            .class(1, chasers_1chain(1, per_class, 0))
    } else if name == "write_stream" {
        // The baseline machine with class 0 writing: its cores keep every
        // L2 MSHR busy, so the store path and refused accesses dominate.
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, write_streamers(0, per_class, 0))
            .class(1, read_streamers(1, per_class, 0))
    } else {
        SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(3, read_streamers(0, per_class, 0))
            .class(1, read_streamers(1, per_class, 0))
    };
    let b = match cap {
        Some(c) => b.probe_backoff_cap(c),
        None => b,
    };
    b.skip(skip).build().expect("throughput configuration")
}

/// What one timed window measured: wall clock plus the three skip
/// counters (global jumps, tile-cycles parked, controller-cycles the
/// jumps accrued) and the domain counts that normalise the latter two.
struct TimedRun {
    elapsed_ns: u128,
    cycles_per_sec: u64,
    cycles_skipped: u64,
    tile_cycles_skipped: u64,
    mc_cycles_skipped: u64,
    tiles: u64,
    mcs: u64,
}

/// The fastest of `repeats` timed windows of `epochs` epochs of `name` in
/// one skip mode, each on a freshly built system.
fn time_run(name: &str, epochs: u64, skip: bool, repeats: usize) -> TimedRun {
    (0..repeats)
        .map(|_| time_run_capped(name, epochs, skip, None))
        .min_by_key(|r| r.elapsed_ns)
        .expect("at least one repeat")
}

/// [`time_run`] with an optional probe-backoff cap override (the sweep).
fn time_run_capped(name: &str, epochs: u64, skip: bool, cap: Option<u64>) -> TimedRun {
    let mut sys = build_capped(name, skip, cap);
    sys.run_epochs(1); // warm caches, queues, and the governor
    let skipped_before = sys.cycles_skipped();
    let tile_before = sys.tile_cycles_skipped();
    let mc_before = sys.mc_cycles_skipped();
    let epoch_cycles = sys.metrics().bw_series.epoch_cycles();
    let start = Instant::now();
    sys.run_epochs(epochs as usize);
    let elapsed = start.elapsed();
    let cycles = epochs * epoch_cycles;
    let secs = elapsed.as_secs_f64();
    let cps = if secs > 0.0 { (cycles as f64 / secs) as u64 } else { 0 };
    TimedRun {
        elapsed_ns: elapsed.as_nanos(),
        cycles_per_sec: cps,
        cycles_skipped: sys.cycles_skipped() - skipped_before,
        tile_cycles_skipped: sys.tile_cycles_skipped() - tile_before,
        mc_cycles_skipped: sys.mc_cycles_skipped() - mc_before,
        tiles: sys.tiles().len() as u64,
        mcs: sys.mc_count() as u64,
    }
}

fn profile(name: &'static str, epochs: u64, repeats: usize) -> Profile {
    let epoch_cycles = build(name, true).metrics().bw_series.epoch_cycles();
    let timed = time_run(name, epochs, true, repeats);
    let naive = time_run(name, epochs, false, repeats);
    let cycles = epochs * epoch_cycles;
    let rate = timed.cycles_skipped as f64 / cycles as f64;
    let tile_rate = timed.tile_cycles_skipped as f64 / (cycles * timed.tiles) as f64;
    let mc_rate = timed.mc_cycles_skipped as f64 / (cycles * timed.mcs) as f64;
    println!(
        "{name:<12} {epochs:>3} epochs x {epoch_cycles} cycles in {:>8.1} ms  ->  {} cycles/s \
         (global skip {:.1}%, tile-local {:.1}%, mc jumped {:.1}%, naive {} cycles/s)",
        timed.elapsed_ns as f64 / 1e6,
        timed.cycles_per_sec,
        rate * 100.0,
        tile_rate * 100.0,
        mc_rate * 100.0,
        naive.cycles_per_sec,
    );
    Profile {
        name,
        epoch_cycles,
        epochs_timed: epochs,
        elapsed_ns: timed.elapsed_ns,
        cycles_per_sec: timed.cycles_per_sec,
        noskip_elapsed_ns: naive.elapsed_ns,
        noskip_cycles_per_sec: naive.cycles_per_sec,
        cycles_skipped: timed.cycles_skipped,
        skip_rate: rate,
        tile_cycles_skipped: timed.tile_cycles_skipped,
        tile_skip_rate: tile_rate,
        mc_cycles_skipped: timed.mc_cycles_skipped,
        mc_skip_rate: mc_rate,
    }
}

/// Times `baseline` and `chaser` across probe-backoff caps — the data
/// behind the `DEFAULT_PROBE_BACKOFF_CAP` choice. A cap of 1 disables
/// backoff (probe every cycle after a failed skip); larger caps let the
/// probe retreat exponentially when the machine stays busy.
fn backoff_sweep(quick: bool) -> Vec<BackoffPoint> {
    let caps: &[u64] = if quick { &[1, 8, 64] } else { &[1, 2, 4, 8, 16, 32, 64] };
    let epochs = if quick { 2 } else { 6 };
    let mut points = Vec::new();
    for prof_name in ["baseline", "chaser"] {
        for &cap in caps {
            let timed = time_run_capped(prof_name, epochs, true, Some(cap));
            println!(
                "backoff    {prof_name:<10} cap {cap:>3}  ->  {} cycles/s",
                timed.cycles_per_sec
            );
            points.push(BackoffPoint { prof_name, cap, cycles_per_sec: timed.cycles_per_sec });
        }
    }
    points
}

/// Times the same batch of independent small-machine runs twice through
/// the sweep executor — once serially, once on `jobs` workers — the
/// wall-clock scaling `all_figures --jobs N` gets on this host.
fn profile_sweep(jobs: usize, runs: usize, epochs: usize) -> SweepProfile {
    let items: Vec<usize> = (0..runs).collect();
    let run_one = |_i: usize, _item: &usize| {
        let mut sys = build("small", true);
        sys.run_epochs(epochs);
    };
    let start = Instant::now();
    harness::run_indexed(1, &items, run_one);
    let serial_ns = start.elapsed().as_nanos();
    let start = Instant::now();
    harness::run_indexed(jobs, &items, run_one);
    let parallel_ns = start.elapsed().as_nanos();
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    println!(
        "sweep      {runs} x {epochs} small epochs: serial {:>8.1} ms, --jobs {jobs} {:>8.1} ms  ->  {speedup:.2}x",
        serial_ns as f64 / 1e6,
        parallel_ns as f64 / 1e6,
    );
    SweepProfile { runs, jobs, serial_ns, parallel_ns }
}

fn to_json(
    repeats: usize,
    profiles: &[Profile],
    backoff: &[BackoffPoint],
    sweep: &SweepProfile,
) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"bench\":\"sim_throughput\",\"repeats\":{repeats},\"configs\":[");
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"epoch_cycles\":{},\"epochs_timed\":{},\
             \"elapsed_ns\":{},\"cycles_per_sec\":{},\"noskip_elapsed_ns\":{},\
             \"noskip_cycles_per_sec\":{},\"cycles_skipped\":{},\"skip_rate\":{:.4},\
             \"tile_cycles_skipped\":{},\"tile_skip_rate\":{:.4},\
             \"mc_cycles_skipped\":{},\"mc_skip_rate\":{:.4}}}",
            p.name,
            p.epoch_cycles,
            p.epochs_timed,
            p.elapsed_ns,
            p.cycles_per_sec,
            p.noskip_elapsed_ns,
            p.noskip_cycles_per_sec,
            p.cycles_skipped,
            p.skip_rate,
            p.tile_cycles_skipped,
            p.tile_skip_rate,
            p.mc_cycles_skipped,
            p.mc_skip_rate
        );
    }
    s.push_str("],\"backoff_sweep\":[");
    for (i, b) in backoff.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"profile\":\"{}\",\"cap\":{},\"cycles_per_sec\":{}}}",
            b.prof_name, b.cap, b.cycles_per_sec
        );
    }
    let _ = writeln!(
        s,
        "],\"sweep\":{{\"runs\":{},\"jobs\":{},\"serial_ns\":{},\"parallel_ns\":{}}}}}",
        sweep.runs, sweep.jobs, sweep.serial_ns, sweep.parallel_ns
    );
    s
}

fn main() {
    let args = CliArgs::parse();
    let quick = args.quick;
    let epochs = if quick { 2 } else { 10 };
    let repeats = if quick { 1 } else { 5 };
    println!(
        "simulator throughput ({} mode, fastest of {repeats} per window)",
        if quick { "smoke" } else { "full" }
    );

    let profiles: Vec<Profile> =
        ["small", "baseline", "mesh_64", "mesh_256x16", "chaser", "write_stream"]
            .into_iter()
            .map(|name| profile(name, epochs, repeats))
            .collect();

    // Probe-backoff cap sweep — the evidence behind the builder default.
    let backoff = backoff_sweep(quick);

    // Per-epoch wall time through the micro-benchmark harness (median of
    // 9 samples, fresh warmed system per sample) — the step()-path number
    // a perf PR should move.
    if !quick {
        timing::bench_batched(
            "epoch(small_test, 4 streamers)",
            || {
                let mut sys = build("small", true);
                sys.run_epochs(1);
                sys
            },
            |mut sys| sys.run_epochs(1),
        );
    }

    // Sweep scaling through the same executor all_figures uses.
    let sweep_runs = 4;
    let sweep_jobs = harness::worker_count(args.jobs, sweep_runs);
    let sweep = profile_sweep(sweep_jobs, sweep_runs, if quick { 2 } else { 6 });

    let out = args.out.unwrap_or_else(|| "BENCH_sim_throughput.json".to_string());
    let json = to_json(repeats, &profiles, &backoff, &sweep);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
