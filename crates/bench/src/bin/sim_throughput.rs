//! Self-profiles the simulator: simulated cycles per wall-clock second on
//! the small-test, baseline and mesh machines (read streamers, chasers,
//! and write streamers on the baseline), and a serial-vs-parallel sweep
//! comparison through `harness::run_indexed` (the `all_figures` executor).
//!
//! Each profile's window, skip-on and naive alike, runs whole epochs
//! until it has taken at least half a second of host time, so fast and
//! slow profiles are measured over comparable host windows. It is timed
//! 5 times on freshly built systems, and the fastest run is kept: host
//! noise only ever adds time. `--quick` times 2 epochs once.
//!
//! Writes `BENCH_sim_throughput.json` (override with `--out <path>`) —
//! the seed of the repo's perf trajectory; CI runs this in `--quick`
//! (smoke) mode and uploads the artifact, and the committed file is the
//! full-mode result the next perf PR measures against.

use std::time::{Duration, Instant};

use pabst_bench::harness;
use pabst_bench::obs::CliArgs;
use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};
use pabst_workloads::{read_streamers, region_for, write_streamers, ChaserGen};

/// How each arm of a profile is timed: the fastest of `repeats` windows,
/// each running whole epochs until it has run `min_epochs` of them and
/// taken `min_host` of host time.
#[derive(Clone, Copy)]
struct Window {
    repeats: usize,
    min_epochs: u64,
    min_host: Duration,
}

/// `--quick`: one window of 2 epochs (the CI smoke).
const QUICK: Window = Window { repeats: 1, min_epochs: 2, min_host: Duration::ZERO };
/// Full mode: fastest of 5 windows of at least 0.5 s each, so a
/// 2,000-cycle `chaser` epoch and a 20,000-cycle mesh epoch are measured
/// over comparable host windows.
const FULL: Window = Window { repeats: 5, min_epochs: 1, min_host: Duration::from_millis(500) };

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
    b.skip(skip).build().expect("throughput configuration")
}

/// What one timed window measured: its length, wall clock, the three
/// skip counters (global jumps, tile-cycles parked, controller-cycles
/// the jumps accrued) and the domain counts that normalise the latter
/// two.
struct TimedRun {
    epochs: u64,
    elapsed_ns: u128,
    cycles_per_sec: u64,
    cycles_skipped: u64,
    tile_cycles_skipped: u64,
    mc_cycles_skipped: u64,
    tiles: u64,
    mcs: u64,
}

/// The fastest of `w.repeats` timed windows of `name` in one skip mode,
/// each on a freshly built system.
fn time_run(name: &str, skip: bool, w: Window) -> TimedRun {
    (0..w.repeats)
        .map(|_| time_window(name, skip, w))
        .max_by_key(|r| r.cycles_per_sec)
        .expect("at least one repeat")
}

fn time_window(name: &str, skip: bool, w: Window) -> TimedRun {
    let mut sys = build(name, skip);
    sys.run_epochs(1); // warm caches, queues, and the governor
    let skipped_before = sys.cycles_skipped();
    let tile_before = sys.tile_cycles_skipped();
    let mc_before = sys.mc_cycles_skipped();
    let epoch_cycles = sys.metrics().bw_series.epoch_cycles();
    let start = Instant::now();
    let mut epochs = 0;
    while epochs < w.min_epochs || start.elapsed() < w.min_host {
        sys.run_epochs(1);
        epochs += 1;
    }
    let elapsed = start.elapsed();
    let cycles = epochs * epoch_cycles;
    let secs = elapsed.as_secs_f64();
    let cps = if secs > 0.0 { (cycles as f64 / secs) as u64 } else { 0 };
    TimedRun {
        epochs,
        elapsed_ns: elapsed.as_nanos(),
        cycles_per_sec: cps,
        cycles_skipped: sys.cycles_skipped() - skipped_before,
        tile_cycles_skipped: sys.tile_cycles_skipped() - tile_before,
        mc_cycles_skipped: sys.mc_cycles_skipped() - mc_before,
        tiles: sys.tiles().len() as u64,
        mcs: sys.mc_count() as u64,
    }
}

fn profile(name: &'static str, w: Window) -> Profile {
    let epoch_cycles = build(name, true).metrics().bw_series.epoch_cycles();
    let timed = time_run(name, true, w);
    let naive = time_run(name, false, w);
    let epochs = timed.epochs;
    let cycles = epochs * epoch_cycles;
    let rate = timed.cycles_skipped as f64 / cycles as f64;
    let tile_rate = timed.tile_cycles_skipped as f64 / (cycles * timed.tiles) as f64;
    let mc_rate = timed.mc_cycles_skipped as f64 / (cycles * timed.mcs) as f64;
    println!(
        "{name:<12} {epochs:>4} epochs x {epoch_cycles} cycles in {:>8.1} ms  ->  {} cycles/s \
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

fn to_json(repeats: usize, profiles: &[Profile], sweep: &SweepProfile) -> String {
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
    let window = if quick { QUICK } else { FULL };
    println!(
        "simulator throughput ({} mode, fastest of {} per window)",
        if quick { "smoke" } else { "full" },
        window.repeats
    );

    let profiles: Vec<Profile> =
        ["small", "baseline", "mesh_64", "mesh_256x16", "chaser", "write_stream"]
            .into_iter()
            .map(|name| profile(name, window))
            .collect();

    // Sweep scaling through the same executor all_figures uses.
    let sweep_runs = 4;
    let sweep_jobs = harness::worker_count(args.jobs, sweep_runs);
    let sweep = profile_sweep(sweep_jobs, sweep_runs, if quick { 2 } else { 6 });

    let out = args.out.unwrap_or_else(|| "BENCH_sim_throughput.json".to_string());
    let json = to_json(window.repeats, &profiles, &sweep);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
