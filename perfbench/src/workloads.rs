//! The benchmark's workloads: which machine, which traffic, and how many
//! epochs one episode warms and measures.
//!
//! The seed reaches the simulator only through the traffic generators
//! (`scenarios::read_streamers`, `scenarios::write_streamers`,
//! `ChaserGen`). Streamers use it only to salt their load ids, so their
//! simulated behaviour is the same for every seed; the chasers draw their
//! addresses from it.

use pabst_bench::scenarios::{read_streamers, region_for, write_streamers};
use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::ChaserGen;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Epochs run after `SystemBuilder::build` before the measured window
    /// (part of set-up).
    pub warm_epochs: usize,
    /// Epochs in one episode's measured window.
    pub measure_epochs: usize,
    /// Epochs of the episode the skip-off oracle replays.
    pub oracle_epochs: usize,
    /// Timed slices per epoch: the unit whose host time is compared
    /// across repeats. Tens of milliseconds each, shorter than most slow
    /// spells of a shared host.
    pub slices_per_epoch: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Spec; 4] = [
    // The committed `baseline` profile (Fig. 5/7 contest): controllers
    // busy, tiles parked ~95%, so DRAM, interconnect drain, L3 service
    // and the pacer dominate host time.
    Spec {
        name: "read_stream",
        warm_epochs: 8,
        measure_epochs: 40,
        oracle_epochs: 2,
        slices_per_epoch: 1,
    },
    // Same machine and weights, class 0 writing: the store path (core
    // store issue, L1/L2 write probes, dirty writebacks, MC write queues).
    // One epoch costs about a second of host time, hence the one-epoch
    // warm-up and window (more repeats of it in a run), and 1000-cycle
    // slices.
    Spec {
        name: "write_stream",
        warm_epochs: 1,
        measure_epochs: 1,
        oracle_epochs: 1,
        slices_per_epoch: 20,
    },
    // The committed `chaser` profile: mostly idle, frequent 2000-cycle
    // epochs, so horizon probes, park/wake edges and epoch-boundary work
    // dominate.
    Spec {
        name: "chaser_idle",
        warm_epochs: 8,
        measure_epochs: 2000,
        oracle_epochs: 200,
        slices_per_epoch: 1,
    },
    // The committed `mesh_256x16` profile: the only Mesh-network machine
    // and the only one with 256 park/wake domains. An epoch costs about
    // 0.1 s, so it is timed in four slices.
    Spec {
        name: "mesh_stream",
        warm_epochs: 8,
        measure_epochs: 16,
        oracle_epochs: 2,
        slices_per_epoch: 4,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// Single-chain pointer chasers, as in the committed `chaser` profile:
/// each core walks one dependence chain and never overlaps its misses.
fn chasers_1chain(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(ChaserGen::new(region_for(class, i, 1 << 18), 1, seed.wrapping_add(i as u64)))
                as Box<dyn Workload>
        })
        .collect()
}

/// The machine configuration of a workload.
pub fn config(spec: &Spec) -> SystemConfig {
    match spec.name {
        "read_stream" | "write_stream" => SystemConfig::baseline_32core(),
        "mesh_stream" => SystemConfig::mesh_256x16(),
        _ => {
            let mut cfg = SystemConfig::small_test();
            // Quarter-speed DDR stretches every miss, so nearly all of
            // simulated time is stall.
            cfg.dram = cfg.dram.down_clocked(4);
            cfg
        }
    }
}

/// The per-class generators of a workload: `(weight, cores)` for class 0
/// then class 1, both at 3:1.
pub fn classes(spec: &Spec, seed: u64) -> [(u32, Vec<Box<dyn Workload>>); 2] {
    match spec.name {
        "read_stream" => [(3, read_streamers(0, 16, seed)), (1, read_streamers(1, 16, seed))],
        "write_stream" => [(3, write_streamers(0, 16, seed)), (1, read_streamers(1, 16, seed))],
        "mesh_stream" => [(3, read_streamers(0, 32, seed)), (1, read_streamers(1, 32, seed))],
        _ => [(3, chasers_1chain(0, 2, seed)), (1, chasers_1chain(1, 2, seed))],
    }
}

/// A builder for the workload's machine, every generator passed through
/// `wrap` (the traced run's timing decorator; the identity otherwise).
pub fn builder(
    spec: &Spec,
    seed: u64,
    wrap: &mut dyn FnMut(Box<dyn Workload>) -> Box<dyn Workload>,
) -> SystemBuilder {
    let mut b = SystemBuilder::new(config(spec), RegulationMode::Pabst);
    for (weight, gens) in classes(spec, seed) {
        b = b.class(weight, gens.into_iter().map(&mut *wrap).collect());
    }
    b
}
