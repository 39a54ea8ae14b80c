//! Per-class workload builders: one generator per core, each over its
//! own disjoint address region and seeded from a base `seed` (`0`
//! reproduces the paper runs).

use pabst_cpu::Workload;

use crate::{ChaserGen, Region, SpecProxyGen, SpecWorkload, StreamGen};

/// A disjoint address region for (class, core).
pub fn region_for(class: usize, core: usize, lines: u64) -> Region {
    Region::new(((class as u64) << 40) + ((core as u64) << 32), lines)
}

/// `n` read streamers for a class, seeded `seed + class*64 + i`.
pub fn read_streamers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(StreamGen::reads(
                region_for(class, i, 1 << 20),
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` write streamers for a class, seeded `seed + class*64 + i`.
pub fn write_streamers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(StreamGen::writes(
                region_for(class, i, 1 << 20),
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` chasers (4 chains each) for a class, seeded `seed + class*64 + i`.
pub fn chasers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(ChaserGen::new(
                region_for(class, i, 1 << 18),
                4,
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` instances of a SPEC proxy for a class, seeded `seed + i`.
pub fn spec_cores(
    which: SpecWorkload,
    class: usize,
    n: usize,
    seed: u64,
) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(SpecProxyGen::new(which, region_for(class, i, 1 << 20), seed + i as u64))
                as Box<dyn Workload>
        })
        .collect()
}
