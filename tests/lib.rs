//! Shared helpers for the cross-crate integration tests.
//!
//! The test binaries in this package exercise the full modelled machine:
//! cores → caches → pacers → network → L3 → priority arbiter → DRAM, with
//! the governor feedback loop closed over the saturation signal. They
//! build their per-class core lists with the seeded builders in
//! `pabst_workloads::builders`, at seed `0`.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};

/// Builds a two-class 16+16-core system on the paper's baseline machine.
pub fn two_class_32core(
    mode: RegulationMode,
    w0: u32,
    w1: u32,
    c0: Vec<Box<dyn Workload>>,
    c1: Vec<Box<dyn Workload>>,
) -> System {
    SystemBuilder::new(SystemConfig::baseline_32core(), mode)
        .class(w0, c0)
        .class(w1, c1)
        .build()
        .expect("valid experiment configuration")
}
