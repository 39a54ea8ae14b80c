//! §III-B3 "Accounting for Cache Filtering": requests that hit in the
//! shared L3 are refunded by the pacer, so a class working out of the L3
//! is not throttled by bandwidth regulation it isn't using.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{read_streamers, region_for, StreamGen};

/// Builds: class 0 = one core streaming a 512 KiB region (fits its 4 MiB L3
/// partition, exceeds its 256 KiB private L2 → all L2 misses, all L3 hits after
/// warmup); class 1 = 16 DDR streamers keeping the governor throttling.
fn l3_resident_ipc(mode: RegulationMode) -> f64 {
    let resident: Vec<Box<dyn Workload>> =
        vec![Box::new(StreamGen::reads(region_for(0, 0, 8 * 1024), 1))];
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), mode)
        .class(1, resident)
        .l3_ways(0, 4)
        .class(1, read_streamers(1, 16, 0))
        .l3_ways(4, 12)
        .build()
        .unwrap();
    sys.run_epochs(14); // warm the L3 (first full pass over the region)
    sys.mark_measurement();
    sys.run_epochs(12);
    sys.ipc_since_mark(0)
}

#[test]
fn l3_hits_are_not_throttled() {
    let unregulated = l3_resident_ipc(RegulationMode::None);
    let pabst = l3_resident_ipc(RegulationMode::Pabst);
    eprintln!("L3-resident IPC: none {unregulated:.3}, pabst {pabst:.3}");
    // Despite aggressive pacing of real memory traffic, the L3-resident
    // class's shared-cache hits must flow at (nearly) full speed because
    // every charge is refunded on the L3-hit response.
    assert!(pabst > 0.7 * unregulated, "pacer must refund L3 hits: {pabst:.3} vs {unregulated:.3}");
}

#[test]
fn l3_resident_class_consumes_no_memory_bandwidth() {
    let resident: Vec<Box<dyn Workload>> =
        vec![Box::new(StreamGen::reads(region_for(0, 0, 8 * 1024), 1))];
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(1, resident)
        .l3_ways(0, 4)
        .class(1, read_streamers(1, 16, 0))
        .l3_ways(4, 12)
        .build()
        .unwrap();
    sys.run_epochs(14);
    sys.mark_measurement();
    sys.run_epochs(12);
    let resident_bytes = sys.bytes_since_mark(0);
    let streamer_bytes = sys.bytes_since_mark(1);
    eprintln!("bytes: resident {resident_bytes}, streamers {streamer_bytes}");
    assert!(
        (resident_bytes as f64) < 0.02 * streamer_bytes as f64,
        "an L3-resident class must not consume DRAM bandwidth after warmup"
    );
}
