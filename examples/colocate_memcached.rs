//! Co-locating a latency-critical memcached server with batch streamers
//! (the paper's Use Case 1, evaluated in Fig. 9).
//!
//! Runs the same co-location twice — without QoS and with PABST at a 20:1
//! share — and prints the transaction service-time distribution of each.
//!
//! ```text
//! cargo run -p pabst-examples --bin colocate_memcached --release
//! ```

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{region_for, MemcachedGen, StreamGen};

fn run(mode: RegulationMode) -> Result<(f64, u64, u64), Box<dyn std::error::Error>> {
    let server: Vec<Box<dyn Workload>> =
        vec![Box::new(MemcachedGen::new(region_for(0, 0, 1 << 18), 7))];
    let aggressors: Vec<Box<dyn Workload>> = (0..7)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(1, i, 1 << 20), 50 + i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let mut sys = SystemBuilder::new(SystemConfig::scaled_8core(), mode)
        .class(20, server)
        .l3_ways(0, 8)
        .class(1, aggressors)
        .l3_ways(8, 8)
        .build()?;
    sys.run_epochs(10); // warmup
    sys.mark_measurement();
    sys.run_epochs(40);
    let h = &mut sys.metrics_mut().service[0];
    Ok((h.mean().unwrap_or(0.0), h.percentile(95.0).unwrap_or(0), h.percentile(99.0).unwrap_or(0)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("memcached + 7 streaming cores on the scaled 8-core machine\n");
    for (label, mode) in
        [("no QoS       ", RegulationMode::None), ("PABST, 20:1  ", RegulationMode::Pabst)]
    {
        let (mean, p95, p99) = run(mode)?;
        println!("{label}: mean {mean:6.0} cyc   p95 {p95:6} cyc   p99 {p99:6} cyc");
    }
    println!("\nPABST restores both the average and the tail (compare Fig. 9).");
    Ok(())
}
