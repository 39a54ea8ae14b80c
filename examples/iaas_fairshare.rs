//! Four IaaS tenants with equal 25% bandwidth shares (the paper's Use
//! Case 2, evaluated in Fig. 11).
//!
//! One tenant is idle-ish (its working set fits in cache); PABST's work
//! conservation hands its unused share to the other three — yet each
//! tenant is still guaranteed its quarter when everyone is busy.
//!
//! ```text
//! cargo run -p pabst-examples --bin iaas_fairshare --release
//! ```

use pabst_cpu::Workload;
use pabst_simkit::bytes_per_cycle_to_gbps;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{read_streamers, region_for, StreamGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tenants 0-2: memory-hungry streamers, 8 cores each.
    // Tenant 3: cache-resident (generates almost no DRAM traffic).
    let resident: Vec<Box<dyn Workload>> = (0..8)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(3, i, 2048), 300 + i as u64)) as Box<dyn Workload>
        })
        .collect();
    let mut b = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst);
    for t in 0..3 {
        b = b.class(1, read_streamers(t, 8, 0)).l3_ways(t * 4, 4);
    }
    let mut sys = b.class(1, resident).l3_ways(12, 4).build()?;

    sys.run_epochs(40);

    println!("four equal-share tenants (25% each), tenant 3 cache-resident\n");
    let m = sys.metrics();
    for t in 0..4 {
        println!(
            "tenant {t}: {:5.1} GB/s ({:4.1}% of traffic)",
            bytes_per_cycle_to_gbps(m.mean_bytes_per_cycle(t, 20)),
            m.mean_share(t, 20) * 100.0,
        );
    }
    println!("\nTenant 3's unused quarter is redistributed equally among the");
    println!("busy tenants (~33% each) — work conservation with a floor.");
    Ok(())
}
