//! Quickstart: partition memory bandwidth 3:1 between two classes of
//! streaming cores on the paper's 32-core machine.
//!
//! ```text
//! cargo run -p pabst-examples --bin quickstart --release
//! ```

use pabst_simkit::bytes_per_cycle_to_gbps;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::read_streamers;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two QoS classes: weight 3 (75%) and weight 1 (25%), each running 16
    // bandwidth-hungry streaming cores.
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(3, read_streamers(0, 16, 0))
        .class(1, read_streamers(1, 16, 0))
        .build()?;

    // 40 epochs of 10 µs each: the governor needs a handful of epochs to
    // find the saturation point, then holds the split.
    sys.run_epochs(40);

    let m = sys.metrics();
    println!("PABST quickstart — 3:1 bandwidth partition between streamers");
    println!("epochs run: {}", sys.epochs_run());
    for class in 0..2 {
        println!(
            "class {class}: {:5.1} GB/s ({:4.1}% of traffic)",
            bytes_per_cycle_to_gbps(m.mean_bytes_per_cycle(class, 20)),
            m.mean_share(class, 20) * 100.0,
        );
    }
    println!("target shares: 75.0% / 25.0%");
    Ok(())
}
