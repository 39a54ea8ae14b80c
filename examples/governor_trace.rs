//! Watch the PABST governor converge: prints M, SAT and per-class
//! bandwidth for every epoch of a 7:3 streamer run.
//!
//! ```text
//! cargo run -p pabst-examples --bin governor_trace --release
//! ```

use pabst_simkit::bytes_per_cycle_to_gbps;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::read_streamers;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(7, read_streamers(0, 16, 0))
        .class(3, read_streamers(1, 16, 0))
        .build()?;
    sys.run_epochs(40);

    println!("epoch    M  SAT  class0 GB/s  class1 GB/s  share0");
    let m = sys.metrics();
    for e in 0..m.bw_series.epochs() {
        let p = m.bw_series.epoch(e);
        let ec = m.bw_series.epoch_cycles() as f64;
        let total = p[0] + p[1];
        println!(
            "{:>5} {:>5}  {}  {:>11.1}  {:>11.1}  {:>6}",
            e,
            m.m_series[e],
            if m.sat_series[e] { "1" } else { "0" },
            bytes_per_cycle_to_gbps(p[0] / ec),
            bytes_per_cycle_to_gbps(p[1] / ec),
            if total > 0.0 { format!("{:.3}", p[0] / total) } else { "-".into() },
        );
    }
    println!("\nM rises while the controllers are saturated (SAT=1) and falls");
    println!("otherwise; near the operating point SAT alternates and the");
    println!("adjustments shrink (Tables I-II).");
    Ok(())
}
