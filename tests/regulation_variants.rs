//! Regulation-granularity variants: the per-MC SAT/governor option of
//! §III-C1 against the paper's default global wired-OR.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{read_streamers, region_for, SkewedStreamGen};

fn skewed_total_bpc(per_mc: bool) -> f64 {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.per_mc_regulation = per_mc;
    let skewed: Vec<Box<dyn Workload>> = (0..16)
        .map(|i| {
            Box::new(SkewedStreamGen::new(region_for(0, i, 1 << 20), 0, cfg.mcs, i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(1, skewed)
        .class(1, read_streamers(1, 16, 0))
        .build()
        .unwrap();
    sys.run_epochs(40);
    sys.metrics().total_bytes_per_cycle(20)
}

/// With all of class 0's traffic hammering controller 0, the global
/// wired-OR SAT throttles traffic to the other three controllers as well;
/// per-MC governors recover a large part of that lost bandwidth.
#[test]
fn per_mc_governors_recover_skewed_traffic_utilization() {
    let global = skewed_total_bpc(false);
    let per_mc = skewed_total_bpc(true);
    eprintln!("skewed-traffic total B/cyc: global {global:.2}, per-MC {per_mc:.2}");
    assert!(
        per_mc > 1.1 * global,
        "per-MC regulation must beat the global wired-OR under skew: \
         {per_mc:.2} vs {global:.2}"
    );
}

/// Per-MC regulation must not break proportional allocation for uniform
/// traffic (it should behave like the global design).
#[test]
fn per_mc_governors_preserve_proportions_for_uniform_traffic() {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.per_mc_regulation = true;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(7, read_streamers(0, 16, 0))
        .class(3, read_streamers(1, 16, 0))
        .build()
        .unwrap();
    sys.run_epochs(50);
    let s0 = sys.metrics().mean_share(0, 25);
    eprintln!("uniform traffic class0 share under per-MC governors: {s0:.3}");
    assert!((s0 - 0.7).abs() < 0.06, "share {s0:.3}, want ~0.70");
}
