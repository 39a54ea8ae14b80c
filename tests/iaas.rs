//! Fig. 11: work-conserving fairness in an IaaS consolidation — four
//! equal-share tenants beat a static quarter-bandwidth allocation.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{region_for, SpecProxyGen, SpecWorkload};

fn spec(class: usize, n: usize, w: SpecWorkload) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(SpecProxyGen::new(w, region_for(class, i, 1 << 20), i as u64))
                as Box<dyn Workload>
        })
        .collect()
}

#[test]
fn consolidation_beats_static_quarter_allocation() {
    let w = SpecWorkload::Milc;

    // PABST: four 8-core classes at equal 25% shares.
    let mut b = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst);
    for c in 0..4 {
        b = b.class(1, spec(c, 8, w)).l3_ways(c * 4, 4);
    }
    let mut sys = b.build().unwrap();
    sys.run_epochs(8);
    sys.mark_measurement();
    sys.run_epochs(15);
    let pabst_ipc = (0..32).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / 32.0;

    // Static baseline: 8 cores alone with DDR frequency divided by 4.
    let mut cfg = SystemConfig::baseline_32core();
    cfg.cores = 8;
    cfg.dram = cfg.dram.down_clocked(4);
    let mut base = SystemBuilder::new(cfg, RegulationMode::None)
        .class(1, spec(0, 8, w))
        .l3_ways(0, 4)
        .build()
        .unwrap();
    base.run_epochs(8);
    base.mark_measurement();
    base.run_epochs(15);
    let static_ipc = (0..8).map(|i| base.ipc_since_mark(i)).sum::<f64>() / 8.0;

    let gain = (pabst_ipc / static_ipc - 1.0) * 100.0;
    eprintln!("milc: static {static_ipc:.3}, pabst {pabst_ipc:.3} IPC ({gain:+.0}%)");
    // Paper: 15-90% improvement from work conservation.
    assert!(gain > 10.0, "consolidation must beat the static allocation, got {gain:+.0}%");
}
