//! Figs. 9–10: performance isolation of latency-critical and batch
//! workloads co-located with a bandwidth aggressor.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{
    read_streamers, region_for, MemcachedGen, SpecProxyGen, SpecWorkload, StreamGen,
};

/// Fig. 10 (one representative point): a latency-sensitive SPEC proxy
/// (mcf) on 16 cores with a 32:1 share against 16 streaming cores. The
/// unregulated aggressor crushes it (the paper reports up to 2.3x);
/// PABST must recover most of the slowdown.
#[test]
fn pabst_recovers_spec_slowdown() {
    let spec = |class: usize| -> Vec<Box<dyn Workload>> {
        (0..16)
            .map(|i| {
                Box::new(SpecProxyGen::new(
                    SpecWorkload::Mcf,
                    region_for(class, i, 1 << 20),
                    i as u64,
                )) as Box<dyn Workload>
            })
            .collect()
    };

    // Isolated baseline: SPEC alone with the same 8-way cache slice.
    let mut isolated = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::None)
        .class(32, spec(0))
        .l3_ways(0, 8)
        .build()
        .unwrap();
    isolated.run_epochs(10);
    isolated.mark_measurement();
    isolated.run_epochs(25);
    let ipc_iso: f64 = (0..16).map(|i| isolated.ipc_since_mark(i)).sum::<f64>() / 16.0;

    let co_located = |mode: RegulationMode| -> f64 {
        let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), mode)
            .class(32, spec(0))
            .l3_ways(0, 8)
            .class(1, read_streamers(1, 16, 0))
            .l3_ways(8, 8)
            .build()
            .unwrap();
        sys.run_epochs(10);
        sys.mark_measurement();
        sys.run_epochs(25);
        (0..16).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / 16.0
    };

    let ipc_none = co_located(RegulationMode::None);
    let ipc_pabst = co_located(RegulationMode::Pabst);
    let slowdown_none = ipc_iso / ipc_none;
    let slowdown_pabst = ipc_iso / ipc_pabst;
    eprintln!("mcf slowdown: baseline {slowdown_none:.2}x, PABST {slowdown_pabst:.2}x");
    // Paper Fig. 10: ~2.0x average baseline slowdown, ~1.2x with PABST.
    assert!(
        slowdown_none > 1.7,
        "aggressor must crush an unprotected latency-sensitive workload, got {slowdown_none:.2}x"
    );
    assert!(
        slowdown_pabst < 1.4,
        "PABST must hold the slowdown near the paper's ~1.2x, got {slowdown_pabst:.2}x"
    );
    assert!(
        slowdown_pabst < 0.75 * slowdown_none,
        "PABST must recover most of the slowdown: {slowdown_pabst:.2}x vs {slowdown_none:.2}x"
    );
}

/// Fig. 9: memcached service-time tail under a streaming aggressor, 20:1
/// shares, on the scaled 8-core machine.
#[test]
fn pabst_restores_memcached_tail() {
    let run = |mode: RegulationMode, with_aggressor: bool| -> (f64, u64) {
        let server: Vec<Box<dyn Workload>> = vec![Box::new(MemcachedGen::new(
            region_for(0, 0, 1 << 18), // 16 MiB item heap
            7,
        ))];
        let mut b =
            SystemBuilder::new(SystemConfig::scaled_8core(), mode).class(20, server).l3_ways(0, 8);
        if with_aggressor {
            let streamers: Vec<Box<dyn Workload>> = (0..7)
                .map(|i| {
                    Box::new(StreamGen::reads(region_for(1, i, 1 << 20), 50 + i as u64))
                        as Box<dyn Workload>
                })
                .collect();
            b = b.class(1, streamers).l3_ways(8, 8);
        }
        let mut sys = b.build().unwrap();
        sys.run_epochs(10);
        sys.mark_measurement();
        sys.run_epochs(40);
        let h = &mut sys.metrics_mut().service[0];
        assert!(h.count() > 50, "need transactions, got {}", h.count());
        (h.mean().unwrap(), h.percentile(99.0).unwrap())
    };

    let (iso_mean, iso_p99) = run(RegulationMode::None, false);
    let (none_mean, none_p99) = run(RegulationMode::None, true);
    let (pabst_mean, pabst_p99) = run(RegulationMode::Pabst, true);
    eprintln!(
        "memcached mean/p99 cycles: isolated {iso_mean:.0}/{iso_p99}, \
         contended {none_mean:.0}/{none_p99}, pabst {pabst_mean:.0}/{pabst_p99}"
    );
    assert!(
        none_mean > 1.3 * iso_mean,
        "aggressor must degrade service times: {none_mean:.0} vs {iso_mean:.0}"
    );
    // PABST must claw back most of the degradation, mean and tail.
    assert!(
        pabst_mean < iso_mean + 0.4 * (none_mean - iso_mean),
        "mean not restored: {pabst_mean:.0} (iso {iso_mean:.0}, contended {none_mean:.0})"
    );
    assert!(
        (pabst_p99 as f64) < (iso_p99 as f64) + 0.65 * (none_p99 - iso_p99) as f64,
        "tail not restored: {pabst_p99} (iso {iso_p99}, contended {none_p99})"
    );
}
