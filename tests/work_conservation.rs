//! Principles 2 and 3 (Figs. 6, 8): work conservation and proportional
//! redistribution of excess bandwidth.

use pabst_cpu::Workload;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{read_streamers, region_for, PeriodicStreamGen, StreamGen};

/// Fig. 6: a constant streamer with only a 30% share consumes nearly the
/// whole system when the 70%-share periodic streamer is in its
/// cache-resident phase, and is re-throttled when it resumes.
#[test]
fn excess_bandwidth_not_wasted_when_partner_idles() {
    // Class 0 (weight 7): periodic streamers; class 1 (weight 3): constant.
    // Long phases (many epochs) so both phases are observable.
    let periodic: Vec<Box<dyn Workload>> = (0..16)
        .map(|i| {
            Box::new(PeriodicStreamGen::new(
                region_for(0, i, 1 << 20),
                256,     // cache-resident prefix (fits L2)
                8_000,   // memory-phase accesses (~20 epochs at paced rates)
                900_000, // cache-resident accesses (~35 epochs at hit rates:
                // long enough for the governor to fully reallocate)
                i as u64,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(7, periodic)
        .class(3, read_streamers(1, 16, 0))
        .build()
        .unwrap();

    sys.run_epochs(170);

    // Classify epochs by the periodic class's traffic: idle phases are
    // where it uses < 10% of the total.
    let m = sys.metrics();
    let mut boosted = Vec::new(); // class 1 B/cyc when class 0 idle
    let mut throttled = Vec::new(); // class 1 B/cyc when class 0 active
    for e in 20..m.bw_series.epochs() {
        let v = m.bw_series.epoch(e);
        let total = v[0] + v[1];
        if total < 1.0 {
            continue;
        }
        if v[0] / total < 0.10 {
            boosted.push(v[1] / m.bw_series.epoch_cycles() as f64);
        } else if v[0] / total > 0.5 {
            throttled.push(v[1] / m.bw_series.epoch_cycles() as f64);
        }
    }
    assert!(
        boosted.len() > 5 && throttled.len() > 5,
        "need both phases: boosted={} throttled={}",
        boosted.len(),
        throttled.len()
    );
    let boosted_mean: f64 = boosted.iter().sum::<f64>() / boosted.len() as f64;
    let throttled_mean: f64 = throttled.iter().sum::<f64>() / throttled.len() as f64;
    eprintln!("class1 B/cyc: boosted {boosted_mean:.2}, throttled {throttled_mean:.2}");
    // Work conservation: the 30% class must at least double its bandwidth
    // when the partner idles, approaching the system's full capacity.
    assert!(
        boosted_mean > 2.0 * throttled_mean,
        "constant streamer must absorb idle bandwidth: {boosted_mean:.2} vs {throttled_mean:.2}"
    );
    assert!(
        boosted_mean > 15.0,
        "constant streamer should approach full system bandwidth, got {boosted_mean:.2}"
    );
}

/// Fig. 8: an L3-resident class's unused 25% share is redistributed 2:1
/// between a 50%-share and a 25%-share DDR streamer (≈66% / 33%).
#[test]
fn excess_redistributed_proportionally() {
    // Class 0: L3-resident streamer (8 cores), 25% share. Its region fits
    // its L3 partition so it stops generating traffic after warmup.
    let resident: Vec<Box<dyn Workload>> = (0..8)
        .map(|i| {
            // 4 ways of 16 over 16 MiB = 4 MiB for the class; per-core
            // slice comfortably within it.
            Box::new(StreamGen::reads(region_for(0, i, 4096), i as u64)) as Box<dyn Workload>
        })
        .collect();
    let ddr_hi: Vec<Box<dyn Workload>> = (0..12)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(1, i, 1 << 20), 100 + i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let ddr_lo: Vec<Box<dyn Workload>> = (0..12)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(2, i, 1 << 20), 200 + i as u64))
                as Box<dyn Workload>
        })
        .collect();

    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(1, resident) // 25%
        .l3_ways(0, 4)
        .class(2, ddr_hi) // 50%
        .l3_ways(4, 6)
        .class(1, ddr_lo) // 25%
        .l3_ways(10, 6)
        .build()
        .unwrap();

    sys.run_epochs(60);
    let m = sys.metrics();
    let s0 = m.mean_share(0, 30);
    let s1 = m.mean_share(1, 30);
    let s2 = m.mean_share(2, 30);
    eprintln!("shares: resident {s0:.3}, hi {s1:.3}, lo {s2:.3}");
    // The resident class consumes almost nothing...
    assert!(s0 < 0.10, "L3-resident class should fade after warmup, got {s0:.3}");
    // ...and its excess splits ~2:1: hi ≈ 66%, lo ≈ 33% (paper's numbers).
    assert!((s1 - 0.66).abs() < 0.07, "hi class share {s1:.3}, want ~0.66");
    assert!((s2 - 0.33).abs() < 0.07, "lo class share {s2:.3}, want ~0.33");
}
