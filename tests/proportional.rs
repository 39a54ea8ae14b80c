//! Principle 1 (Fig. 5): proportional allocation.
//!
//! Two classes of 16 read streamers with a 7:3 weight split must converge
//! to a 70%/30% bandwidth division and hold it steadily.

use pabst_soc::config::RegulationMode;
use pabst_tests::two_class_32core;
use pabst_workloads::read_streamers;

#[test]
fn stream_pair_converges_to_7_3_split() {
    let mut sys = two_class_32core(
        RegulationMode::Pabst,
        7,
        3,
        read_streamers(0, 16, 0),
        read_streamers(1, 16, 0),
    );
    // Warmup: let the governor find the saturation point.
    sys.run_epochs(30);
    sys.mark_measurement();
    sys.run_epochs(40);

    let s0 = sys.metrics().mean_share(0, 30);
    let s1 = sys.metrics().mean_share(1, 30);
    eprintln!(
        "shares: {s0:.3} / {s1:.3}; M tail: {:?}",
        &sys.metrics().m_series[60..70.min(sys.metrics().m_series.len())]
    );
    eprintln!(
        "sat tail: {:?}",
        &sys.metrics().sat_series[60..70.min(sys.metrics().sat_series.len())]
    );
    eprintln!("total B/cyc: {:.2}", sys.metrics().total_bytes_per_cycle(30));
    assert!((s0 - 0.7).abs() < 0.05, "class0 share {s0}, want ~0.70");
    assert!((s1 - 0.3).abs() < 0.05, "class1 share {s1}, want ~0.30");
}

#[test]
fn utilization_stays_high_under_pabst() {
    // Work conservation's flip side: throttling to the saturation point
    // must not leave the memory system idle. Total delivered bandwidth
    // should stay close to what an unregulated run achieves.
    let mut unreg = two_class_32core(
        RegulationMode::None,
        1,
        1,
        read_streamers(0, 16, 0),
        read_streamers(1, 16, 0),
    );
    unreg.run_epochs(20);
    let baseline = unreg.metrics().total_bytes_per_cycle(10);

    let mut pabst = two_class_32core(
        RegulationMode::Pabst,
        7,
        3,
        read_streamers(0, 16, 0),
        read_streamers(1, 16, 0),
    );
    pabst.run_epochs(40);
    let regulated = pabst.metrics().total_bytes_per_cycle(25);

    eprintln!("baseline {baseline:.2} B/cyc, pabst {regulated:.2} B/cyc");
    // The gap to the unregulated baseline is the paper's Fig. 12 memory-
    // efficiency cost of QoS (priority scheduling constrains the most
    // efficient DRAM schedule); it must stay modest for streams.
    assert!(
        regulated > 0.75 * baseline,
        "PABST must stay near peak utilization: {regulated:.2} vs {baseline:.2}"
    );
}
