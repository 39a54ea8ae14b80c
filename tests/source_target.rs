//! Fig. 1 / §IV-C (Fig. 7): neither source-only nor target-only regulation
//! suffices; PABST combines the strengths of both.
//!
//! Two mixes, both with a 3:1 allocation:
//! * stream + stream — floods the target queues, so target-only fails
//!   while source-only is accurate;
//! * chaser + stream — the latency-bound high-share class starves under
//!   any single-point regulator; only the combination recovers it.
//!
//! Known deviation: in the paper target-only does markedly better than
//! source-only on the chaser mix (~20% vs ~128% error); our chaser's
//! achievable bandwidth is closer to its latency ceiling, so both
//! single-point regulators land in the same (large) error range and only
//! the ordering "PABST ≪ either alone" is asserted.

use pabst_simkit::stats::allocation_error_pct;
use pabst_soc::config::RegulationMode;
use pabst_soc::system::System;
use pabst_tests::two_class_32core;
use pabst_workloads::{chasers, read_streamers};

fn alloc_error(mut sys: System) -> f64 {
    sys.run_epochs(60);
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, 30);
    let o1 = m.bw_series.mean_over(1, 30);
    allocation_error_pct(&[3.0, 1.0], &[o0, o1])
}

fn stream_stream(mode: RegulationMode) -> f64 {
    alloc_error(two_class_32core(mode, 3, 1, read_streamers(0, 16, 0), read_streamers(1, 16, 0)))
}

fn chaser_stream(mode: RegulationMode) -> f64 {
    alloc_error(two_class_32core(mode, 3, 1, chasers(0, 16, 0), read_streamers(1, 16, 0)))
}

#[test]
fn target_only_fails_under_flood_but_source_works() {
    let source = stream_stream(RegulationMode::SourceOnly);
    let target = stream_stream(RegulationMode::TargetOnly);
    eprintln!("stream+stream alloc error: source-only {source:.0}%, target-only {target:.0}%");
    // Fig. 1(a): source regulation partitions two streamers accurately.
    assert!(source < 15.0, "source-only should work on streams, err {source:.0}%");
    // Fig. 1(b): target-only degrades toward 1:1 because the flood queues
    // upstream of the arbiter (paper reports 76% error; the fair network
    // pins each class to half the admissions).
    assert!(target > 60.0, "target-only must fail under flood, err {target:.0}%");
}

#[test]
fn single_point_regulators_fail_for_latency_bound_class() {
    let source = chaser_stream(RegulationMode::SourceOnly);
    let target = chaser_stream(RegulationMode::TargetOnly);
    eprintln!("chaser+stream alloc error: source-only {source:.0}%, target-only {target:.0}%");
    // Fig. 1(c): source-only cannot give the chaser its 75% because it
    // cannot lower the chaser's latency (paper reports 128% error).
    assert!(source > 80.0, "source-only must fail with a chaser, err {source:.0}%");
    // Fig. 1(d): target-only alone also leaves a large error here (see the
    // module docs for how this differs from the paper's magnitudes).
    assert!(target > 80.0, "target-only alone leaves large error, got {target:.0}%");
}

#[test]
fn pabst_tracks_the_best_of_both() {
    // §IV-C: PABST matches or beats the better single-point regulator in
    // each mix, with a residual chaser error the paper also observes (the
    // arbiter cannot fully restore isolation latency without sacrificing
    // memory efficiency).
    let ss = stream_stream(RegulationMode::Pabst);
    let cs = chaser_stream(RegulationMode::Pabst);
    let cs_source = chaser_stream(RegulationMode::SourceOnly);
    let cs_target = chaser_stream(RegulationMode::TargetOnly);
    eprintln!(
        "PABST alloc error: stream+stream {ss:.0}%, chaser+stream {cs:.0}% \
         (source {cs_source:.0}%, target {cs_target:.0}%)"
    );
    assert!(ss < 15.0, "PABST on streams should be accurate, err {ss:.0}%");
    assert!(
        cs < 0.7 * cs_source.min(cs_target),
        "PABST must clearly beat both single-point regulators: \
         {cs:.0}% vs source {cs_source:.0}% / target {cs_target:.0}%"
    );
}
