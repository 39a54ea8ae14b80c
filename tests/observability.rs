//! End-to-end checks of the epoch trace pipeline: a full system run
//! recorded through [`MemSink`], the sink the sweeps attach, must produce
//! one well-formed record per epoch, parse back losslessly, and be
//! byte-identical across runs.

use pabst_simkit::trace::{parse_line, EpochRecord, MemSink};
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;
use pabst_workloads::read_streamers;

fn run_traced(epochs: usize) -> String {
    let mut sys = SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
        .class(3, read_streamers(0, 2, 0))
        .class(1, read_streamers(1, 2, 0))
        .build()
        .expect("valid trace test configuration");
    let sink = MemSink::new();
    sys.add_trace_sink(Box::new(sink.clone()));
    sys.run_epochs(epochs);
    sink.take()
}

#[test]
fn jsonl_trace_round_trips_through_a_real_run() {
    let epochs = 5;
    let text = run_traced(epochs);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), epochs, "one record per epoch");

    let cfg = SystemConfig::small_test();
    let mut records: Vec<EpochRecord> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let rec = parse_line(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
        // Lossless: re-serializing the parsed record reproduces the line.
        assert_eq!(rec.to_json(), *line, "line {i} round-trips byte-exactly");
        records.push(rec);
    }

    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.epoch, i as u64, "epochs are consecutive from zero");
        assert_eq!(rec.cycle, (i as u64 + 1) * cfg.epoch_cycles, "boundary cycle");
        assert_eq!(rec.class_bytes.len(), 2, "one byte count per class");
        assert_eq!(rec.tile_throttles.len(), cfg.cores, "one throttle count per tile");
        assert_eq!(rec.mc_read_depth.len(), cfg.mcs);
        assert_eq!(rec.mc_write_depth.len(), cfg.mcs);
        assert_eq!(rec.mc_pending.len(), cfg.mcs);
        assert!(rec.m > 0, "governor multiplier is live");
    }
    // The streamers are backlogged: traffic must actually flow.
    assert!(records.iter().any(|r| r.class_bytes.iter().sum::<u64>() > 0));
}

#[test]
fn jsonl_trace_is_deterministic_across_runs() {
    let a = run_traced(4);
    let b = run_traced(4);
    assert_eq!(a, b, "identical runs serialize byte-identically");
    assert!(!a.is_empty());
}
