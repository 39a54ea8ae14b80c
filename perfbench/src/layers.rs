//! The traced run's per-layer report: counts from `System`'s public
//! counters, in-situ workload timing from the decorator, and per-call
//! costs from the replays, combined into each layer's self time.
//!
//! Counts are those of one episode's measured window (every episode of a
//! run simulates the same thing); host times pool all episodes.

use std::fmt::Write as _;
use std::time::Instant;

use crate::episode::Episode;
use crate::replay::{self, Replay, Shape};
use crate::workloads::{self, Spec};
use crate::Metric;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean thread CPU time of the episodes' measured windows.
fn mean_secs(eps: &[Episode]) -> f64 {
    eps.iter().map(|e| e.measured_cpu.as_secs_f64()).sum::<f64>() / eps.len() as f64
}

/// Prints the per-layer table and returns the per-layer metrics.
pub fn per_layer(spec: &Spec, seed: u64, untraced: &[Episode], traced: &[Episode]) -> Vec<Metric> {
    let ep = &traced[0];
    let c = ep.counters;
    let cycles = c.cycles as f64;
    let (tiles, mcs) = (ep.tiles as f64, ep.mcs as f64);
    let tile_steps = c.cycles * ep.tiles - c.tile_cycles_skipped;
    let mc_steps = c.cycles * ep.mcs - c.mc_cycles_skipped;

    let cfg = workloads::config(spec);
    let shape = Shape {
        dram_reqs: ep.dram_reqs,
        mc_cycles: c.cycles * ep.mcs,
        mem_latency: ep.read_lat_cycles.round() as u64 + cfg.l3_lat + cfg.resp_lat,
        pacer_periods: ep.pacer_periods,
        sat_series: ep.sat_series.clone(),
    };
    let timer_ns = replay::timer_overhead_ns();
    let t = Instant::now();
    let dram = replay::dram(spec, seed, &shape, timer_ns);
    let tile = replay::tile(spec, seed, &shape, timer_ns);
    let pacer = replay::pacer(spec, &shape);
    let governor = replay::governor(spec, &shape);
    println!(
        "replays took {:.3} s; timer overhead {timer_ns:.1} ns per timed call",
        t.elapsed().as_secs_f64()
    );

    // Host time per episode window, traced and untraced.
    let traced_ns = mean_secs(traced) * 1e9;
    let untraced_ns = mean_secs(untraced) * 1e9;
    let ops: u64 = traced.iter().map(|e| e.ops).sum();
    let op_ns_total: u64 = traced.iter().map(|e| e.op_ns).sum();
    let op_ns = (ratio(op_ns_total as f64, ops as f64) - timer_ns).max(0.0);
    // Upper bound on the run's try_issue calls: NACKs accrued while a
    // tile was parked were never calls, and a parked tile makes none.
    let try_issue_calls = (c.pacer_issued + c.pacer_throttled).min(tile_steps);
    // A tile visit steps the core only when it can act: estimate the
    // run's steps from the harness's share of acting cycles, capped by
    // the visits the run made.
    let acting = tile.step.calls as f64 / tile.cycles as f64;
    let step_calls = ((acting * cycles * tiles).round() as u64).min(tile_steps);
    let epochs = ep.sat_series.len() as u64;

    // (layer, call site, calls in the run, replay cost per call)
    let selves: [(&str, &str, u64, Replay); 4] = [
        ("dram", "MemController::step_into", mc_steps, dram.step),
        ("cpu", "OooCore::step (with next_op, MemPort::access)", step_calls, tile.step),
        ("core", "Pacer::try_issue", try_issue_calls, pacer),
        ("core", "Governor::on_epoch", epochs, governor),
    ];
    println!(
        "self time per episode window ({epochs} epochs, {} simulated cycles; traced {:.3} ms, \
         untraced {:.3} ms):",
        c.cycles,
        traced_ns / 1e6,
        untraced_ns / 1e6
    );
    println!(
        "  {:<6} {:<46} {:>9} {:>8} {:>12} {:>10} {:>8} {:>9}",
        "layer", "call", "replayed", "ns/call", "run calls", "self ms", "%traced", "%untraced"
    );
    let row = |layer: &str, call: &str, replayed: u64, ns_per_call: f64, calls: u64| {
        let ns = calls as f64 * ns_per_call;
        println!(
            "  {layer:<6} {call:<46} {replayed:>9} {ns_per_call:>8.2} {calls:>12} {:>10.3} {:>7.2}% {:>8.2}%",
            ns / 1e6,
            100.0 * ratio(ns, traced_ns),
            100.0 * ratio(ns, untraced_ns)
        );
        ns
    };
    let mut self_ns = 0.0;
    for (layer, call, calls, r) in selves {
        self_ns += row(layer, call, r.calls, r.ns_per_call, calls);
    }
    let ops_per_ep = ops / traced.len() as u64;
    row("work", "Workload::next_op (in situ, inside cpu)", ops, op_ns, ops_per_ep);
    let residual = traced_ns - self_ns;
    println!(
        "  {:<6} {:<46} {:>9} {:>8} {:>12} {:>10.3} {:>7.2}% {:>8.2}%",
        "soc",
        "residual (traced time minus dram, cpu, core)",
        "-",
        "-",
        "-",
        residual / 1e6,
        100.0 * ratio(residual, traced_ns),
        100.0 * ratio(residual, untraced_ns)
    );
    println!("  replayed, not in the self times (run calls not countable through the public API):");
    for (call, r) in [
        ("MemController::next_event", dram.next_event),
        ("TileMem::try_inject", tile.inject),
        ("fill: TileMem::on_fill, OooCore::on_fill", tile.fill),
    ] {
        println!("  {:<6} {call:<46} {:>9} {:>8.2}", "", r.calls, r.ns_per_call);
    }
    let untraced_cps = ratio(cycles, untraced_ns / 1e9);
    let traced_cps = ratio(cycles, traced_ns / 1e9);
    let sat_duty = ratio(ep.sat_series.iter().filter(|&&s| s).count() as f64, epochs as f64);
    let m_mean =
        ratio(ep.m_series.iter().map(|&m| f64::from(m)).sum::<f64>(), ep.m_series.len() as f64);
    let accesses = (c.loads + c.stores) as f64;
    let probes = (c.l2_hits + c.l2_misses) as f64;
    let metrics = vec![
        Metric {
            name: "sched.global_skip_frac",
            value: ratio(c.cycles_skipped as f64, cycles),
            unit: "frac",
        },
        Metric {
            name: "sched.tile_park_frac",
            value: ratio(c.tile_cycles_skipped as f64, cycles * tiles),
            unit: "frac",
        },
        Metric {
            name: "sched.mc_park_frac",
            value: ratio(c.mc_cycles_skipped as f64, cycles * mcs),
            unit: "frac",
        },
        Metric { name: "sched.tile_steps", value: tile_steps as f64, unit: "count" },
        Metric { name: "sched.mc_steps", value: mc_steps as f64, unit: "count" },
        Metric { name: "dram.reqs", value: ep.dram_reqs as f64, unit: "count" },
        Metric { name: "dram.row_hit_rate", value: dram.row_hit_rate, unit: "frac" },
        Metric { name: "dram.read_lat_cycles", value: ep.read_lat_cycles, unit: "cycles" },
        Metric { name: "dram.ingress_rejects", value: c.ingress_rejects as f64, unit: "count" },
        Metric { name: "dram.step_ns", value: dram.step.ns_per_call, unit: "ns" },
        Metric { name: "dram.next_event_ns", value: dram.next_event.ns_per_call, unit: "ns" },
        Metric { name: "cpu.retired", value: c.retired as f64, unit: "count" },
        Metric { name: "cpu.loads", value: c.loads as f64, unit: "count" },
        Metric { name: "cpu.stores", value: c.stores as f64, unit: "count" },
        Metric {
            name: "cpu.rob_full_frac",
            value: ratio(c.rob_full_cycles as f64, cycles * tiles),
            unit: "frac",
        },
        Metric { name: "cpu.step_ns", value: tile.step.ns_per_call, unit: "ns" },
        Metric { name: "cache.l2_probes", value: probes, unit: "count" },
        Metric { name: "cache.l2_hit_rate", value: ratio(c.l2_hits as f64, probes), unit: "frac" },
        Metric {
            name: "cache.l2_probes_per_access",
            value: ratio(probes, accesses),
            unit: "ratio",
        },
        Metric { name: "core.pacer_issued", value: c.pacer_issued as f64, unit: "count" },
        Metric {
            name: "core.pacer_nack_frac",
            value: ratio(c.pacer_throttled as f64, (c.pacer_issued + c.pacer_throttled) as f64),
            unit: "frac",
        },
        Metric { name: "core.sat_duty", value: sat_duty, unit: "frac" },
        Metric { name: "core.m_mean", value: m_mean, unit: "ratio" },
        Metric { name: "core.try_issue_ns", value: pacer.ns_per_call, unit: "ns" },
        Metric { name: "core.on_epoch_ns", value: governor.ns_per_call, unit: "ns" },
        Metric { name: "workloads.ops", value: ops_per_ep as f64, unit: "count" },
        Metric { name: "workloads.op_ns", value: op_ns, unit: "ns" },
        Metric { name: "soc.host_ns_per_cycle", value: ratio(traced_ns, cycles), unit: "ns/cycle" },
        Metric {
            name: "soc.residual_ns_per_cycle",
            value: ratio(residual, cycles),
            unit: "ns/cycle",
        },
        Metric {
            name: "trace.overhead_frac",
            value: 1.0 - ratio(traced_cps, untraced_cps),
            unit: "frac",
        },
    ];
    for m in metrics.iter().filter(|m| m.unit == "count" && m.value == 0.0) {
        println!("  layer does no work here: {} is zero", m.name);
    }
    metrics
}

/// Writes the traced episodes' spans as JSONL: one `episode` span per
/// episode, its `setup` and `window` children, and one `epoch` span per
/// measured epoch under the window, carrying the `next_op` calls (the
/// decorator's child spans, aggregated) made inside it.
pub fn write_spans(path: &str, eps: &[Episode]) -> std::io::Result<()> {
    let origin = eps[0].start;
    let ns = |t: Instant| (t - origin).as_nanos();
    let mut out = String::new();
    let mut id = 0u64;
    for (k, ep) in eps.iter().enumerate() {
        let (root, setup, window) = (id, id + 1, id + 2);
        id += 3;
        // Set-up ends where the measured window starts.
        let first = ep.segments.first().and_then(|s| s.first()).map_or(ep.start, |m| m.at);
        let last = ep.segments.last().and_then(|s| s.last()).map_or(first, |m| m.at);
        let _ = writeln!(
            out,
            "{{\"id\":{root},\"parent\":null,\"name\":\"episode\",\"episode\":{k},\"start_ns\":{},\"end_ns\":{}}}",
            ns(ep.start),
            ns(last)
        );
        let _ = writeln!(
            out,
            "{{\"id\":{setup},\"parent\":{root},\"name\":\"setup\",\"start_ns\":{},\"end_ns\":{}}}",
            ns(ep.start),
            ns(first)
        );
        let _ = writeln!(
            out,
            "{{\"id\":{window},\"parent\":{root},\"name\":\"window\",\"start_ns\":{},\"end_ns\":{}}}",
            ns(first),
            ns(last)
        );
        let mut epoch = 0;
        for seg in &ep.segments {
            for w in seg.windows(2) {
                let _ = writeln!(
                    out,
                    "{{\"id\":{id},\"parent\":{window},\"name\":\"epoch\",\"epoch\":{epoch},\
                     \"start_ns\":{},\"end_ns\":{},\"next_op_calls\":{},\"next_op_ns\":{}}}",
                    ns(w[0].at),
                    ns(w[1].at),
                    w[1].ops - w[0].ops,
                    w[1].op_ns - w[0].op_ns
                );
                id += 1;
                epoch += 1;
            }
        }
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
