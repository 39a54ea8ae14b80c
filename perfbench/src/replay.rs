//! Per-layer replays: drive each layer's public functions with the
//! workload's own generators and the mix its run measured, and time them
//! per call. Adapted from `crates/bench/benches/components.rs`, which
//! times the same calls on synthetic inputs.
//!
//! A layer's self time in a run is its replay ns/call times the calls
//! the run counted.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use pabst_cache::{LineAddr, SetAssocCache};
use pabst_core::pacer::Pacer;
use pabst_core::qos::{QosId, ShareTable};
use pabst_cpu::{OooCore, Op, Workload};
use pabst_dram::{MemController, MemReq};
use pabst_soc::config::SystemConfig;
use pabst_soc::tile::TileMem;

use crate::workloads::{self, Spec};

/// Controller cycles the DRAM replay steps.
const DRAM_CYCLES: u64 = 200_000;
/// Cycles the tile harness runs per class.
const TILE_CYCLES: u64 = 100_000;
/// `Pacer::try_issue` calls timed.
const PACER_CALLS: u64 = 2_000_000;
/// `Governor::on_epoch` calls timed.
const GOVERNOR_CALLS: u64 = 500_000;
/// Requests between a store's fill and its dirty writeback in the DRAM
/// replay (the eviction lag of the write-allocate path).
const WRITEBACK_LAG: usize = 64;

/// One replayed call site: how often it ran and what one call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub calls: u64,
    pub ns_per_call: f64,
}

/// Per-call host time with the cost of the timer itself removed.
#[derive(Debug, Default)]
struct Acc {
    calls: u64,
    ns: u128,
}

impl Acc {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        r
    }

    fn finish(&self, timer_ns: f64) -> Replay {
        let per = if self.calls == 0 { 0.0 } else { self.ns as f64 / self.calls as f64 };
        Replay { calls: self.calls, ns_per_call: (per - timer_ns).max(0.0) }
    }
}

/// Host cost of one `Instant::now()` + `elapsed()` pair: the median of
/// five batches.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..N {
                let t = Instant::now();
                black_box(());
                total += t.elapsed().as_nanos();
            }
            total as f64 / f64::from(N)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// What a run measured that the replays reproduce.
#[derive(Debug, Clone)]
pub struct Shape {
    /// DRAM requests the run completed over `mc_cycles` controller-cycles:
    /// the rate the DRAM replay offers requests at.
    pub dram_reqs: u64,
    pub mc_cycles: u64,
    /// Load-to-fill latency the tile harness returns fills after.
    pub mem_latency: u64,
    /// Pacer period of the first tile of each class.
    pub pacer_periods: [u64; 2],
    /// SAT bit of each measured epoch.
    pub sat_series: Vec<bool>,
}

/// Memory requests for controller 0 from the workload's generators,
/// round-robin over cores: a load reads its line; a store reads its line
/// (write-allocate) and writes it back `WRITEBACK_LAG` requests later.
struct Feed {
    gens: Vec<(QosId, Box<dyn Workload>)>,
    next: usize,
    cfg: SystemConfig,
    ready: VecDeque<MemReq>,
    dirty: VecDeque<MemReq>,
}

impl Feed {
    fn new(spec: &Spec, seed: u64) -> Self {
        let gens = workloads::classes(spec, seed)
            .into_iter()
            .enumerate()
            .flat_map(|(c, (_, gens))| gens.into_iter().map(move |g| (QosId::new(c as u8), g)))
            .collect();
        let cfg = workloads::config(spec);
        Feed { gens, next: 0, cfg, ready: VecDeque::new(), dirty: VecDeque::new() }
    }

    fn next(&mut self) -> MemReq {
        loop {
            if let Some(r) = self.ready.pop_front() {
                return r;
            }
            let i = self.next;
            self.next = (i + 1) % self.gens.len();
            let (class, gen) = &mut self.gens[i];
            let class = *class;
            let (addr, store) = match gen.next_op() {
                Op::Load { addr, .. } => (addr, false),
                Op::Store { addr } => (addr, true),
                Op::Compute(_) | Op::Marker(_) => continue,
            };
            let line = addr.line();
            if self.cfg.topology.channel_map.channel_of(line, self.cfg.mcs) != 0 {
                continue;
            }
            self.ready.push_back(MemReq { line, class, is_write: false, token: 0 });
            if store {
                self.dirty.push_back(MemReq { line, class, is_write: true, token: 0 });
                if self.dirty.len() > WRITEBACK_LAG {
                    self.ready.extend(self.dirty.pop_front());
                }
            }
        }
    }
}

/// The DRAM replay's results.
#[derive(Debug, Clone, Copy)]
pub struct Dram {
    pub step: Replay,
    pub next_event: Replay,
    pub row_hit_rate: f64,
}

/// Drives one controller with `MemController::push` / `step_into` /
/// `next_event`, offering requests at the run's per-controller rate.
pub fn dram(spec: &Spec, seed: u64, shape: &Shape, timer_ns: f64) -> Dram {
    let cfg = workloads::config(spec);
    let shares = ShareTable::from_weights(&[3, 1]).expect("3:1 is a valid weight table");
    let mut mc = MemController::new(cfg.dram, cfg.arbiter, &shares, cfg.arbiter_slack);
    let mut feed = Feed::new(spec, seed);
    let (rate, per) = (u128::from(shape.dram_reqs), u128::from(shape.mc_cycles.max(1)));
    let (mut step, mut next) = (Acc::default(), Acc::default());
    let mut credit = 0u128;
    let mut done = Vec::new();
    for now in 0..DRAM_CYCLES {
        credit += rate;
        while credit >= per && mc.can_accept() {
            let _ = mc.push(feed.next());
            credit -= per;
        }
        // A refused offer is retried next cycle, as the network would.
        credit = credit.min(per * 4);
        done.clear();
        step.time(|| mc.step_into(now, &mut done));
        next.time(|| black_box(mc.next_event(now + 1)));
    }
    Dram {
        step: step.finish(timer_ns),
        next_event: next.finish(timer_ns),
        row_hit_rate: mc.stats().row_hit_rate(),
    }
}

/// The tile harness's results.
#[derive(Debug, Clone, Copy)]
pub struct Tile {
    /// Harness cycles, over all classes.
    pub cycles: u64,
    pub step: Replay,
    pub inject: Replay,
    pub fill: Replay,
}

/// One tile per class, built with `TileMem::new` and the run's pacer
/// period: `OooCore::step` against `MemPort::access` on the cycles the
/// core can act, paced `TileMem::try_inject`, and fills
/// (`TileMem::on_fill`, `OooCore::on_fill`, `release_slot`) returned
/// `mem_latency` cycles after injection.
pub fn tile(spec: &Spec, seed: u64, shape: &Shape, timer_ns: f64) -> Tile {
    let cfg = workloads::config(spec);
    let (mut step, mut inject, mut fill) = (Acc::default(), Acc::default(), Acc::default());
    let mut cycles = 0;
    for (c, (_, gens)) in workloads::classes(spec, seed).into_iter().enumerate() {
        cycles += TILE_CYCLES;
        let mut gen = gens.into_iter().next().expect("every class has a core");
        let pacer = Pacer::with_burst(shape.pacer_periods[c], cfg.pacer_burst);
        let mut mem = TileMem::new(
            QosId::new(c as u8),
            SetAssocCache::new(cfg.l1),
            SetAssocCache::new(cfg.l2),
            cfg.l2_mshrs,
            cfg.l1_lat,
            cfg.l2_lat,
            vec![pacer],
            cfg.mcs,
            cfg.topology.channel_map,
        );
        let mut core = OooCore::new(cfg.core);
        let mut inflight: VecDeque<(u64, LineAddr)> = VecDeque::new();
        let mut loads = Vec::new();
        for now in 0..TILE_CYCLES {
            while let Some(&(due, line)) = inflight.front() {
                if due > now {
                    break;
                }
                inflight.pop_front();
                fill.time(|| {
                    loads.clear();
                    loads.extend(mem.on_fill(line).iter().filter_map(|w| w.load));
                    for &id in &loads {
                        core.on_fill(now, id);
                        core.release_slot();
                    }
                    mem.settle_response(line, false, false, now);
                    while mem.pop_l2_writeback().is_some() {}
                });
            }
            if mem.wants_inject() {
                if let Some(req) = inject.time(|| mem.try_inject(now)) {
                    inflight.push_back((now + shape.mem_latency, req.line));
                }
            }
            // As in the run: a core that cannot act this cycle only
            // accrues its ROB-full stall; `step` is timed where it acts.
            if core.next_event(now).is_some_and(|at| at <= now) {
                step.time(|| core.step(now, gen.as_mut(), &mut mem));
            } else {
                core.accrue_skip(1);
            }
        }
    }
    Tile {
        cycles,
        step: step.finish(timer_ns),
        inject: inject.finish(timer_ns),
        fill: fill.finish(timer_ns),
    }
}

/// `Pacer::try_issue` every cycle at the run's class-0 period.
pub fn pacer(spec: &Spec, shape: &Shape) -> Replay {
    let cfg = workloads::config(spec);
    let mut p = Pacer::with_burst(shape.pacer_periods[0], cfg.pacer_burst);
    let t = Instant::now();
    for now in 0..PACER_CALLS {
        black_box(p.try_issue(black_box(now)));
    }
    Replay { calls: PACER_CALLS, ns_per_call: t.elapsed().as_nanos() as f64 / PACER_CALLS as f64 }
}

/// `Governor::on_epoch` over the run's SAT sequence, repeated.
pub fn governor(spec: &Spec, shape: &Shape) -> Replay {
    let cfg = workloads::config(spec);
    let mut g = cfg.governor.build(cfg.monitor);
    let sats = &shape.sat_series;
    let t = Instant::now();
    for i in 0..GOVERNOR_CALLS {
        black_box(g.on_epoch(Some(sats[i as usize % sats.len()])));
    }
    Replay {
        calls: GOVERNOR_CALLS,
        ns_per_call: t.elapsed().as_nanos() as f64 / GOVERNOR_CALLS as f64,
    }
}
