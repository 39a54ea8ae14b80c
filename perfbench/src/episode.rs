//! One episode: build a workload's machine from its seed, warm it, run
//! its measured window, and fingerprint what it simulated.
//!
//! An episode is deterministic, so the benchmark repeats it until the
//! measured host time reaches the run length, and checks every repeat
//! against the same expected digest.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use pabst_cpu::{Op, Workload};
use pabst_simkit::stats::allocation_error_pct;
use pabst_simkit::trace::{EpochRecord, TraceSink};
use pabst_simkit::LINE_BYTES;
use pabst_soc::report::SystemReport;
use pabst_soc::system::System;

use crate::host::{self, thread_cpu_time};
use crate::workloads::{self, Spec};

/// 64-bit FNV-1a, the repository's own provenance hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hashes the epoch-trace JSONL (`EpochRecord::to_json` plus a newline
/// per record) as the system emits it.
#[derive(Debug)]
struct DigestSink {
    state: Rc<Cell<u64>>,
}

impl TraceSink for DigestSink {
    fn record(&mut self, rec: &EpochRecord) {
        let mut h = Fnv(self.state.get());
        h.write(rec.to_json().as_bytes());
        h.write(b"\n");
        self.state.set(h.0);
    }
}

/// `next_op` calls and their host time, shared between the timing
/// decorators of one traced episode.
#[derive(Debug, Default)]
pub struct OpStats {
    pub ops: Cell<u64>,
    pub ns: Cell<u64>,
}

/// The traced run's in-situ decorator: times each `Workload::next_op`.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    stats: Rc<OpStats>,
}

impl Workload for TimedWorkload {
    fn next_op(&mut self) -> Op {
        let t = Instant::now();
        let op = self.inner.next_op();
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.ops.set(self.stats.ops.get() + 1);
        self.stats.ns.set(self.stats.ns.get() + ns);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Host time and workload-op totals at one epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub ops: u64,
    pub op_ns: u64,
}

impl OpStats {
    fn mark(&self) -> Mark {
        Mark { at: Instant::now(), ops: self.ops.get(), op_ns: self.ns.get() }
    }
}

/// Stamps host time at every epoch boundary, with the decorator's running
/// op totals (zero when untraced), so each epoch span knows its children.
#[derive(Debug)]
struct ClockSink {
    marks: Rc<RefCell<Vec<Mark>>>,
    ops: Rc<OpStats>,
}

impl TraceSink for ClockSink {
    fn record(&mut self, _rec: &EpochRecord) {
        self.marks.borrow_mut().push(self.ops.mark());
    }
}

/// Layer counters read through `System`'s public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cycles: u64,
    pub cycles_skipped: u64,
    pub tile_cycles_skipped: u64,
    pub mc_cycles_skipped: u64,
    pub retired: u64,
    pub loads: u64,
    pub stores: u64,
    pub rob_full_cycles: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub pacer_issued: u64,
    pub pacer_throttled: u64,
    pub ingress_rejects: u64,
}

impl Counters {
    fn read(sys: &System) -> Self {
        let mut c = Counters {
            cycles: sys.now(),
            cycles_skipped: sys.cycles_skipped(),
            tile_cycles_skipped: sys.tile_cycles_skipped(),
            mc_cycles_skipped: sys.mc_cycles_skipped(),
            ingress_rejects: sys.ingress_rejects(),
            ..Counters::default()
        };
        for t in sys.tiles() {
            let s = t.core.stats();
            c.retired += s.retired;
            c.loads += s.loads;
            c.stores += s.stores;
            c.rob_full_cycles += s.rob_full_cycles;
            let (hits, misses) = t.mem.l2_stats();
            c.l2_hits += hits;
            c.l2_misses += misses;
            for p in t.mem.pacers() {
                c.pacer_issued += p.issued();
                c.pacer_throttled += p.throttled();
            }
        }
        c
    }

    fn since(self, start: Counters) -> Counters {
        Counters {
            cycles: self.cycles - start.cycles,
            cycles_skipped: self.cycles_skipped - start.cycles_skipped,
            tile_cycles_skipped: self.tile_cycles_skipped - start.tile_cycles_skipped,
            mc_cycles_skipped: self.mc_cycles_skipped - start.mc_cycles_skipped,
            retired: self.retired - start.retired,
            loads: self.loads - start.loads,
            stores: self.stores - start.stores,
            rob_full_cycles: self.rob_full_cycles - start.rob_full_cycles,
            l2_hits: self.l2_hits - start.l2_hits,
            l2_misses: self.l2_misses - start.l2_misses,
            pacer_issued: self.pacer_issued - start.pacer_issued,
            pacer_throttled: self.pacer_throttled - start.pacer_throttled,
            ingress_rejects: self.ingress_rejects - start.ingress_rejects,
        }
    }
}

/// How to run an episode.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cycle skipping on (the default strategy) or off (the oracle).
    pub skip: bool,
    /// Epochs in the measured window.
    pub measure_epochs: usize,
    /// Also fingerprint the state after this many measured epochs (the
    /// point the skip-off oracle stops at).
    pub prefix_at: Option<usize>,
    /// Wrap every generator in the timing decorator.
    pub traced: bool,
    /// Pin the episode to this CPU.
    pub cpu: Option<usize>,
}

/// What one episode measured and simulated.
#[derive(Debug)]
pub struct Episode {
    /// The CPU the episode ran pinned to, if any.
    pub cpu: Option<usize>,
    /// Thread CPU time of `SystemBuilder::build` plus the warm-up epochs.
    pub setup: Duration,
    /// Wall time of the measured window (what a run's length counts).
    pub measured: Duration,
    /// Thread CPU time of the measured window.
    pub measured_cpu: Duration,
    /// Thread CPU time of each slice of the measured window, in order
    /// (`Spec::slices_per_epoch` to an epoch).
    pub slice_times: Vec<Duration>,
    /// Epoch-boundary marks of each measured segment, each led by the
    /// segment's start.
    pub segments: Vec<Vec<Mark>>,
    /// When the episode started (span origin).
    pub start: Instant,
    /// Fingerprint of the trace JSONL and the end-of-window report.
    pub digest: u64,
    /// Fingerprint at `Plan::prefix_at`.
    pub prefix_digest: Option<u64>,
    /// Runtime-invariant violations over the whole episode.
    pub violations: u64,
    /// DRAM requests completed in the window.
    pub dram_reqs: u64,
    /// Layer counters over the window.
    pub counters: Counters,
    /// `allocation_error_pct` over the window, in percent.
    pub alloc_err_pct: f64,
    /// `System::bus_utilization_since_mark`.
    pub bus_util: f64,
    /// Mean in-controller read latency (cycles), class-byte weighted.
    pub read_lat_cycles: f64,
    /// SAT bit of each measured epoch.
    pub sat_series: Vec<bool>,
    /// Governor `M` after each measured epoch.
    pub m_series: Vec<u32>,
    /// Pacer period of the first tile of each class at window end.
    pub pacer_periods: [u64; 2],
    pub tiles: u64,
    pub mcs: u64,
    /// Decorator totals (traced episodes only).
    pub ops: u64,
    pub op_ns: u64,
}

fn fingerprint(trace_state: u64, sys: &System) -> u64 {
    let mut h = Fnv(trace_state);
    h.write(SystemReport::collect(sys).to_json().as_bytes());
    h.0
}

/// Runs one episode of `spec` with generators seeded by `seed`.
pub fn run(spec: &Spec, seed: u64, plan: Plan) -> Episode {
    let ops = Rc::new(OpStats::default());
    let mut wrap = |w: Box<dyn Workload>| -> Box<dyn Workload> {
        if plan.traced {
            Box::new(TimedWorkload { inner: w, stats: Rc::clone(&ops) })
        } else {
            w
        }
    };
    let trace_state = Rc::new(Cell::new(Fnv::new().0));
    let marks = Rc::new(RefCell::new(Vec::new()));

    let cpu = plan.cpu.filter(|&c| host::pin(c));
    let start = Instant::now();
    let start_cpu = thread_cpu_time();
    let mut sys = workloads::builder(spec, seed, &mut wrap)
        .skip(plan.skip)
        .build()
        .expect("benchmark workloads are valid configurations");
    sys.add_trace_sink(Box::new(DigestSink { state: Rc::clone(&trace_state) }));
    sys.run_epochs(spec.warm_epochs);
    let setup = thread_cpu_time() - start_cpu;

    sys.mark_measurement();
    let before = Counters::read(&sys);
    let series_from = sys.metrics().m_series.len();
    sys.add_trace_sink(Box::new(ClockSink { marks: Rc::clone(&marks), ops: Rc::clone(&ops) }));

    let (ops_before, op_ns_before) = (ops.ops.get(), ops.ns.get());
    // The window runs slice by slice; the window starts on an epoch
    // boundary and a slice divides an epoch, so epochs still end exactly.
    let epoch_cycles = workloads::config(spec).epoch_cycles;
    let slice = epoch_cycles / spec.slices_per_epoch;
    assert_eq!(slice * spec.slices_per_epoch, epoch_cycles, "a slice must divide an epoch");
    let mut measured = Duration::ZERO;
    let mut slice_times = Vec::with_capacity(plan.measure_epochs * spec.slices_per_epoch as usize);
    let mut segments = Vec::with_capacity(2);
    let mut segment = |sys: &mut System, n: usize| {
        if n > 0 {
            *marks.borrow_mut() = vec![ops.mark()];
            let t = Instant::now();
            let mut c = thread_cpu_time();
            for _ in 0..n as u64 * spec.slices_per_epoch {
                sys.run_cycles(slice);
                let now = thread_cpu_time();
                slice_times.push(now - c);
                c = now;
            }
            measured += t.elapsed();
            segments.push(marks.borrow().clone());
        }
    };
    let split = plan.prefix_at.map_or(plan.measure_epochs, |p| p.min(plan.measure_epochs));
    segment(&mut sys, split);
    let prefix_digest = plan.prefix_at.map(|_| fingerprint(trace_state.get(), &sys));
    segment(&mut sys, plan.measure_epochs - split);
    let measured_cpu = slice_times.iter().sum();

    let counters = Counters::read(&sys).since(before);
    let classes = sys.shares().classes();
    let bytes: Vec<u64> = (0..classes).map(|c| sys.bytes_since_mark(c)).collect();
    let dram_reqs = bytes.iter().sum::<u64>() / LINE_BYTES;
    let weights: Vec<f64> = (0..classes)
        .map(|c| f64::from(sys.shares().weight(pabst_core::qos::QosId::new(c as u8)).get()))
        .collect();
    let observed: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
    let (mut lat_sum, mut lat_w) = (0.0, 0.0);
    for (c, &b) in bytes.iter().enumerate() {
        if let Some(l) = sys.mc_read_latency(c) {
            lat_sum += l * b as f64;
            lat_w += b as f64;
        }
    }
    let first_of = |class: u8| {
        (0..sys.tiles().len())
            .find(|&i| sys.tile_class(i) == pabst_core::qos::QosId::new(class))
            .and_then(|i| sys.tiles()[i].mem.pacers().first().map(|p| p.period()))
            .unwrap_or(0)
    };
    Episode {
        cpu,
        setup,
        measured,
        measured_cpu,
        slice_times,
        segments,
        start,
        digest: fingerprint(trace_state.get(), &sys),
        prefix_digest,
        violations: sys.invariant_report().total_violations(),
        dram_reqs,
        counters,
        alloc_err_pct: allocation_error_pct(&weights, &observed),
        bus_util: sys.bus_utilization_since_mark(),
        read_lat_cycles: if lat_w > 0.0 { lat_sum / lat_w } else { 0.0 },
        sat_series: sys.metrics().sat_series[series_from..].to_vec(),
        m_series: sys.metrics().m_series[series_from..].to_vec(),
        pacer_periods: [first_of(0), first_of(1)],
        tiles: sys.tiles().len() as u64,
        mcs: sys.mc_count() as u64,
        ops: ops.ops.get() - ops_before,
        op_ns: ops.ns.get() - op_ns_before,
    }
}
