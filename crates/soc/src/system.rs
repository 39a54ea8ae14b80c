//! The assembled system and its cycle-stepped main loop.

use std::collections::VecDeque;

use pabst_cache::{LineAddr, MshrOutcome, MshrTable, SetAssocCache, WayMask};
use pabst_core::governor::{DeltaDir, Governor, RateDir, RateGenerator, GOVERNOR_STRIDE_SCALE};
use pabst_core::pacer::Pacer;
use pabst_core::qos::{QosId, ShareTable};
use pabst_core::satmon::or_sat;
use pabst_cpu::{OooCore, Workload};
use pabst_dram::{ArbiterMode, Completion, MemController, MemReq};
use pabst_simkit::fault::{FaultKind, FaultPlan};
use pabst_simkit::invariant::{InvariantChecker, InvariantReport};
use pabst_simkit::trace::{EpochRecord, TraceSink};
use pabst_simkit::Cycle;

use crate::config::{ConfigError, RegulationMode, SystemConfig, WbAccounting};
use crate::metrics::Metrics;
use crate::net::{Interconnect, L3Req, TileResp};
use crate::sched::DomainSched;
use crate::tile::{Tile, TileMem};

/// A waiter on an L3 MSHR entry.
#[derive(Debug, Clone, Copy)]
struct L3Waiter {
    tile: usize,
    store: bool,
}

/// The full modelled machine.
///
/// Built by [`SystemBuilder`]; stepped by [`System::run_epochs`] /
/// [`System::run_cycles`]; inspected through [`System::metrics`] and the
/// per-component accessors.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    mode: RegulationMode,
    shares: ShareTable,
    now: Cycle,
    tiles: Vec<Tile>,
    /// Tile index → class id (redundant with tiles, for quick scans).
    tile_class: Vec<QosId>,
    /// Active thread count per class (Eq. 4's `threads_c`).
    threads: Vec<u32>,
    l3: SetAssocCache,
    l3_mshrs: MshrTable<L3Waiter>,
    /// The modelled network: request/response paths with topology-derived
    /// delays plus the per-MC staging/arbitration stage (see
    /// [`crate::net::Interconnect`]).
    net: Interconnect,
    /// Misses refused an L3 MSHR (table full), retried in order.
    mshr_wait: VecDeque<L3Req>,
    mcs: Vec<MemController>,
    /// One governor for the paper's global-SAT design; one per MC in the
    /// per-MC variant (SIII-C1). [`SystemConfig::governor`] picks the law
    /// each [`Governor`] applies to a fresh sample.
    monitors: Vec<Governor>,
    rategen: RateGenerator,
    metrics: Metrics,
    /// The one owner of cycle skipping (see [`crate::sched::DomainSched`]):
    /// per-tile park state, the probe gate and pacing, the skip counters
    /// and the skip switch ([`SystemBuilder::skip`]). Structurally inert
    /// when skipping is off: nothing ever parks and nothing probes.
    /// Controllers are not domains: they step every stepped cycle.
    sched: DomainSched,
    epochs_run: usize,
    /// Runtime invariant checker: evaluates the conservation, bound,
    /// monotonicity and liveness laws at every epoch boundary, panicking
    /// or recording per [`SystemConfig::invariants`]. Read-only over
    /// simulator state.
    invariants: InvariantChecker,
    /// Attached observability sinks; each receives one [`EpochRecord`] per
    /// epoch boundary. Empty by default (zero overhead when unused).
    trace_sinks: Vec<Box<dyn TraceSink>>,
    /// Cumulative per-tile throttle counts at the previous boundary, for
    /// per-epoch deltas in the trace record.
    prev_throttles: Vec<u64>,
    /// Recycled buffer for each cycle's memory-controller completions, so
    /// the hot loop does not allocate per cycle.
    completions_scratch: Vec<Completion>,
    /// Recycled buffer for L3-MSHR waiters on the completion path.
    l3_waiters_scratch: Vec<L3Waiter>,
    /// Active fault-injection plan. `None` (the default) is structurally
    /// inert: no RNG draws, no history upkeep, no behavioral change.
    fault_plan: Option<FaultPlan>,
    /// Per-monitor history of raw SAT broadcasts, feeding the sat-delay
    /// fault kind (bounded to [`SAT_HISTORY_MAX`] epochs). Empty unless a
    /// plan is attached.
    sat_history: Vec<VecDeque<bool>>,
    /// Per-MC stall window for the epoch in progress (mc-stall faults): a
    /// stalled controller freezes — it accepts ingress but services
    /// nothing until the window ends.
    mc_stalled: Vec<bool>,
    /// Cumulative controller-cycles frozen by mc-stall fault windows
    /// (summed over controllers, accrued per epoch at the boundary). The
    /// utilization denominator excludes them: a brownout must not read as
    /// a utilization drop on the controllers that were never asked to run.
    mc_stall_cycles: u64,
    /// Total fault events injected so far, across all kinds.
    faults_injected: u64,
}

/// SAT broadcast history kept per monitor for the sat-delay fault kind.
const SAT_HISTORY_MAX: usize = 64;

impl System {
    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Epochs completed.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// The QoS class of tile `i`.
    pub fn tile_class(&self, i: usize) -> QosId {
        self.tile_class[i]
    }

    /// The share table in force.
    pub fn shares(&self) -> &ShareTable {
        &self.shares
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cycles elided by the event-horizon fast-forward (always zero when
    /// skipping is disabled). Diagnostic only: deliberately absent from
    /// trace records and experiment reports, so skip-on and skip-off runs
    /// stay byte-identical. See `docs/PERFORMANCE.md`.
    pub fn cycles_skipped(&self) -> u64 {
        self.sched.cycles_skipped()
    }

    /// Tile-cycles elided by tile-local parking (always zero when
    /// skipping is disabled). Counts every cycle a parked tile's
    /// bookkeeping was batch-accrued instead of stepped — including
    /// cycles inside global jumps, which park everything. Diagnostic
    /// only, like [`System::cycles_skipped`]: absent from every
    /// artifact, so skip-on and skip-off runs stay byte-identical.
    pub fn tile_cycles_skipped(&self) -> u64 {
        self.sched.tile_cycles_skipped()
    }

    /// Controller-cycles accrued by global jumps instead of stepped
    /// (always zero when skipping is disabled): each jump counts its
    /// length once per controller not frozen by an mc-stall window.
    /// Controllers never park, so outside jumps every live controller
    /// steps. Diagnostic only; see [`System::tile_cycles_skipped`].
    pub fn mc_cycles_skipped(&self) -> u64 {
        self.sched.mc_cycles_skipped()
    }

    /// Whether quiescence-aware cycle skipping is active
    /// ([`SystemBuilder::skip`]).
    pub fn skip_enabled(&self) -> bool {
        self.sched.enabled()
    }

    /// Mutable metrics (service-time percentiles need `&mut`).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Attaches an observability sink; it receives one [`EpochRecord`] at
    /// every epoch boundary from now on.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sinks.push(sink);
    }

    /// The tiles (inspection only).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Number of memory controllers.
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// Total fault events injected so far by the attached plan (all
    /// kinds). Always zero without a plan.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Epochs any governor has spent in the degraded (stale-SAT) policy.
    pub fn degraded_epochs(&self) -> u64 {
        self.monitors.iter().map(|m| m.degraded_epochs()).sum()
    }

    /// Label of the source-side governor mechanism in force.
    pub fn governor_label(&self) -> &'static str {
        self.cfg.governor.label()
    }

    /// Label of the target-side arbiter mechanism in force. All
    /// controllers share one mode, so controller 0 speaks for the system;
    /// note this is the *effective* mechanism — regulation modes without
    /// an active target run FCFS regardless of the configured arbiter.
    pub fn arbiter_label(&self) -> &'static str {
        self.mcs[0].arbiter_name()
    }

    /// FNV-1a provenance hash over the configured mechanism selection and
    /// regulation knobs (see [`SystemConfig::mechanism_hash`]).
    pub fn mechanism_hash(&self) -> u64 {
        self.cfg.mechanism_hash()
    }

    /// Instructions retired by core `i` since the measurement mark.
    pub fn retired_since_mark(&self, i: usize) -> u64 {
        self.tiles[i].core.stats().retired - self.metrics.retired_at_start[i]
    }

    /// IPC of core `i` over the measurement window.
    // simlint: allow(taint-float): report-time ratio over final counters; nothing in the stepping path consumes it
    pub fn ipc_since_mark(&self, i: usize) -> f64 {
        let cycles = self.now - self.metrics.measure_from;
        if cycles == 0 {
            0.0
        } else {
            self.retired_since_mark(i) as f64 / cycles as f64
        }
    }

    /// Aggregate data-bus utilization across MCs over the measurement
    /// window (the paper's memory-efficiency metric, Fig. 12).
    ///
    /// Controller-cycles frozen by an mc-stall fault window are excluded
    /// from the denominator: a stalled controller *cannot* move bytes, so
    /// counting its dead cycles would under-report how well the live
    /// controllers used the bus during a brownout. Stall accounting is
    /// epoch-granular (windows open and close at boundaries), so a mark
    /// taken mid-epoch sees the exclusion of every *completed* stalled
    /// epoch. Unfaulted runs subtract zero and are bit-identical.
    // simlint: allow(taint-float): report-time ratio over final counters; nothing in the stepping path consumes it
    pub fn bus_utilization_since_mark(&self) -> f64 {
        let busy: u64 = self.mcs.iter().map(|m| m.stats().bus_busy).sum();
        let window = (self.now - self.metrics.measure_from) * self.cfg.mcs as u64;
        let live = window.saturating_sub(self.stalled_mc_cycles_since_mark());
        if live == 0 {
            0.0
        } else {
            (busy - self.metrics.bus_busy_at_start) as f64 / live as f64
        }
    }

    /// Controller-cycles spent frozen in mc-stall fault windows since the
    /// measurement mark (summed across controllers). Always zero without
    /// a fault plan.
    pub fn stalled_mc_cycles_since_mark(&self) -> u64 {
        self.mc_stall_cycles - self.metrics.stall_cycles_at_start
    }

    /// Mean in-controller read latency per class (cycles), aggregated
    /// across MCs over the whole run (diagnostic).
    pub fn mc_read_latency(&self, class: usize) -> Option<f64> {
        let id = QosId::new(class as u8);
        let (mut sum, mut n) = (0.0, 0u64);
        for mc in &self.mcs {
            let s = mc.stats();
            if let Some(lat) = s.mean_read_latency(id) {
                let k = s.read_lat_n[id.index()];
                sum += lat * k as f64;
                n += k;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Total requests refused at MC ingress ports (backpressure events).
    pub fn ingress_rejects(&self) -> u64 {
        self.mcs.iter().map(|m| m.ingress_rejects()).sum()
    }

    /// Bytes delivered per class since the measurement mark.
    pub fn bytes_since_mark(&self, class: usize) -> u64 {
        let total: u64 = self.mcs.iter().map(|m| m.stats().bytes[class]).sum();
        total - self.metrics.bytes_at_start[class]
    }

    /// Marks the start of the measurement window (call after warmup).
    pub fn mark_measurement(&mut self) {
        self.metrics.measure_from = self.now;
        for (i, t) in self.tiles.iter().enumerate() {
            self.metrics.retired_at_start[i] = t.core.stats().retired;
        }
        self.metrics.bus_busy_at_start = self.mcs.iter().map(|m| m.stats().bus_busy).sum();
        self.metrics.stall_cycles_at_start = self.mc_stall_cycles;
        for c in 0..pabst_core::qos::MAX_CLASSES {
            self.metrics.bytes_at_start[c] = self.mcs.iter().map(|m| m.stats().bytes[c]).sum();
        }
        for h in &mut self.metrics.service {
            *h = pabst_simkit::stats::Histogram::new();
        }
        for m in &mut self.metrics.last_marker {
            *m = None;
        }
    }

    /// Runs `n` epochs (each `epoch_cycles` long). From a mid-epoch start
    /// the first epoch is the remainder of the current one — epochs are
    /// wall-clock aligned, exactly as [`System::run_cycles`] sees them.
    pub fn run_epochs(&mut self, n: usize) {
        let e = self.cfg.epoch_cycles;
        self.advance(((self.now / e) + n as u64) * e);
    }

    /// Runs an exact number of cycles (epoch boundaries still fire on
    /// schedule).
    pub fn run_cycles(&mut self, n: Cycle) {
        self.advance(self.now + n);
    }

    /// The single stepping loop both public entry points share: advances
    /// to cycle `until`, firing [`System::on_epoch_boundary`] at every
    /// multiple of `epoch_cycles` — one code path, so the two entry points
    /// cannot drift on when the governor heartbeat runs.
    ///
    /// With skipping enabled, each iteration first asks [`System::horizon`]
    /// for the earliest cycle any component can change state. When that is
    /// in the future, the loop jumps there in one [`System::apply_skip`]
    /// call instead of stepping dead cycles. Jumps never cross an epoch
    /// boundary (or `until`), so the heartbeat — SAT aggregation, governor
    /// update, fault windows, invariant checks — observes the exact
    /// boundary sequence naive stepping would.
    ///
    /// The scheduler gates and paces the probes: a probe is taken only
    /// once every tile has parked itself in the core stage (a resident
    /// tile makes a jump impossible), and after a failed one the next
    /// waits a backoff that doubles up to a small cap, which a jump
    /// resets (see [`crate::sched::DomainSched`]). Un-probed cycles are
    /// stepped naively, which is always correct, so neither the gate nor
    /// the pacing affects simulated behavior.
    fn advance(&mut self, until: Cycle) {
        while self.now < until {
            if self.sched.probe_due(self.now) {
                let h = self.horizon();
                if h != Some(self.now) {
                    let e = self.cfg.epoch_cycles;
                    let boundary = (self.now / e + 1) * e;
                    let target = h.unwrap_or(boundary).min(boundary).min(until);
                    self.apply_skip(target - self.now);
                    if self.now.is_multiple_of(e) {
                        self.on_epoch_boundary();
                    }
                    continue;
                }
                self.sched.probe_failed(self.now);
            }
            self.step();
            if self.now.is_multiple_of(self.cfg.epoch_cycles) {
                self.on_epoch_boundary();
            }
        }
        // Settle: callers (measurement marks, stats readers, reports) must
        // observe fully-accrued state, so no tile stays parked across a
        // return. Tiles re-park in the core stage; behavior over the
        // parked window is already fixed, so settling is invisible.
        self.sched.wake_all(self.now, &mut self.tiles);
    }

    /// The event horizon: the earliest cycle at which any component may
    /// change state. `Some(now)` means something can act this cycle (the
    /// loop must step naively); a later cycle means every component is
    /// provably quiescent until then; `None` means no component holds any
    /// self-scheduled event at all (fully idle — safe to jump straight to
    /// the next epoch boundary).
    ///
    /// Soundness: the minimum over per-component `next_event` horizons is
    /// a sound global horizon because a component with no event of its own
    /// changes state only when another component acts on it — and that
    /// component's own horizon already bounds the jump. A too-*early*
    /// horizon merely costs speed; only a too-late one could diverge, so
    /// every check below short-circuits to `now` on any doubt.
    ///
    /// Controllers fold their `next_event` answer directly; they never
    /// park. The probe runs only with every tile parked
    /// ([`crate::sched::DomainSched::probe_due`]), so the tiles fold in
    /// as one number: the scheduler's exact earliest cached wake.
    fn horizon(&mut self) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;
        let now = self.now;
        let mut h = Horizon::new();
        // The interconnect: in-flight requests/responses wake at their
        // delivery cycle; a staged request past its hop delay drains (or
        // bumps a reject counter) every cycle.
        if h.merge_due(self.net.next_event(now), now) {
            return Some(now);
        }
        // An MSHR-refused miss whose retry can progress acts this cycle;
        // one still blocked unblocks only via an MC completion, which the
        // controller horizons below already bound.
        if let Some(req) = self.mshr_wait.front() {
            if !self.l3_mshrs.is_full() || self.l3_mshrs.contains(req.line) {
                return Some(now);
            }
        }
        for (k, mc) in self.mcs.iter().enumerate() {
            // A stalled controller (mc-stall fault window) is frozen until
            // the next boundary: no events, no occupancy samples.
            if !self.mc_stalled[k] && h.merge_due(mc.next_event(now), now) {
                return Some(now);
            }
        }
        if h.merge_due(Some(self.sched.earliest_wake()), now) {
            return Some(now);
        }
        h.get()
    }

    /// Fast-forwards `cycles` provably-dead cycles in one jump. A jump
    /// only happens when the probe found nothing due, and the probe runs
    /// only with every tile parked: their owed-bookkeeping windows simply
    /// grow with the clock and are batch-accrued at their next wake edge. Each
    /// controller not frozen by an mc-stall window is charged here the
    /// occupancy samples its `cycles` naive steps would have taken (its
    /// read queue cannot change while nothing is due). The scheduler
    /// counts the jump.
    fn apply_skip(&mut self, cycles: Cycle) {
        debug_assert!(cycles > 0, "a zero-length skip is a stepping bug");
        let mut live_mcs = 0;
        for (mc, &stalled) in self.mcs.iter_mut().zip(&self.mc_stalled) {
            if !stalled {
                mc.accrue_skip(cycles);
                live_mcs += 1;
            }
        }
        self.sched.record_jump(cycles, live_mcs);
        self.now += cycles;
    }

    /// One cycle of the whole machine.
    fn step(&mut self) {
        let now = self.now;

        // 0. Due wakes: any parked tile whose cached horizon has arrived
        //    rejoins live stepping *this* cycle, owed bookkeeping accrued
        //    — the local clock clamps back to `now` before any stage could
        //    observe stale state.
        self.sched.wake_due_tiles(now, &mut self.tiles);

        // 1. Memory controllers: advance DRAM, collect completions into
        //    the recycled scratch buffer (no per-cycle allocation).
        let mut completions = std::mem::take(&mut self.completions_scratch);
        completions.clear();
        for (k, mc) in self.mcs.iter_mut().enumerate() {
            // A stalled controller (mc-stall fault window) freezes: it
            // still accepts ingress, but services nothing. The arbiter's
            // virtual clocks only advance on picks, so they stay monotone
            // and the other controllers keep running.
            if !self.mc_stalled[k] {
                mc.step_into(now, &mut completions);
            }
        }
        for c in completions.drain(..) {
            self.on_mc_completion(c);
        }
        self.completions_scratch = completions;

        // 2. Drain per-MC staging into MC ingress, round-robin across
        //    class queues (per-source-fair network arbitration) under the
        //    per-link bandwidth budget. Lives in the interconnect now; see
        //    `Interconnect::drain_into`.
        self.net.drain_into(now, &mut self.mcs);

        // 3. Shared L3: consume the network head (head-of-line blocking
        //    when the miss path is backed up). Provably a no-op when both
        //    the retry queue and the request network are empty.
        if !self.mshr_wait.is_empty() || self.net.has_requests() {
            self.l3_service(now);
        }

        // 4. Responses reach tiles (skip the pop loop when provably empty).
        if self.net.has_responses() {
            while let Some(resp) = self.net.pop_response(now) {
                self.on_tile_response(resp);
            }
        }

        // 5. Tiles: inject paced L2 misses + L2 writebacks, then step the
        //    resident cores in index order (every core when skipping is
        //    off). An idle core accrues its stall instead of stepping and
        //    may park; parking tile `i` clears only its own bit, behind
        //    the walk.
        self.tile_injection(now);
        let n = self.tiles.len();
        let mut next = self.sched.next_resident_tile(0, n);
        while let Some(i) = next {
            next = self.sched.next_resident_tile(i + 1, n);
            let tile = &mut self.tiles[i];
            if self.sched.park_if_idle(i, now, tile) {
                continue;
            }
            tile.core.step(now, tile.workload.as_mut(), &mut tile.mem);
            self.metrics.record_markers(i, &mut tile.core);
        }

        self.now += 1;
    }

    /// Service the L3 input pipeline: hits respond, misses go to memory.
    /// The L3 is banked and never head-of-line blocks: misses that cannot
    /// get an MSHR wait in `mshr_wait`; admitted misses stage per-MC in
    /// the interconnect.
    fn l3_service(&mut self, now: Cycle) {
        // Retry MSHR-refused misses first (oldest first). A waiting miss
        // whose line gained an MSHR entry since it was refused (another
        // tile's miss to the same line was admitted) merges as a
        // secondary, so no duplicate DRAM read is enqueued for the line.
        while let Some(&req) = self.mshr_wait.front() {
            if !self.admit_miss(now, req) {
                break;
            }
            self.mshr_wait.pop_front();
        }
        // Bounded number of L3 operations per cycle (banked array).
        for _ in 0..4 {
            let Some(req) = self.net.pop_request(now) else { break };
            if req.l2_wb {
                // L2 writeback into the L3: mark dirty if present, else
                // install dirty (may evict another dirty line to memory).
                if !self.l3.probe_write(req.line) {
                    let ev = self.l3.fill(req.line, req.class, true);
                    if let Some(ev) = ev {
                        if ev.dirty {
                            self.emit_l3_writeback(now, ev.line, ev.owner, req.class);
                        }
                    }
                }
                continue;
            }
            let hit =
                if req.store { self.l3.probe_write(req.line) } else { self.l3.probe(req.line) };
            if hit {
                self.net.send_l3_response(
                    now,
                    TileResp { line: req.line, tile: req.tile, l3_hit: true, wb_flag: false },
                );
                continue;
            }
            if !self.admit_miss(now, req) {
                self.mshr_wait.push_back(req);
            }
        }
    }

    /// Registers an L3 miss with one MSHR allocation and acts on its
    /// outcome: a secondary merges into the line's entry, a primary
    /// stages toward its home memory controller (per the topology's
    /// channel map). Returns false, changing nothing, when the table is
    /// full and the miss must wait.
    fn admit_miss(&mut self, now: Cycle, req: L3Req) -> bool {
        debug_assert!(!req.l2_wb, "L2 writebacks never take an L3 MSHR");
        match self.l3_mshrs.alloc(req.line, L3Waiter { tile: req.tile, store: req.store }) {
            MshrOutcome::Full => return false,
            MshrOutcome::Secondary => {}
            MshrOutcome::Primary => {
                let mc = self.net.channel_of(req.line);
                self.net.stage(
                    now,
                    mc,
                    MemReq { line: req.line, class: req.class, is_write: false, token: 0 },
                );
            }
        }
        true
    }

    /// Routes a memory-controller completion: reads fill the L3 and wake
    /// tile waiters; writes are fire-and-forget.
    fn on_mc_completion(&mut self, c: Completion) {
        if c.is_write {
            return;
        }
        let now = self.now;
        let mc = self.net.channel_of(c.line);
        let mut waiters = std::mem::take(&mut self.l3_waiters_scratch);
        waiters.clear();
        self.l3_mshrs.complete_into(c.line, &mut waiters);
        let any_store = waiters.iter().any(|w| w.store);
        // Fill the L3 on behalf of the demanding class.
        let mut wb_flag = false;
        if let Some(ev) = self.l3.fill(c.line, c.class, any_store) {
            if ev.dirty {
                self.emit_l3_writeback(now, ev.line, ev.owner, c.class);
                // The source-side extra-period charge lands on the demand
                // pacer, so it only applies under the ChargeDemand policy;
                // ChargeOwner/ChargeNone attribute the writeback at the
                // controller (or nowhere) and must not charge the demand
                // source.
                wb_flag = matches!(self.cfg.wb_accounting, WbAccounting::ChargeDemand);
            }
        }
        for w in &waiters {
            self.net.send_mc_response(
                now,
                mc,
                TileResp { line: c.line, tile: w.tile, l3_hit: false, wb_flag },
            );
            // Only one response should carry the charge.
            wb_flag = false;
        }
        self.l3_waiters_scratch = waiters;
    }

    /// Stages a dirty-L3-eviction writeback to memory, attributed per the
    /// configured accounting policy.
    fn emit_l3_writeback(&mut self, now: Cycle, line: LineAddr, owner: QosId, demand: QosId) {
        let class = match self.cfg.wb_accounting {
            WbAccounting::ChargeDemand => demand,
            WbAccounting::ChargeOwner => owner,
            WbAccounting::ChargeNone => demand, // bytes still attributed somewhere
        };
        let mc = self.net.channel_of(line);
        self.net.stage(now, mc, MemReq { line, class, is_write: true, token: 0 });
    }

    /// A response arrives at a tile: fill caches, wake the core, settle
    /// pacer accounting.
    fn on_tile_response(&mut self, resp: TileResp) {
        let now = self.now;
        // Response wake: a parked tile rejoins live stepping before the
        // fill is applied, so its owed accrual closes on pre-fill state
        // and it participates in this cycle's injection + core step.
        self.sched.wake_tile(resp.tile, now, &mut self.tiles[resp.tile]);
        // The fill may move the port's release count, which a parked
        // core's horizon assumed still: the release wake rides this one.
        debug_assert!(!self.sched.tile_parked(resp.tile), "release on a parked tile");
        let tile = &mut self.tiles[resp.tile];
        let waiters = tile.mem.on_fill(resp.line);
        for w in waiters {
            if let Some(id) = w.load {
                tile.core.on_fill(now, id);
                tile.core.release_slot();
            }
        }
        tile.mem.settle_response(resp.line, resp.l3_hit, resp.wb_flag, now);
        // L2 victims displaced by this fill go back to the L3.
        while let Some(line) = tile.mem.pop_l2_writeback() {
            let class = tile.mem.class;
            self.net.send_request(
                now,
                L3Req { line, class, tile: resp.tile, store: false, l2_wb: true },
            );
        }
    }

    /// Paced injection of L2 misses into the network, round-robin across
    /// tiles for fairness.
    fn tile_injection(&mut self, now: Cycle) {
        let n = self.tiles.len();
        // Fairness cursor: rotates one tile per cycle. Derived from the
        // clock rather than a counter stepped once per `step` call, so a
        // fast-forward jump lands on exactly the cursor naive stepping
        // would have reached.
        let start = (now % n as u64) as usize;
        // Resident tiles in rotated order, `start..n` then `0..start`
        // (every tile when skipping is off). A parked tile's injection
        // path is provably quiescent (its park horizon folded
        // `next_inject_at`); the NACK its pacer would take this cycle is
        // owed and accrues at wake.
        for (from, end) in [(start, n), (0, start)] {
            let mut next = self.sched.next_resident_tile(from, end);
            while let Some(i) = next {
                next = self.sched.next_resident_tile(i + 1, end);
                // At most one L2 miss or writeback per tile per cycle;
                // idle tiles are skipped before the pacer is consulted.
                let mem = &mut self.tiles[i].mem;
                if !mem.wants_inject() {
                    continue;
                }
                if let Some(req) = mem.try_inject(now) {
                    let class = mem.class;
                    self.net.send_request(
                        now,
                        L3Req { line: req.line, class, tile: i, store: req.store, l2_wb: false },
                    );
                }
            }
        }
    }

    /// Epoch heartbeat: SAT aggregation (through the fault layer when a
    /// plan is attached), governor update, pacer reprogramming, metrics
    /// snapshot, fault-window refresh, invariant checks.
    fn on_epoch_boundary(&mut self) {
        let now = self.now;
        // Boundary wake: the heartbeat reads and reprograms every
        // component (SAT aggregation, pacer periods, fault windows,
        // invariant checks), so every parked tile is woken first — owed
        // bookkeeping accrued through the epoch's last cycle, exactly as
        // naive stepping would have left it at this boundary.
        self.sched.wake_all(now, &mut self.tiles);
        let epoch = self.epochs_run as u64;
        let sats: Vec<bool> = self.mcs.iter_mut().map(|m| m.take_epoch_sat()).collect();
        // What each governor actually observes: the raw SAT broadcast,
        // possibly dropped / delayed / inverted by the fault plan. With no
        // plan this is `Some(raw)` and the governor path is bit-identical
        // to an unfaulted build.
        let observed: Vec<Option<bool>> = if self.monitors.len() == 1 {
            // Global wired-OR SAT, one governor (the paper's default).
            vec![self.observe_sat(0, or_sat(sats.iter().copied()), epoch)]
        } else {
            // Per-MC SAT and governors (SIII-C1 variant).
            (0..sats.len()).map(|k| self.observe_sat(k, sats[k], epoch)).collect()
        };
        let ms: Vec<u32> =
            self.monitors.iter_mut().zip(&observed).map(|(mon, &o)| mon.on_epoch(o)).collect();
        self.metrics.m_series.push(ms[0]);
        self.metrics.sat_series.push(or_sat(sats.iter().copied()));

        if self.mode.source_active() {
            for (i, tile) in self.tiles.iter_mut().enumerate() {
                let class = tile.mem.class;
                let stride = self.shares.scaled_stride(class, GOVERNOR_STRIDE_SCALE);
                let threads = self.threads[class.index()].max(1);
                if let Some(plan) = &self.fault_plan {
                    // Epoch-sync skew: this tile misses the reprogram
                    // broadcast and keeps its stale periods this epoch.
                    // The boundary credit clamp is the pacer's own
                    // hardware, not part of the broadcast, so it still
                    // applies (at the stale period).
                    if plan.fires(FaultKind::EpochSkew, i as u64, epoch) {
                        self.faults_injected += 1;
                        for p in tile.mem.pacers_mut().iter_mut() {
                            let stale = p.period();
                            p.set_period(stale, now);
                        }
                        continue;
                    }
                }
                let leak = self
                    .fault_plan
                    .as_ref()
                    .and_then(|p| p.magnitude(FaultKind::CreditLeak, i as u64, epoch));
                for (k, p) in tile.mem.pacers_mut().iter_mut().enumerate() {
                    let m = ms[k.min(ms.len() - 1)];
                    let period = self.rategen.source_period(m, stride, threads);
                    p.set_period(period, now);
                    if let Some(cycles) = leak {
                        p.leak_credit(cycles);
                    }
                }
                if leak.is_some() {
                    self.faults_injected += 1;
                }
            }
        }

        // Per-class bandwidth this epoch (exact u64 for the trace record,
        // f64 for the figure series).
        let mut bytes_u64 = vec![0u64; self.shares.classes()];
        let mut mc_bytes = vec![0u64; self.mcs.len()];
        for (k, mc) in self.mcs.iter_mut().enumerate() {
            let per_class = mc.stats_mut().take_epoch_bytes();
            for (c, b) in bytes_u64.iter_mut().enumerate() {
                *b += per_class[c];
            }
            mc_bytes[k] = per_class.iter().sum();
        }
        self.push_epoch_figures(&bytes_u64);
        if !self.trace_sinks.is_empty() {
            let sat = or_sat(sats.iter().copied());
            self.emit_trace_record(now, sat, bytes_u64);
        }
        self.epochs_run += 1;
        // The epoch that just ended is now fully accounted: accrue its
        // stalled controller-cycles (for the utilization denominator)
        // before the windows refresh for the next epoch.
        let stalled_now = self.mc_stalled.iter().filter(|&&s| s).count() as u64;
        self.mc_stall_cycles += stalled_now * self.cfg.epoch_cycles;
        // Refresh mc-stall windows for the epoch now starting.
        if self.fault_plan.is_some() {
            let next = self.epochs_run as u64;
            for k in 0..self.mc_stalled.len() {
                let stalled = self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.fires(FaultKind::McStall, k as u64, next));
                self.mc_stalled[k] = stalled;
                if stalled {
                    self.faults_injected += 1;
                }
            }
        }
        self.check_invariants(now, epoch, &mc_bytes);
    }

    /// Pushes this epoch's per-class delivered bytes into the bandwidth
    /// figure series. The conversion to `f64` lives here, fenced off from
    /// the governor arithmetic in the heartbeat proper.
    // simlint: allow(taint-float): figure-series conversion of already-final epoch byte counts; feeds plots, never the regulation datapath
    fn push_epoch_figures(&mut self, bytes_u64: &[u64]) {
        let bytes: Vec<f64> = bytes_u64.iter().map(|&b| b as f64).collect();
        self.metrics.bw_series.push_epoch(&bytes);
    }

    /// Applies the SAT-broadcast fault kinds to one monitor's raw sample
    /// for this epoch: drop (`None` — no sample arrives), delay (a stale
    /// sample from `magnitude` epochs ago), corrupt (inverted). Pure
    /// pass-through when no plan is attached.
    fn observe_sat(&mut self, k: usize, sat: bool, epoch: u64) -> Option<bool> {
        let Some(plan) = &self.fault_plan else { return Some(sat) };
        let hist = &mut self.sat_history[k];
        hist.push_back(sat);
        if hist.len() > SAT_HISTORY_MAX {
            hist.pop_front();
        }
        let target = k as u64;
        if plan.fires(FaultKind::SatDrop, target, epoch) {
            self.faults_injected += 1;
            return None;
        }
        if let Some(d) = plan.magnitude(FaultKind::SatDelay, target, epoch) {
            self.faults_injected += 1;
            let d = (d.max(1) as usize).min(hist.len() - 1);
            return Some(hist[hist.len() - 1 - d]);
        }
        if plan.fires(FaultKind::SatCorrupt, target, epoch) {
            self.faults_injected += 1;
            return Some(!sat);
        }
        Some(sat)
    }

    /// Builds one [`EpochRecord`] for the epoch that just ended and hands
    /// it to every attached sink.
    fn emit_trace_record(&mut self, now: Cycle, sat: bool, class_bytes: Vec<u64>) {
        let snap = self.monitors[0].snapshot();
        let mut tile_throttles = Vec::with_capacity(self.tiles.len());
        for (i, tile) in self.tiles.iter().enumerate() {
            let total: u64 = tile.mem.pacers().iter().map(Pacer::throttled).sum();
            tile_throttles.push(total - self.prev_throttles[i]);
            self.prev_throttles[i] = total;
        }
        let mut mc_read_depth = Vec::with_capacity(self.mcs.len());
        let mut mc_write_depth = Vec::with_capacity(self.mcs.len());
        let mut mc_pending = Vec::with_capacity(self.mcs.len());
        for mc in &self.mcs {
            let s = mc.snapshot();
            mc_read_depth.push(s.read_q_depth);
            mc_write_depth.push(s.write_q_depth);
            mc_pending.push(s.pending);
        }
        let rec = EpochRecord {
            epoch: self.epochs_run as u64,
            cycle: now,
            m: u64::from(snap.m),
            dm: u64::from(snap.delta_m),
            e: u64::from(snap.steady_epochs),
            rate_up: matches!(snap.rate_dir, RateDir::Up),
            delta_up: matches!(snap.delta_dir, DeltaDir::Up),
            sat,
            mechanism_hash: self.cfg.mechanism_hash(),
            class_bytes,
            tile_throttles,
            mc_read_depth,
            mc_write_depth,
            mc_pending,
        };
        for sink in &mut self.trace_sinks {
            sink.record(&rec);
        }
    }

    /// Evaluates the invariant laws for the epoch that just ended:
    ///
    /// * pacer credit never exceeds the burst window (§III-B3's bounded
    ///   `C_next` lag) — checked right after reprogramming, which clamps;
    /// * every per-class virtual clock in every controller's arbiter is
    ///   monotonically nondecreasing (§III-C2);
    /// * memory-controller request conservation: accepted = completed +
    ///   pending, so no request is lost or double-counted;
    /// * queue occupancy vs. configured capacity, and the staged-request
    ///   counter vs. the interconnect's class queues;
    /// * the DPQ worst-case service bound;
    /// * the SAT duty cycle is a valid fraction of epochs;
    /// * per-controller forward progress (when a liveness window is set).
    ///
    /// `mc_bytes` carries each controller's delivered bytes this epoch.
    fn check_invariants(&mut self, now: Cycle, epoch: u64, mc_bytes: &[u64]) {
        let inv = &mut self.invariants;
        inv.begin_epoch(epoch, now);
        for (i, tile) in self.tiles.iter().enumerate() {
            // Period 0 means unthrottled: no credit bound to enforce.
            for p in tile.mem.pacers().iter().filter(|p| p.period() > 0) {
                inv.check_le("pacer credit", i, p.credit_at(now), p.burst_window(), || {
                    let s = p.snapshot(now);
                    format!("period={} issued={} throttled={}", s.period, s.issued, s.throttled)
                });
            }
        }
        let caps = self.cfg.dram;
        for (k, mc) in self.mcs.iter().enumerate() {
            for c in 0..self.shares.classes() {
                inv.check_monotone(
                    "mc virtual clock",
                    k,
                    c,
                    mc.virtual_clock(QosId::new(c as u8)),
                    || format!("arbiter={} class={c}", mc.arbiter_name()),
                );
            }
            let s = mc.stats();
            let snap = mc.snapshot();
            inv.check_conserved(
                "mc requests",
                k,
                mc.accepted(),
                s.reads + s.writes,
                mc.pending() as u64,
                || {
                    format!(
                        "read_q={} write_q={} pending={} stalled={}",
                        snap.read_q_depth, snap.write_q_depth, snap.pending, self.mc_stalled[k]
                    )
                },
            );
            inv.check_le("mc read queue", k, snap.read_q_depth, caps.read_q_cap as u64, || {
                format!("arbiter={}", mc.arbiter_name())
            });
            inv.check_le("mc write queue", k, snap.write_q_depth, caps.write_q_cap as u64, || {
                format!("arbiter={}", mc.arbiter_name())
            });
            inv.check_counter_still("dpq service bound", k, mc.bound_violations(), || {
                format!("arbiter={} pending={}", mc.arbiter_name(), snap.pending)
            });
        }
        // The staged-request counter must agree with the actual
        // class-queue contents, and the earliest-head memo that gates the
        // per-cycle drain with the class-queue heads (a memo set too late
        // would hold back admissions and their ingress rejects).
        for (k, counted, actual) in self.net.staged_conservation() {
            inv.check_conserved("net staged", k, counted, actual, 0, String::new);
        }
        for (k, memo, head) in self.net.staged_heads() {
            inv.check_conserved("net staged head", k, memo, head, 0, String::new);
        }
        let sat_epochs = self.metrics.sat_series.iter().filter(|&&s| s).count() as u64;
        inv.check_le("sat duty", 0, sat_epochs, self.metrics.sat_series.len() as u64, String::new);
        // Per-controller liveness: a controller with queued requests
        // must deliver bytes within the configured window.
        for (k, &bytes) in mc_bytes.iter().enumerate() {
            let pending = self.mcs[k].pending();
            inv.check_progress("mc service", k, bytes > 0, pending > 0, || {
                format!("pending={pending} stalled={}", self.mc_stalled[k])
            });
        }
    }

    /// The accumulated runtime-invariant report (see
    /// [`pabst_simkit::invariant`]). Holds violations only under
    /// [`ViolationPolicy::Record`](pabst_simkit::invariant::ViolationPolicy::Record).
    pub fn invariant_report(&self) -> &InvariantReport {
        self.invariants.report()
    }

    /// True when memory work is queued anywhere in the machine
    /// (controller queues, staged network requests, or the L3 MSHR
    /// retry queue), exposed for campaign timeout classification.
    pub fn has_pending_work(&self) -> bool {
        self.mcs.iter().any(|m| m.pending() > 0)
            || self.net.any_staged()
            || !self.mshr_wait.is_empty()
    }
}

/// Assembles a [`System`] from QoS classes with weights and per-core
/// workloads.
///
/// Cores are assigned to classes in the order `class` is called; the L3 is
/// partitioned into equal exclusive way groups per class (override with
/// [`SystemBuilder::l3_ways`]).
pub struct SystemBuilder {
    cfg: SystemConfig,
    mode: RegulationMode,
    weights: Vec<u32>,
    workloads: Vec<Vec<Box<dyn Workload>>>,
    l3_ways: Vec<Option<(usize, usize)>>,
    fault_plan: Option<FaultPlan>,
    skip: bool,
}

impl SystemBuilder {
    /// Starts building a system with the given configuration and
    /// regulation mode.
    pub fn new(cfg: SystemConfig, mode: RegulationMode) -> Self {
        Self {
            cfg,
            mode,
            weights: Vec::new(),
            workloads: Vec::new(),
            l3_ways: Vec::new(),
            fault_plan: None,
            skip: true,
        }
    }

    /// Turns quiescence-aware cycle skipping on (the default) or off.
    /// The only skip switch: the bench binaries' `--no-skip` flag ends
    /// here, and the built system's [`DomainSched`] holds the bit.
    /// Skipping is an execution strategy, not a model parameter: every
    /// observable output is byte-identical either way.
    pub fn skip(mut self, enabled: bool) -> Self {
        self.skip = enabled;
        self
    }

    /// Attaches a deterministic fault-injection plan (see
    /// [`pabst_simkit::fault`]). An absent or inert plan leaves every
    /// output byte-identical to an unfaulted run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Adds a QoS class with proportional-share `weight`, running one
    /// workload per core (consuming `workloads.len()` cores).
    pub fn class(mut self, weight: u32, workloads: Vec<Box<dyn Workload>>) -> Self {
        self.weights.push(weight);
        self.workloads.push(workloads);
        self.l3_ways.push(None);
        self
    }

    /// Overrides the L3 way partition of the most recently added class:
    /// `count` ways starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if called before any `class`.
    pub fn l3_ways(mut self, first: usize, count: usize) -> Self {
        *self.l3_ways.last_mut().expect("call class() first") = Some((first, count));
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid, the
    /// classes exceed the core count, or shares are malformed.
    pub fn build(self) -> Result<System, ConfigError> {
        self.cfg.validate()?;
        let total_cores: usize = self.workloads.iter().map(Vec::len).sum();
        if total_cores == 0 {
            return Err(ConfigError::NoWorkloads);
        }
        if total_cores > self.cfg.cores {
            return Err(ConfigError::TooManyCores {
                requested: total_cores,
                available: self.cfg.cores,
            });
        }
        let shares = ShareTable::from_weights(&self.weights).map_err(ConfigError::Weights)?;

        // L3 partitioning: equal exclusive slices by default.
        let mut l3 = SetAssocCache::new(self.cfg.l3);
        let classes = self.weights.len();
        let default_slice = (self.cfg.l3.ways / classes).max(1);
        for c in 0..classes {
            let (first, count) = self.l3_ways[c].unwrap_or((c * default_slice, default_slice));
            l3.set_partition(QosId::new(c as u8), WayMask::range(first, count));
        }

        let arb = if self.mode.target_active() { self.cfg.arbiter } else { ArbiterMode::Fcfs };
        let mcs: Vec<MemController> = (0..self.cfg.mcs)
            .map(|_| MemController::new(self.cfg.dram, arb, &shares, self.cfg.arbiter_slack))
            .collect();

        let mut tiles = Vec::new();
        let mut tile_class = Vec::new();
        let mut threads = vec![0u32; classes];
        for (c, class_workloads) in self.workloads.into_iter().enumerate() {
            let class = QosId::new(c as u8);
            for workload in class_workloads {
                let pacers = if !self.mode.source_active() {
                    Vec::new()
                } else if self.cfg.per_mc_regulation {
                    (0..self.cfg.mcs).map(|_| Pacer::with_burst(0, self.cfg.pacer_burst)).collect()
                } else {
                    vec![Pacer::with_burst(0, self.cfg.pacer_burst)]
                };
                let mem = TileMem::new(
                    class,
                    SetAssocCache::new(self.cfg.l1),
                    SetAssocCache::new(self.cfg.l2),
                    self.cfg.l2_mshrs,
                    self.cfg.l1_lat,
                    self.cfg.l2_lat,
                    pacers,
                    self.cfg.mcs,
                    self.cfg.topology.channel_map,
                );
                tiles.push(Tile { core: OooCore::new(self.cfg.core), mem, workload });
                tile_class.push(class);
                threads[c] += 1;
            }
        }

        let cores = tiles.len();
        let n_monitors = if self.cfg.per_mc_regulation { self.cfg.mcs } else { 1 };
        // Epoch 0's mc-stall windows are decided at build time; later
        // epochs refresh at each boundary.
        let mc_stalled: Vec<bool> = (0..self.cfg.mcs)
            .map(|k| {
                self.fault_plan.as_ref().is_some_and(|p| p.fires(FaultKind::McStall, k as u64, 0))
            })
            .collect();
        let faults_injected = mc_stalled.iter().filter(|&&s| s).count() as u64;
        Ok(System {
            metrics: Metrics::new(cores, classes, self.cfg.epoch_cycles),
            l3,
            l3_mshrs: MshrTable::new(self.cfg.l3_mshrs),
            net: Interconnect::new(&self.cfg, classes),
            mshr_wait: VecDeque::new(),
            mcs,
            monitors: (0..n_monitors).map(|_| self.cfg.governor.build(self.cfg.monitor)).collect(),
            rategen: RateGenerator::default(),
            tiles,
            tile_class,
            threads,
            shares,
            now: 0,
            sched: DomainSched::new(cores, self.skip),
            epochs_run: 0,
            invariants: InvariantChecker::new(self.cfg.invariants),
            trace_sinks: Vec::new(),
            prev_throttles: vec![0; cores],
            completions_scratch: Vec::new(),
            l3_waiters_scratch: Vec::new(),
            sat_history: vec![VecDeque::new(); n_monitors],
            mc_stalled,
            mc_stall_cycles: 0,
            faults_injected,
            fault_plan: self.fault_plan,
            cfg: self.cfg,
            mode: self.mode,
        })
    }
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("mode", &self.mode)
            .field("weights", &self.weights)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cpu::Op;

    struct Idle;
    impl Workload for Idle {
        fn next_op(&mut self) -> Op {
            Op::Compute(4)
        }
        fn name(&self) -> &str {
            "idle"
        }
    }

    fn idle_boxes(n: usize) -> Vec<Box<dyn Workload>> {
        (0..n).map(|_| Box::new(Idle) as Box<dyn Workload>).collect()
    }

    #[test]
    fn builder_rejects_too_many_cores() {
        let cfg = SystemConfig::small_test(); // 4 cores
        let err = SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(5)).build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_rejects_empty() {
        let cfg = SystemConfig::small_test();
        assert!(SystemBuilder::new(cfg, RegulationMode::Pabst).build().is_err());
    }

    #[test]
    fn idle_system_advances_and_reports_no_traffic() {
        let cfg = SystemConfig::small_test();
        let mut sys =
            SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(2)).build().unwrap();
        sys.run_epochs(3);
        assert_eq!(sys.epochs_run(), 3);
        assert_eq!(sys.now(), 3 * cfg.epoch_cycles);
        assert!(sys.metrics().mean_bytes_per_cycle(0, 0) < 1e-6);
        // Idle cores still retire compute at full width.
        assert!(sys.tiles()[0].core.stats().retired > 0);
        // No saturation ever.
        assert!(sys.metrics().sat_series.iter().all(|&s| !s));
    }

    #[test]
    fn invariant_checks_run_every_epoch_by_default() {
        // The default config checks every law family but liveness, in
        // every build profile.
        let cfg = SystemConfig::small_test();
        let mut sys =
            SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(2)).build().unwrap();
        sys.run_epochs(2);
        assert!(sys.invariant_report().checks_run() > 0);
    }

    /// Total demand reads staged toward the memory controllers.
    fn queued_mem_reads(sys: &System) -> usize {
        sys.net
            .staged
            .iter()
            .flat_map(|queues| queues.iter())
            .flat_map(|q| q.iter())
            .filter(|(_, r)| !r.is_write)
            .count()
    }

    #[test]
    fn mshr_wait_retry_merges_same_line_misses() {
        // Two misses to the same line are refused while the L3 MSHR table
        // is full. Once space frees, the retry loop must admit the first
        // and merge the second as a secondary — not re-admit it, which
        // would enqueue a duplicate DRAM read.
        let mut cfg = SystemConfig::small_test();
        cfg.l3_mshrs = 2;
        let mut sys =
            SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(2)).build().unwrap();

        // Fill the table with two unrelated in-flight misses.
        let blockers = [LineAddr::new(998), LineAddr::new(999)];
        for b in blockers {
            sys.l3_mshrs.alloc(b, L3Waiter { tile: 0, store: false });
        }
        assert!(sys.l3_mshrs.is_full());

        // Two tiles miss on the same line while the table is full.
        let line = LineAddr::new(7);
        for tile in 0..2 {
            sys.mshr_wait.push_back(L3Req {
                line,
                class: QosId::new(0),
                tile,
                store: false,
                l2_wb: false,
            });
        }

        // Both blockers complete; the retry loop runs with two free slots.
        for b in blockers {
            let _ = sys.l3_mshrs.complete(b);
        }
        sys.l3_service(0);

        assert!(sys.mshr_wait.is_empty(), "both waiting misses must drain");
        assert_eq!(sys.l3_mshrs.len(), 1, "same-line misses share one MSHR entry");
        assert_eq!(queued_mem_reads(&sys), 1, "exactly one DRAM read for the line");
        assert_eq!(sys.l3_mshrs.complete(line).len(), 2, "both tiles wait on the entry");
    }

    /// Drives one dirty-eviction L3 fill completion under `policy` and
    /// returns the `wb_flag` delivered to the demanding tile.
    fn completion_wb_flag(policy: WbAccounting) -> bool {
        let mut cfg = SystemConfig::small_test();
        cfg.wb_accounting = policy;
        let mut sys =
            SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(1)).build().unwrap();
        // Dirty every way of L3 set 0 so the next fill there must evict a
        // dirty line (small_test: 256 sets, lines k*256 map to set 0).
        for w in 0..16u64 {
            let _ = sys.l3.fill(LineAddr::new(w * 256), QosId::new(0), true);
        }
        let line = LineAddr::new(16 * 256);
        sys.l3_mshrs.alloc(line, L3Waiter { tile: 0, store: false });
        sys.on_mc_completion(Completion { token: 0, class: QosId::new(0), is_write: false, line });
        let resp = sys.net.resp_net.pop_ready(u64::MAX).expect("completion must respond");
        resp.wb_flag
    }

    #[test]
    fn wb_flag_respects_accounting_policy() {
        // Only ChargeDemand puts the writeback's extra period on the
        // demand source's pacer; the ablation modes must not.
        assert!(completion_wb_flag(WbAccounting::ChargeDemand));
        assert!(!completion_wb_flag(WbAccounting::ChargeOwner));
        assert!(!completion_wb_flag(WbAccounting::ChargeNone));
    }

    #[derive(Debug, Clone, Default)]
    struct Cap(std::rc::Rc<std::cell::RefCell<Vec<EpochRecord>>>);
    impl TraceSink for Cap {
        fn record(&mut self, rec: &EpochRecord) {
            self.0.borrow_mut().push(rec.clone());
        }
    }

    #[test]
    fn trace_records_one_per_epoch_and_deterministic() {
        let run = || {
            let cfg = SystemConfig::small_test();
            let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
                .class(1, idle_boxes(2))
                .build()
                .unwrap();
            let cap = Cap::default();
            sys.add_trace_sink(Box::new(cap.clone()));
            sys.run_epochs(3);
            let records = cap.0.borrow().clone();
            records
        };
        let a = run();
        assert_eq!(a.len(), 3, "one record per epoch");
        for (i, rec) in a.iter().enumerate() {
            assert_eq!(rec.epoch, i as u64);
            assert_eq!(rec.class_bytes.len(), 1, "one class");
            assert_eq!(rec.tile_throttles.len(), 2, "one entry per tile");
            assert_eq!(rec.mc_read_depth.len(), 1, "one entry per MC");
            assert!(rec.m > 0, "monitor state present");
        }
        let b = run();
        assert_eq!(a, b, "trace must be deterministic across identical runs");
    }

    use pabst_simkit::fault::FaultSpec;
    use pabst_simkit::invariant::{InvariantConfig, InvariantLaw, ViolationPolicy};
    use pabst_workloads::{ChaserGen, Region, StreamGen};

    /// Memory-bound read streamers over a region far larger than the L3,
    /// so every epoch generates misses for as long as the run lasts.
    fn stream_boxes(n: usize) -> Vec<Box<dyn Workload>> {
        (0..n)
            .map(|i| {
                Box::new(StreamGen::reads(Region::new(0, 1 << 16), i as u64)) as Box<dyn Workload>
            })
            .collect()
    }

    /// Single-chain pointer chasers: each core waits out every miss, so
    /// the whole machine goes quiet between them.
    fn chaser_boxes(n: usize) -> Vec<Box<dyn Workload>> {
        (0..n)
            .map(|i| {
                Box::new(ChaserGen::new(Region::new(0, 1 << 16), 4, i as u64)) as Box<dyn Workload>
            })
            .collect()
    }

    fn always(kind: FaultKind, target: u64, magnitude: u64) -> FaultSpec {
        FaultSpec {
            kind,
            target,
            from_epoch: 0,
            until_epoch: u64::MAX,
            prob_ppm: pabst_simkit::fault::PPM_SCALE,
            magnitude,
            seed: 1,
        }
    }

    #[test]
    fn watchdog_fires_on_a_permanently_stalled_mc() {
        // A liveness window under the default panicking policy is the
        // forward-progress watchdog.
        let mut cfg = SystemConfig::small_test();
        cfg.invariants.liveness_epochs = 3;
        let mut plan = FaultPlan::new();
        plan.push(always(FaultKind::McStall, 0, 0));
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .fault_plan(plan)
            .build()
            .unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_epochs(20);
        }))
        .expect_err("a fully stalled memory system must trip liveness");
        let msg = panic.downcast_ref::<String>().map_or("<non-string panic>", String::as_str);
        assert!(msg.contains("[liveness] mc service[0]"), "{msg}");
        assert!(msg.contains("stalled=true"), "diagnostic must carry the MC snapshot: {msg}");
    }

    #[test]
    fn watchdog_is_silent_on_a_healthy_run() {
        let mut cfg = SystemConfig::small_test();
        cfg.invariants.liveness_epochs = 2;
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .build()
            .unwrap();
        sys.run_epochs(10);
        assert_eq!(sys.epochs_run(), 10);
        assert_eq!(sys.faults_injected(), 0);
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let cfg = SystemConfig::small_test();
            let mut b = SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, stream_boxes(2));
            if let Some(p) = plan {
                b = b.fault_plan(p);
            }
            let mut sys = b.build().unwrap();
            let cap = Cap::default();
            sys.add_trace_sink(Box::new(cap.clone()));
            sys.run_epochs(6);
            let records = cap.0.borrow().clone();
            (records, sys.faults_injected())
        };
        let mut inert = FaultPlan::new();
        for kind in FaultKind::ALL {
            inert.push(FaultSpec {
                kind,
                target: 0,
                from_epoch: 0,
                until_epoch: u64::MAX,
                prob_ppm: 0,
                magnitude: 3,
                seed: 7,
            });
        }
        assert!(inert.is_inert());
        let (a, faults_a) = run(None);
        let (b, faults_b) = run(Some(inert));
        assert_eq!(a, b, "an inert plan must not perturb a single trace field");
        assert_eq!((faults_a, faults_b), (0, 0));
    }

    #[test]
    fn sat_drop_drives_the_governor_into_degraded_mode() {
        let cfg = SystemConfig::small_test();
        let mut plan = FaultPlan::new();
        plan.push(always(FaultKind::SatDrop, 0, 0));
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .fault_plan(plan)
            .build()
            .unwrap();
        sys.run_epochs(12);
        // Every epoch's broadcast was dropped; past the staleness window
        // the fail-safe decay kicks in.
        assert_eq!(sys.faults_injected(), 12);
        assert!(sys.degraded_epochs() > 0, "governor must enter the degraded policy");
        assert_eq!(sys.degraded_epochs(), 12 - u64::from(cfg.monitor.staleness_k));
    }

    #[test]
    fn finite_mc_stall_window_recovers_without_deadlock() {
        let mut cfg = SystemConfig::small_test();
        cfg.invariants.liveness_epochs = 5;
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::McStall,
            target: 0,
            from_epoch: 1,
            until_epoch: 2,
            prob_ppm: pabst_simkit::fault::PPM_SCALE,
            magnitude: 0,
            seed: 0,
        });
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .fault_plan(plan)
            .build()
            .unwrap();
        sys.run_epochs(8);
        assert_eq!(sys.epochs_run(), 8, "the sweep must outlive the stall window");
        assert_eq!(sys.faults_injected(), 2, "epochs 1 and 2 stall");
        assert!(sys.bytes_since_mark(0) > 0, "traffic must flow after recovery");
    }

    #[test]
    fn invariant_checker_runs_and_stays_clean_on_a_healthy_run() {
        let mut cfg = SystemConfig::small_test();
        cfg.invariants.liveness_epochs = 4;
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .build()
            .unwrap();
        sys.run_epochs(10);
        let report = sys.invariant_report();
        assert!(report.checks_run() > 0, "the release-mode checker must be live by default");
        assert!(report.is_clean(), "healthy run violated laws: {:?}", report.violations());
    }

    #[test]
    fn liveness_invariant_reports_a_wedged_mc_without_panicking() {
        // Same wedge the watchdog test aborts on — but under the
        // recording policy the run completes and the stall is
        // *recorded* as a typed violation instead.
        let mut cfg = SystemConfig::small_test();
        cfg.invariants.policy = ViolationPolicy::Record;
        cfg.invariants.liveness_epochs = 3;
        let mut plan = FaultPlan::new();
        plan.push(always(FaultKind::McStall, 0, 0));
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .fault_plan(plan)
            .build()
            .unwrap();
        sys.run_epochs(12);
        assert_eq!(sys.epochs_run(), 12, "no abort");
        let report = sys.invariant_report();
        assert!(!report.is_clean(), "a permanently wedged MC must trip liveness");
        let v = &report.violations()[0];
        assert_eq!(v.law, InvariantLaw::Liveness);
        assert_eq!(v.name, "mc service");
        assert!(v.detail.contains("stalled=true"), "{}", v.detail);
        assert!(sys.has_pending_work(), "the wedge leaves requests queued");
    }

    #[test]
    fn invariant_checking_is_observation_only() {
        // The acceptance criterion behind leaving the checker on in
        // golden runs: arming every invariant family (the liveness
        // window too) must not perturb a single trace field.
        let run = |inv: InvariantConfig| {
            let mut cfg = SystemConfig::small_test();
            cfg.invariants = inv;
            let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
                .class(1, stream_boxes(2))
                .build()
                .unwrap();
            let cap = Cap::default();
            sys.add_trace_sink(Box::new(cap.clone()));
            sys.run_epochs(6);
            let records = cap.0.borrow().clone();
            records
        };
        let default = run(InvariantConfig::default());
        let armed = run(InvariantConfig { liveness_epochs: 1, ..InvariantConfig::default() });
        assert_eq!(default, armed, "the checker must read state, never mutate it");
    }

    #[test]
    fn skew_and_credit_leak_fire_per_tile() {
        let cfg = SystemConfig::small_test();
        let mut plan = FaultPlan::new();
        plan.push(always(FaultKind::EpochSkew, 0, 0));
        plan.push(always(FaultKind::CreditLeak, 1, 10_000));
        let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
            .class(1, stream_boxes(2))
            .fault_plan(plan)
            .build()
            .unwrap();
        sys.run_epochs(6);
        // One skew (tile 0) and one leak (tile 1) per boundary.
        assert_eq!(sys.faults_injected(), 12);
    }

    #[test]
    fn all_idle_step_performs_no_queue_operations() {
        // Compute-only tiles never miss, so every memory-side structure
        // must stay untouched no matter how long the system steps: the
        // guarded paths in `step` (MC drain, L3 service, response pop,
        // injection) all see empty queues and do no work.
        let cfg = SystemConfig::small_test();
        let mut sys =
            SystemBuilder::new(cfg, RegulationMode::Pabst).class(1, idle_boxes(2)).build().unwrap();
        for _ in 0..500 {
            sys.step();
        }
        assert!(!sys.net.has_requests(), "nothing may enter the request network");
        assert!(!sys.net.has_responses(), "nothing may enter the response network");
        assert!(sys.mshr_wait.is_empty());
        assert_eq!(sys.l3_mshrs.len(), 0);
        assert!(!sys.net.any_staged());
        for mc in &sys.mcs {
            assert_eq!(mc.accepted(), 0, "no request may reach a controller");
            assert_eq!(mc.pending(), 0);
        }
        // Busy compute cores are never quiescent, so nothing was skipped.
        assert_eq!(sys.cycles_skipped(), 0);
        assert_eq!(sys.now(), 500);
    }

    #[test]
    fn fast_forward_is_bit_identical_to_naive_stepping() {
        // The tentpole contract in miniature (the full config × workload ×
        // fault matrix lives in tests/skip_equiv.rs): same machine, same
        // workloads, skip on vs off — every trace field, the clock, and
        // every core's retirement count must match exactly.
        let run = |skip: bool| {
            let cfg = SystemConfig::small_test();
            let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
                .class(3, stream_boxes(2))
                .class(1, stream_boxes(2))
                .skip(skip)
                .build()
                .unwrap();
            assert_eq!(sys.skip_enabled(), skip);
            let cap = Cap::default();
            sys.add_trace_sink(Box::new(cap.clone()));
            sys.run_epochs(8);
            let records = cap.0.borrow().clone();
            let retired: Vec<u64> = sys.tiles().iter().map(|t| t.core.stats().retired).collect();
            let skipped =
                [sys.cycles_skipped(), sys.tile_cycles_skipped(), sys.mc_cycles_skipped()];
            (records, sys.now(), retired, skipped)
        };
        let (rec_skip, now_skip, ret_skip, skipped) = run(true);
        let (rec_naive, now_naive, ret_naive, skipped_naive) = run(false);
        assert_eq!(rec_skip, rec_naive, "trace records must be byte-identical");
        assert_eq!(now_skip, now_naive);
        assert_eq!(ret_skip, ret_naive);
        assert_eq!(skipped_naive, [0; 3], "naive mode must never jump, park, or accrue");
        assert!(skipped[0] > 0, "saturating streams must leave skippable gaps, got 0");
    }

    #[test]
    fn naive_idle_heavy_run_never_parks() {
        // Single-chain chasers leave every tile waiting out a miss most
        // cycles: with skipping on the tiles park, with it off the same
        // machine is the per-cycle oracle and nothing parks. The trace
        // matches either way.
        let run = |skip: bool| {
            let mut sys = SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
                .class(1, chaser_boxes(2))
                .skip(skip)
                .build()
                .unwrap();
            let cap = Cap::default();
            sys.add_trace_sink(Box::new(cap.clone()));
            sys.run_epochs(6);
            let records = cap.0.borrow().clone();
            (records, sys.tile_cycles_skipped(), sys.cycles_skipped())
        };
        let (rec_skip, parked, jumped) = run(true);
        let (rec_naive, parked_naive, jumped_naive) = run(false);
        assert_eq!(rec_skip, rec_naive, "trace records must be byte-identical");
        assert!(parked > 0 && jumped > 0, "idle chasers must park and jump: {parked}, {jumped}");
        assert_eq!((parked_naive, jumped_naive), (0, 0), "no tile may park with skipping off");
    }

    #[test]
    fn global_jumps_accrue_every_live_controller() {
        // Controllers never park, so the only controller-cycles not
        // stepped are the ones a global jump accrues: one per jumped
        // cycle per controller, except a controller frozen by an
        // mc-stall window, which takes no samples at all.
        let run = |plan: Option<FaultPlan>| {
            let mut b = SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
                .class(1, chaser_boxes(2));
            if let Some(p) = plan {
                b = b.fault_plan(p);
            }
            let mut sys = b.build().unwrap();
            sys.run_epochs(6);
            (sys.cycles_skipped(), sys.mc_cycles_skipped(), sys.mc_count() as u64)
        };
        let (jumped, mc_jumped, mcs) = run(None);
        assert!(jumped > 0, "chasers must leave the machine quiet between misses");
        assert_eq!(mc_jumped, jumped * mcs);
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::McStall,
            target: 0,
            from_epoch: 1,
            until_epoch: 2,
            prob_ppm: pabst_simkit::fault::PPM_SCALE,
            magnitude: 0,
            seed: 0,
        });
        let (jumped, mc_jumped, mcs) = run(Some(plan));
        assert!(
            mc_jumped < jumped * mcs,
            "a stalled controller accrues nothing: {mc_jumped} vs {jumped}"
        );
    }

    #[test]
    fn advance_settles_parked_tiles_mid_epoch() {
        // The advance-settle wake edge: `run_cycles` may stop mid-epoch
        // with tiles parked, and the return wakes them all with their
        // owed bookkeeping accrued, so readers see exactly the state
        // naive stepping leaves. Single-chain chasers park between misses.
        let chasers = |class: u64| -> Vec<Box<dyn Workload>> {
            (0..2u64)
                .map(|i| {
                    let region = Region::new((class << 40) + (i << 32), 1 << 16);
                    Box::new(ChaserGen::new(region, 1, class * 2 + i)) as Box<dyn Workload>
                })
                .collect()
        };
        let build = |skip: bool| {
            SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
                .class(3, chasers(0))
                .class(1, chasers(1))
                .skip(skip)
                .build()
                .unwrap()
        };
        let observe = |sys: &System| -> Vec<(pabst_cpu::CoreStats, Vec<u64>)> {
            let throttled = |t: &Tile| t.mem.pacers().iter().map(|p| p.throttled()).collect();
            sys.tiles().iter().map(|t| (t.core.stats(), throttled(t))).collect()
        };
        let (mut fast, mut naive) = (build(true), build(false));
        for _ in 0..5 {
            fast.run_cycles(777);
            naive.run_cycles(777);
            let now = fast.now();
            assert!(!now.is_multiple_of(fast.cfg.epoch_cycles), "cycle {now} is mid-epoch");
            for i in 0..fast.tiles().len() {
                assert!(!fast.sched.tile_parked(i), "tile {i} parked after return at {now}");
            }
            assert_eq!(observe(&fast), observe(&naive), "tile state diverged at cycle {now}");
        }
        assert!(fast.tile_cycles_skipped() > 0, "chasers must park between misses");
    }

    #[test]
    fn tiles_blocked_on_full_mshrs_park() {
        // Write streamers run their L2 MSHRs full and spend most cycles
        // with every store refused. Waiting for the MSHR release parks
        // them: tile-cycles are stepped only around fills. A work count,
        // not a timing: pinning blocked tiles live again reads ~0.5.
        let streams = |store: bool, class: u64| -> Vec<Box<dyn Workload>> {
            (0..16u64)
                .map(|i| {
                    let region = Region::new((class << 40) + (i << 32), 1 << 20);
                    let seed = class * 64 + i;
                    let g = if store {
                        StreamGen::writes(region, seed)
                    } else {
                        StreamGen::reads(region, seed)
                    };
                    Box::new(g) as Box<dyn Workload>
                })
                .collect()
        };
        let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
            .class(3, streams(true, 0))
            .class(1, streams(false, 1))
            .build()
            .unwrap();
        sys.run_epochs(1);
        let tile_cycles = sys.now() * sys.tiles().len() as u64;
        let parked = sys.tile_cycles_skipped();
        assert!(
            parked * 10 >= tile_cycles * 9,
            "blocked tiles must park: {parked} of {tile_cycles} tile-cycles"
        );
    }

    #[test]
    fn partitions_default_to_equal_slices() {
        // Two classes on a 16-way L3: 8 ways each; build must not panic and
        // the system must run.
        let cfg = SystemConfig::small_test();
        let mut sys = SystemBuilder::new(cfg, RegulationMode::None)
            .class(1, idle_boxes(1))
            .class(1, idle_boxes(1))
            .build()
            .unwrap();
        sys.run_epochs(1);
    }
}
