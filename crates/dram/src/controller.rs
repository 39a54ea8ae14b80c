//! The memory controller: ingress FIFO, split front-end read/write queues,
//! back-end bank scheduling, a per-burst bus scheduler, and the saturation
//! monitor.
//!
//! ## Structure (paper §III-C)
//!
//! ```text
//! network ─► ingress FIFO ─► front-end { read Q | write Q }
//!                                        │  back-end: per-bank ACT/CAS pipelines
//!                                        ▼
//!                              data buffer ─► bus scheduler ─► data bus
//! ```
//!
//! * The **back-end** issues bank accesses straight from the front-end
//!   queues: every ready bank nominates its local winner — row hits first,
//!   then priority order (earliest virtual deadline in
//!   [`ArbiterMode::Edf`]/[`ArbiterMode::Fqm`], oldest in
//!   [`ArbiterMode::Fcfs`]), with the row-hit bypass streak bounded so
//!   hits cannot starve a prioritized row miss — and the globally
//!   highest-priority nomination wins a data-buffer slot.
//! * The **bus scheduler** assigns each data-bus burst to the highest-
//!   priority *ready* access in the data buffer. This is the second place
//!   the paper applies deadline order, and it is what lets a prioritized
//!   class's data jump every other bank's completed access instead of
//!   waiting in a priority-blind reservation chain.
//! * Writes are not prioritized: they drain in batches between the
//!   high/low watermarks (bus turnaround applied on direction switches)
//!   and opportunistically when no read is pending.
//!
//! ## Simplifications (documented deviations)
//!
//! * Rows stay open until a conflicting access (lazy close) rather than a
//!   strict closed page; with row-hit-first selection this is standard
//!   FR-FCFS and produces the same scheduling trade-offs the paper
//!   discusses (row hits vs. priority).
//! * No read-around-write forwarding from the write queue; the evaluated
//!   workloads never re-read recently written lines quickly.

use pabst_cache::LineAddr;
use pabst_core::arbiter::VirtualDeadline;
use pabst_core::qos::{QosId, ShareTable, MAX_CLASSES};
use pabst_core::satmon::SatMonitor;
use pabst_simkit::queue::BoundedQueue;
use pabst_simkit::{Cycle, LINE_BYTES};

use crate::arbiter::{ArbiterMode, TargetArbiter};
use crate::config::DramConfig;

/// A request presented to the controller's ingress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Target cache line.
    pub line: LineAddr,
    /// Originating QoS class.
    pub class: QosId,
    /// True for a writeback, false for a demand read.
    pub is_write: bool,
    /// Opaque caller token returned in the [`Completion`] (routes responses
    /// back through the cache hierarchy).
    pub token: u64,
}

/// A finished access, reported at the cycle its data burst completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's caller token.
    pub token: u64,
    /// Originating class (for accounting).
    pub class: QosId,
    /// Whether this was a write.
    pub is_write: bool,
    /// The accessed line.
    pub line: LineAddr,
}

#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    req: MemReq,
    deadline: VirtualDeadline,
    /// Priority key, smallest first: `(deadline, seq)`, or `(0, seq)`
    /// under a priority-blind arbiter. `seq` is the acceptance number,
    /// so no two keys tie.
    key: (VirtualDeadline, u64),
    enq_at: Cycle,
    /// Bank index of `req.line`, decoded once at acceptance.
    bank: u32,
    /// Row index of `req.line`, decoded once at acceptance.
    row: u64,
}

impl QueuedReq {
    /// Acceptance sequence number.
    fn seq(&self) -> u64 {
        self.key.1
    }
}

#[derive(Debug)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank may start its next column/row command.
    rdy: Cycle,
    /// Consecutive times a row hit bypassed the priority-order winner.
    hit_streak: u32,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct McStats {
    /// Total bytes transferred per class (reads + writes it caused).
    pub bytes: [u64; MAX_CLASSES],
    /// Bytes per class since the last epoch snapshot.
    epoch_marks: [u64; MAX_CLASSES],
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Data-bus busy cycles (burst occupancy only).
    pub bus_busy: u64,
    /// Row-hit accesses.
    pub row_hits: u64,
    /// Row-miss (activate) accesses.
    pub row_misses: u64,
    /// Sum of read latencies (queue entry to data completion) per class.
    pub read_lat_sum: [u64; MAX_CLASSES],
    /// Completed reads per class (denominator for the mean latency).
    pub read_lat_n: [u64; MAX_CLASSES],
}

impl McStats {
    /// Bytes per class since the previous call (per-epoch bandwidth).
    pub fn take_epoch_bytes(&mut self) -> [u64; MAX_CLASSES] {
        let mut out = [0u64; MAX_CLASSES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.bytes[i] - self.epoch_marks[i];
            self.epoch_marks[i] = self.bytes[i];
        }
        out
    }

    /// Mean in-controller read latency of `class` in cycles, or `None`
    /// when it completed no reads.
    pub fn mean_read_latency(&self, class: QosId) -> Option<f64> {
        let n = self.read_lat_n[class.index()];
        if n == 0 {
            None
        } else {
            Some(self.read_lat_sum[class.index()] as f64 / n as f64)
        }
    }

    /// Row-hit rate over completed accesses, or 0 when none.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A point-in-time view of one [`MemController`]'s queues and priority
/// arbiter (observability; see [`MemController::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McSnapshot {
    /// Entries in the front-end read queue.
    pub read_q_depth: u64,
    /// Entries in the front-end write queue.
    pub write_q_depth: u64,
    /// Entries waiting in the ingress FIFO.
    pub ingress_depth: u64,
    /// Outstanding work anywhere in the controller.
    pub pending: u64,
    /// Requests accepted at the ingress so far.
    pub accepted: u64,
    /// Requests refused at the ingress so far.
    pub ingress_rejects: u64,
    /// Per-class virtual-clock values of the priority arbiter.
    pub virtual_clocks: Vec<u64>,
}

/// One front-end queue (reads or writes), indexed by bank.
///
/// Each bank keeps its entries in arrival order plus its cached issue
/// nominees, so the back end compares one nominee per ready bank instead
/// of walking the whole queue every cycle. Invariants, checked after
/// every accept and issue in debug builds
/// ([`MemController::nominees_fresh`]):
///
/// * `len` is the total entry count over all banks, at most `cap`;
/// * bit `b` of `occupied` is set exactly when bank `b` has entries;
/// * a bank's list is in acceptance order, so its head is the bank's
///   oldest entry — the only one that can pass the age cap first;
/// * `prio` is the position of the bank's smallest key (meaningful
///   only while the list is non-empty);
/// * `hit` is the position of the smallest key among the entries on
///   the bank's open row, or `None` when none is on it.
///
/// A push updates its bank's nominees incrementally; a removal or a
/// change of the bank's open row rescans that one bank.
#[derive(Debug)]
struct FrontQueue {
    banks: Vec<BankQueue>,
    len: usize,
    cap: usize,
    occupied: u64,
}

#[derive(Debug, Default)]
struct BankQueue {
    entries: Vec<QueuedReq>,
    prio: usize,
    hit: Option<usize>,
}

impl BankQueue {
    /// `(prio, hit)` by a fresh scan of the list.
    fn scan(&self, open_row: Option<u64>) -> (usize, Option<usize>) {
        let mut prio = 0;
        let mut hit: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.key < self.entries[prio].key {
                prio = i;
            }
            if open_row == Some(e.row) && hit.is_none_or(|h| e.key < self.entries[h].key) {
                hit = Some(i);
            }
        }
        (prio, hit)
    }
}

impl FrontQueue {
    fn new(cap: usize, banks: usize) -> Self {
        let banks = (0..banks).map(|_| BankQueue::default()).collect();
        Self { banks, len: 0, cap, occupied: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len >= self.cap
    }

    /// Appends a newly accepted entry; `open_row` is its bank's open row.
    fn push(&mut self, e: QueuedReq, open_row: Option<u64>) {
        debug_assert!(!self.is_full(), "fullness checked by the caller");
        let bq = &mut self.banks[e.bank as usize];
        let pos = bq.entries.len();
        if pos == 0 || e.key < bq.entries[bq.prio].key {
            bq.prio = pos;
        }
        if open_row == Some(e.row) && bq.hit.is_none_or(|h| e.key < bq.entries[h].key) {
            bq.hit = Some(pos);
        }
        bq.entries.push(e);
        self.len += 1;
        self.occupied |= 1 << e.bank;
    }

    /// Removes entry `pos` of bank `b`. The bank's nominees are stale
    /// until [`FrontQueue::renominate`].
    fn take(&mut self, b: usize, pos: usize) -> QueuedReq {
        let entries = &mut self.banks[b].entries;
        let e = entries.remove(pos);
        if entries.is_empty() {
            self.occupied &= !(1 << b);
        }
        self.len -= 1;
        e
    }

    /// Recomputes bank `b`'s nominees against its open row.
    fn renominate(&mut self, b: usize, open_row: Option<u64>) {
        let bq = &mut self.banks[b];
        (bq.prio, bq.hit) = bq.scan(open_row);
    }
}

/// The set bits of `mask`, lowest first.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (b < 64).then_some(b)
    })
}

/// A completed column access whose data burst awaits the bus.
#[derive(Debug, Clone, Copy)]
struct PendingBurst {
    e: QueuedReq,
    /// Cycle the data can first appear on the bus.
    ready_at: Cycle,
    /// FQM service-cost units (1 row hit, 2 closed row, 3 conflict).
    cost: u64,
}

/// One memory controller with a single DRAM channel.
#[derive(Debug)]
pub struct MemController {
    cfg: DramConfig,
    ingress: BoundedQueue<MemReq>,
    read_q: FrontQueue,
    write_q: FrontQueue,
    banks: Vec<Bank>,
    /// The mechanism: whether stamps enter the priority keys, and the
    /// label reports carry.
    mode: ArbiterMode,
    arbiter: TargetArbiter,
    /// QoS classes in the share table (the snapshot's clock count).
    classes: usize,
    satmon: SatMonitor,
    /// Column accesses whose data awaits a bus slot.
    awaiting_bus: Vec<PendingBurst>,
    /// Scheduled bursts waiting for their data to finish transferring.
    inflight: Vec<(QueuedReq, Cycle)>,
    /// The back end picks nothing before this cycle: set by a failed pick
    /// to the earliest `rdy` over the banks with queued work (`Cycle::MAX`
    /// with none), cleared by an accept or an issue, the only events that
    /// change a bank's queued work, its `rdy` or the queue the back end
    /// picks from. 0 when no pick has failed since.
    issue_idle_until: Cycle,
    /// The bus scheduler books nothing before this cycle: set by a scan
    /// that found no eligible burst to the earliest `ready_at` in the data
    /// buffer (`Cycle::MAX` when empty), cleared when a burst joins it.
    /// Eligibility needs a booking to move `bus_free_at`, which needs an
    /// eligible burst, so only a new burst or the clock can change it.
    bus_idle_until: Cycle,
    /// The earliest `done_at` in `inflight` (`Cycle::MAX` when empty):
    /// no completion surfaces before it.
    next_done: Cycle,
    bus_free_at: Cycle,
    last_dir_write: bool,
    draining_writes: bool,
    seq: u64,
    stats: McStats,
    /// Requests rejected at the ingress (upstream must retry): visibility
    /// into backpressure.
    ingress_rejects: u64,
    /// Requests accepted at the ingress (inflow side of the conservation
    /// invariant checked at every epoch boundary).
    accepted: u64,
    /// Max cycles a bank-queue entry may wait before overriding row-hit
    /// preference (starvation guard).
    age_cap: Cycle,
    /// Max consecutive row-hit bypasses of the priority-order winner.
    max_hit_streak: u32,
}

impl MemController {
    /// Creates a controller.
    ///
    /// `shares` provides the per-class strides for the priority arbiter
    /// (ignored by priority-blind modes); `slack` is the arbiter's
    /// virtual-credit bound (the paper uses 128). `mode` selects the
    /// [`TargetArbiter`] variant.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: DramConfig, mode: ArbiterMode, shares: &ShareTable, slack: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DramConfig: {e}");
        }
        let banks =
            (0..cfg.banks).map(|_| Bank { open_row: None, rdy: 0, hit_streak: 0 }).collect();
        Self {
            ingress: BoundedQueue::new(cfg.ingress_cap),
            read_q: FrontQueue::new(cfg.read_q_cap, cfg.banks),
            write_q: FrontQueue::new(cfg.write_q_cap, cfg.banks),
            banks,
            mode,
            arbiter: mode.build(shares, slack, cfg.banks),
            classes: shares.classes(),
            satmon: SatMonitor::new(cfg.read_q_cap),
            awaiting_bus: Vec::new(),
            inflight: Vec::new(),
            issue_idle_until: 0,
            bus_idle_until: 0,
            next_done: Cycle::MAX,
            bus_free_at: 0,
            last_dir_write: false,
            draining_writes: false,
            seq: 0,
            stats: McStats::default(),
            ingress_rejects: 0,
            accepted: 0,
            // Pure starvation backstop: priority inversion from row-hit
            // streaks is already bounded by `max_hit_streak`, so this only
            // catches pathological waits, far beyond any legitimate
            // low-share queueing delay.
            age_cap: 10_000,
            max_hit_streak: 3,
            cfg,
        }
    }

    /// Offers a request to the ingress port.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the ingress FIFO is full; the caller must
    /// hold the request and retry (backpressure into the cache hierarchy).
    pub fn push(&mut self, req: MemReq) -> Result<(), MemReq> {
        match self.ingress.push(req) {
            Ok(()) => {
                self.accepted += 1;
                Ok(())
            }
            Err(r) => {
                self.refuse();
                Err(r)
            }
        }
    }

    /// Counts one request refused at a full ingress without offering it:
    /// for a caller that knows the ingress is full (see
    /// [`MemController::can_accept`]) and would otherwise build a request
    /// only to have [`MemController::push`] refuse it. The one path that
    /// counts `ingress_rejects`.
    pub fn refuse(&mut self) {
        debug_assert!(!self.can_accept(), "refusing with ingress room");
        self.ingress_rejects += 1;
    }

    /// True when the ingress port can accept a request this cycle.
    pub fn can_accept(&self) -> bool {
        !self.ingress.is_full()
    }

    /// Advances the controller one cycle, appending accesses whose data
    /// burst completed this cycle to `out`.
    ///
    /// The back end, bus and completion stages each run only from the
    /// cycle their own last scan recorded as the earliest one that can
    /// act (see `issue_idle_until`, `bus_idle_until`, `next_done`); debug
    /// builds check that every skipped stage would have been a no-op.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        self.satmon.sample(self.read_q.len());
        if self.pending() == 0 {
            // Idle fast path: no queued or in-flight work anywhere, so the
            // accept/issue/bus/collect stages below are all no-ops.
            return;
        }
        self.accept_from_ingress(now);
        self.update_drain_mode();
        if now >= self.issue_idle_until {
            self.back_end_issue(now);
        } else {
            debug_assert!(self.pick(now, self.use_writes()).is_none(), "gated issue would pick");
        }
        if now >= self.bus_idle_until {
            self.bus_schedule(now);
        } else {
            debug_assert!(self.bus_pick(now).is_none(), "gated bus would book");
        }
        if now >= self.next_done {
            self.collect_completions_into(now, out);
        } else {
            debug_assert!(self.inflight.iter().all(|&(_, at)| at > now), "gated completion");
        }
    }

    /// Computes this controller's SAT bit for the epoch that just ended and
    /// resets the occupancy average (§III-C1).
    pub fn take_epoch_sat(&mut self) -> bool {
        self.satmon.take_epoch_sat()
    }

    /// Earliest cycle at which stepping this controller could change
    /// observable state, or `None` when it holds no work at all.
    ///
    /// Follows the horizon contract (`docs/PERFORMANCE.md`): answers may
    /// be conservative (a step at the reported cycle can turn out to be
    /// a no-op, e.g. when write-drain mode picks a queue whose banks are
    /// all busy) but never late. Each pipeline stage contributes the
    /// cycle its own gating condition first opens:
    ///
    /// * ingress — a routable head is accepted the cycle it is stepped;
    ///   a blocked head unblocks only after a front-end queue drains,
    ///   which one of the bank/bus events below must precede;
    /// * back end — a queued request can issue once its bank's timing
    ///   holds (tRCD/tCAS/tRP) release, provided a data-buffer slot is
    ///   free;
    /// * bus — a burst can be booked once the booking window opens and
    ///   its data is ready;
    /// * completions — surface at their scheduled data-done cycle.
    ///
    /// The saturation monitor's per-cycle occupancy sample is *not* an
    /// event (it never changes queue state); skipped cycles accrue it in
    /// batch via [`MemController::accrue_skip`]. Nor is the arbiter: its
    /// priorities move only when it stamps an accept or sees a grant.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;

        if self.pending() == 0 {
            return None;
        }
        let mut h = Horizon::new();
        if let Some(head) = self.ingress.peek() {
            if !self.front(head.is_write).is_full() {
                return Some(now);
            }
        }
        if self.awaiting_bus.len() < self.cfg.data_buf_cap {
            // Every bank with queued work contributes, in either queue
            // and regardless of the current drain mode: conservative,
            // never late.
            for b in set_bits(self.read_q.occupied | self.write_q.occupied) {
                let rdy = self.banks[b].rdy;
                if rdy <= now {
                    return Some(now);
                }
                h.add(rdy);
            }
        }
        let t_burst = self.cfg.eff(self.cfg.t_burst);
        let book = self.bus_free_at.saturating_sub(t_burst);
        for p in &self.awaiting_bus {
            let c = if p.ready_at <= self.bus_free_at { book } else { p.ready_at };
            if c <= now {
                return Some(now);
            }
            h.add(c);
        }
        for &(_, done_at) in &self.inflight {
            if done_at <= now {
                return Some(now);
            }
            h.add(done_at);
        }
        h.get()
    }

    /// Accounts for `cycles` skipped quiescent cycles: the saturation
    /// monitor samples the read-queue occupancy every stepped cycle, and
    /// the occupancy cannot have changed while the controller was not
    /// stepped, so the samples naive stepping would have taken are all
    /// equal to the current depth.
    pub fn accrue_skip(&mut self, cycles: u64) {
        self.satmon.sample_n(self.read_q.len(), cycles);
    }

    /// Controller statistics (mutable so callers can take epoch deltas).
    pub fn stats_mut(&mut self) -> &mut McStats {
        &mut self.stats
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Requests refused at the ingress so far.
    pub fn ingress_rejects(&self) -> u64 {
        self.ingress_rejects
    }

    /// Requests accepted at the ingress so far. At any instant
    /// `accepted == completed reads + completed writes + pending()` — the
    /// conservation invariant that `System`'s epoch-boundary invariant
    /// checker verifies.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Current virtual-clock value of `id`'s class in the priority
    /// arbiter. Monotonically nondecreasing (stamps advance it; the slack
    /// floor only ever raises it), which `System`'s epoch-boundary checks
    /// verify.
    pub fn virtual_clock(&self, id: QosId) -> u64 {
        self.arbiter.clock(id)
    }

    /// Stable label of the target arbiter (provenance hashing, report
    /// tables).
    pub fn arbiter_name(&self) -> &'static str {
        self.mode.label()
    }

    /// Cumulative arbiter bound violations (e.g. DPQ worst-case service
    /// promises missed); read each epoch by the invariant checker.
    pub fn bound_violations(&self) -> u64 {
        self.arbiter.bound_violations()
    }

    /// Outstanding work anywhere in the controller (for drain loops in
    /// tests and at simulation end).
    pub fn pending(&self) -> usize {
        self.ingress.len()
            + self.read_q.len()
            + self.write_q.len()
            + self.awaiting_bus.len()
            + self.inflight.len()
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// A point-in-time view of the controller's queues and arbiter state
    /// for observability (trace records). Pure.
    pub fn snapshot(&self) -> McSnapshot {
        let clocks = (0..self.classes).map(|c| self.arbiter.clock(QosId::new(c as u8))).collect();
        McSnapshot {
            read_q_depth: self.read_q.len() as u64,
            write_q_depth: self.write_q.len() as u64,
            ingress_depth: self.ingress.len() as u64,
            pending: self.pending() as u64,
            accepted: self.accepted,
            ingress_rejects: self.ingress_rejects,
            virtual_clocks: clocks,
        }
    }

    fn accept_from_ingress(&mut self, now: Cycle) {
        // Head-of-line: stop at the first request that cannot be routed.
        // This is deliberate — it is how requests "queue elsewhere in the
        // system" when the target is oversubscribed (Fig. 1b).
        while let Some(head) = self.ingress.peek() {
            let is_write = head.is_write;
            if self.front(is_write).is_full() {
                break;
            }
            let req = self.ingress.pop().expect("peeked entry exists");
            self.seq += 1;
            let cols = req.line.get() / self.cfg.lines_per_row;
            let bank = (cols % self.cfg.banks as u64) as u32;
            let row = cols / self.cfg.banks as u64;
            // The arbiter stamps every accepted request; only FCFS keeps
            // the stamps out of the priority key.
            let q = if is_write { &mut self.write_q } else { &mut self.read_q };
            let deadline = self.arbiter.stamp(req.class, is_write, self.seq, bank, q.len());
            let prio = if self.mode == ArbiterMode::Fcfs { VirtualDeadline(0) } else { deadline };
            let e = QueuedReq { req, deadline, key: (prio, self.seq), enq_at: now, bank, row };
            q.push(e, self.banks[bank as usize].open_row);
            self.issue_idle_until = 0;
            debug_assert!(self.nominees_fresh(), "stale nominees after accept");
        }
    }

    fn update_drain_mode(&mut self) {
        if self.write_q.len() >= self.cfg.wr_high {
            self.draining_writes = true;
        } else if self.write_q.len() <= self.cfg.wr_low {
            self.draining_writes = false;
        }
    }

    /// Issues bank accesses directly from the front-end queues (the
    /// paper's back-end): for each selection, every *ready* bank nominates
    /// its local winner — row hits first, then priority order, with the
    /// row-hit bypass streak bounded — and the globally highest-priority
    /// nomination wins the data-buffer slot. Writes are drained in batches
    /// between the watermarks and opportunistically when no read is
    /// pending.
    ///
    /// A failed pick records the earliest cycle a bank with queued work
    /// can next start a command, and the back end rests until then.
    fn back_end_issue(&mut self, now: Cycle) {
        for _ in 0..2 {
            if self.awaiting_bus.len() >= self.cfg.data_buf_cap {
                break;
            }
            if !self.issue_one(now, self.use_writes()) {
                self.issue_idle_until = set_bits(self.read_q.occupied | self.write_q.occupied)
                    .map(|b| self.banks[b].rdy)
                    .min()
                    .unwrap_or(Cycle::MAX);
                break;
            }
        }
    }

    /// Whether the back end picks from the write queue this cycle.
    fn use_writes(&self) -> bool {
        self.draining_writes || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// Selects and issues one request from the chosen front-end queue.
    /// Returns whether anything issued.
    fn issue_one(&mut self, now: Cycle, from_writes: bool) -> bool {
        let Some((b, pos, bypass)) = self.pick(now, from_writes) else {
            return false;
        };
        self.issue_idle_until = 0;
        let bank = &mut self.banks[b];
        bank.hit_streak = if bypass { bank.hit_streak + 1 } else { 0 };
        let e = self.front_mut(from_writes).take(b, pos);
        let open_row = Some(e.row);
        let row_change = self.banks[b].open_row != open_row;
        self.issue_to_bank(b, e, now);
        // The issued queue lost an entry; on a row change the other
        // queue's row-hit nominee for this bank moves too.
        self.front_mut(from_writes).renominate(b, open_row);
        if row_change {
            self.front_mut(!from_writes).renominate(b, open_row);
        }
        debug_assert!(self.nominees_fresh(), "stale nominees after issue");
        true
    }

    /// The back end's choice from one front-end queue, as `(bank,
    /// position in the bank's list, row-hit bypass)`, or `None` when no
    /// bank with work there can start a command at `now`.
    ///
    /// Every ready bank with work nominates one entry from its cache: its
    /// oldest entry once that has waited past the age cap (starvation
    /// guard); else its row-hit winner while the bank's bypass streak is
    /// under the bound and that winner is not already the priority winner
    /// (the fairness half of the paper's fair FR-FCFS); else its priority
    /// winner. The smallest key wins, aged nominees first with the lowest
    /// bank winning ties among them.
    fn pick(&self, now: Cycle, from_writes: bool) -> Option<(usize, usize, bool)> {
        let q = self.front(from_writes);
        let mut win: Option<(usize, usize, bool, (VirtualDeadline, u64))> = None;
        for b in set_bits(q.occupied) {
            let (bq, bank) = (&q.banks[b], &self.banks[b]);
            if bank.rdy > now {
                continue;
            }
            if now.saturating_sub(bq.entries[0].enq_at) > self.age_cap {
                // Aged entries outrank everything; scanning in bank order,
                // the first one found wins.
                return Some((b, 0, false));
            }
            let (pos, bypass) = match bq.hit {
                Some(h) if h != bq.prio && bank.hit_streak < self.max_hit_streak => (h, true),
                _ => (bq.prio, false),
            };
            let key = bq.entries[pos].key;
            if win.is_none_or(|(.., k)| key < k) {
                win = Some((b, pos, bypass, key));
            }
        }
        win.map(|(b, pos, bypass, _)| (b, pos, bypass))
    }

    fn front(&self, writes: bool) -> &FrontQueue {
        if writes {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    fn front_mut(&mut self, writes: bool) -> &mut FrontQueue {
        if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        }
    }

    /// True when every bank's cached nominees and the queue lengths match
    /// a fresh scan and each bank's list is in acceptance order (the
    /// [`FrontQueue`] invariants).
    fn nominees_fresh(&self) -> bool {
        [&self.read_q, &self.write_q].into_iter().all(|q| {
            let total: usize = q.banks.iter().map(|bq| bq.entries.len()).sum();
            let occupied =
                q.banks.iter().rev().fold(0u64, |m, bq| m << 1 | u64::from(!bq.entries.is_empty()));
            total == q.len
                && q.len <= q.cap
                && occupied == q.occupied
                && q.banks.iter().zip(&self.banks).all(|(bq, bank)| {
                    let ordered = bq.entries.windows(2).all(|w| w[0].seq() < w[1].seq());
                    let fresh =
                        bq.entries.is_empty() || bq.scan(bank.open_row) == (bq.prio, bq.hit);
                    ordered && fresh && (!bq.entries.is_empty() || bq.hit.is_none())
                })
        })
    }

    /// Starts the bank-side access (precharge/activate/CAS pipeline). The
    /// data burst is handed to the bus scheduler once the column access
    /// completes.
    fn issue_to_bank(&mut self, b: usize, e: QueuedReq, now: Cycle) {
        let row = e.row;
        let bank = &mut self.banks[b];
        let (t_rcd, t_cl, t_rp, t_burst) = (
            self.cfg.eff(self.cfg.t_rcd),
            self.cfg.eff(self.cfg.t_cl),
            self.cfg.eff(self.cfg.t_rp),
            self.cfg.eff(self.cfg.t_burst),
        );

        let row_hit = bank.open_row == Some(row);
        let had_open_row = bank.open_row.is_some();
        let col_cmd = match bank.open_row {
            Some(r) if r == row => now.max(bank.rdy),
            Some(_) => now.max(bank.rdy) + t_rp + t_rcd,
            None => now.max(bank.rdy) + t_rcd,
        };
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }

        bank.open_row = Some(row);
        // Next column command may issue one burst time after this CAS.
        bank.rdy = col_cmd + t_burst;

        let cost = match (row_hit, had_open_row) {
            (true, _) => 1,
            (false, false) => 2,
            (false, true) => 3,
        };
        self.awaiting_bus.push(PendingBurst { e, ready_at: col_cmd + t_cl, cost });
        self.bus_idle_until = 0;
    }

    /// The per-burst bus scheduler: each time the data bus approaches
    /// free, pick among *ready* bursts by priority — this is where the
    /// PABST arbiter actually reorders service, so a prioritized class's
    /// data jumps every other bank's completed access.
    ///
    /// A scan that finds no burst ready records the earliest `ready_at`
    /// in the buffer, and the scheduler rests until then.
    fn bus_schedule(&mut self, now: Cycle) {
        let (t_burst, t_turn) =
            (self.cfg.eff(self.cfg.t_burst), self.cfg.eff(self.cfg.t_turnaround));
        // Book at most one burst ahead.
        if self.bus_free_at > now + t_burst {
            return;
        }
        let Some(i) = self.bus_pick(now) else {
            self.bus_idle_until =
                self.awaiting_bus.iter().map(|p| p.ready_at).min().unwrap_or(Cycle::MAX);
            return;
        };
        let p = self.awaiting_bus.swap_remove(i);
        let bus_earliest = if p.e.req.is_write != self.last_dir_write {
            self.bus_free_at + t_turn
        } else {
            self.bus_free_at
        };
        let data_start = bus_earliest.max(p.ready_at).max(now);
        let data_done = data_start + t_burst;
        self.bus_free_at = data_done;
        self.last_dir_write = p.e.req.is_write;
        self.stats.bus_busy += t_burst;
        if !p.e.req.is_write {
            self.arbiter.on_picked(p.e.req.class, p.e.deadline, p.e.seq(), p.e.bank, p.cost);
        }
        self.inflight.push((p.e, data_done));
        self.next_done = self.next_done.min(data_done);
    }

    /// The burst the bus scheduler books at `now` once the booking window
    /// is open, as an index into `awaiting_bus`: the highest-priority one
    /// whose data is ready, in the drain mode's direction first.
    fn bus_pick(&self, now: Cycle) -> Option<usize> {
        let prefer_write = self.draining_writes;
        self.awaiting_bus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ready_at <= self.bus_free_at.max(now))
            .min_by_key(|(_, p)| (p.e.req.is_write != prefer_write, p.e.key))
            .map(|(i, _)| i)
    }

    /// Surfaces the bursts whose data finished by `now` and records the
    /// earliest `done_at` left in flight.
    fn collect_completions_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        let mut i = 0;
        self.next_done = Cycle::MAX;
        while i < self.inflight.len() {
            let at = self.inflight[i].1;
            if at > now {
                self.next_done = self.next_done.min(at);
                i += 1;
            } else {
                let (e, _) = self.inflight.swap_remove(i);
                self.stats.bytes[e.req.class.index()] += LINE_BYTES;
                if e.req.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                    self.stats.read_lat_sum[e.req.class.index()] += now.saturating_sub(e.enq_at);
                    self.stats.read_lat_n[e.req.class.index()] += 1;
                }
                done.push(Completion {
                    token: e.req.token,
                    class: e.req.class,
                    is_write: e.req.is_write,
                    line: e.req.line,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(weights: &[u32]) -> ShareTable {
        ShareTable::from_weights(weights).unwrap()
    }

    fn mc(mode: ArbiterMode, weights: &[u32]) -> MemController {
        MemController::new(DramConfig::default(), mode, &shares(weights), 128)
    }

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    /// Drives the controller with an always-full offered load from one
    /// class, returning bytes completed over `cycles`.
    fn saturate_reads(mc: &mut MemController, cycles: u64) -> u64 {
        let mut line = 0u64;
        let mut done = Vec::new();
        for now in 0..cycles {
            while mc.can_accept() {
                let ok = mc.push(MemReq {
                    line: LineAddr::new(line),
                    class: q(0),
                    is_write: false,
                    token: line,
                });
                if ok.is_err() {
                    break;
                }
                line += 1;
            }
            mc.step_into(now, &mut done);
        }
        done.len() as u64 * LINE_BYTES
    }

    #[test]
    fn sequential_reads_approach_peak_bandwidth() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let cycles = 40_000;
        let bytes = saturate_reads(&mut m, cycles);
        let peak = m.config().peak_bytes_per_cycle() * cycles as f64;
        let eff = bytes as f64 / peak;
        assert!(eff > 0.85, "efficiency {eff} too low for streaming reads");
        assert!(m.stats().row_hit_rate() > 0.9, "stream should be mostly row hits");
    }

    #[test]
    fn bank_conflicts_are_much_slower_than_sequential() {
        let mut seq = mc(ArbiterMode::Fcfs, &[1]);
        let seq_bytes = saturate_reads(&mut seq, 20_000);

        // Every request to bank 0 but a different row: per-bank row cycling
        // serializes with no bank-level parallelism.
        let cfg = DramConfig::default();
        let stride_lines = cfg.lines_per_row * cfg.banks as u64; // same bank, next row
        let mut cnf = mc(ArbiterMode::Fcfs, &[1]);
        let mut i = 0u64;
        let mut done = Vec::new();
        for now in 0..20_000u64 {
            while cnf.can_accept() {
                if cnf
                    .push(MemReq {
                        line: LineAddr::new(i * stride_lines),
                        class: q(0),
                        is_write: false,
                        token: i,
                    })
                    .is_err()
                {
                    break;
                }
                i += 1;
            }
            cnf.step_into(now, &mut done);
        }
        let bytes = done.len() as u64 * LINE_BYTES;
        assert!(
            (bytes as f64) < 0.4 * seq_bytes as f64,
            "bank conflicts ({bytes}) must be far below sequential ({seq_bytes})"
        );
    }

    #[test]
    fn completions_conserve_requests() {
        let mut m = mc(ArbiterMode::Edf, &[1, 1]);
        let mut pushed = 0u64;
        let mut done = Vec::new();
        for now in 0..5_000u64 {
            if now < 1_000 && m.can_accept() {
                m.push(MemReq {
                    line: LineAddr::new(now * 17),
                    class: q((now % 2) as u8),
                    is_write: now % 3 == 0,
                    token: now,
                })
                .unwrap();
                pushed += 1;
            }
            m.step_into(now, &mut done);
        }
        // Drain fully.
        let mut now = 5_000u64;
        while m.pending() > 0 {
            m.step_into(now, &mut done);
            now += 1;
            assert!(now < 1_000_000, "controller failed to drain");
        }
        assert_eq!(pushed, done.len() as u64);
    }

    /// Closed-loop driver: each class keeps a fixed number of requests
    /// outstanding (as finite MSHRs would), reissuing on completion.
    /// Returns per-class completed read counts.
    fn closed_loop(m: &mut MemController, tokens_per_class: usize, cycles: u64) -> [u64; 2] {
        let mut x = 0xdeadbeefu64;
        let mut done = Vec::new();
        let mut served = [0u64; 2];
        let mut to_issue = [tokens_per_class; 2];
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                    let req = MemReq {
                        line: LineAddr::new((x >> 16) + (c as u64) * (1 << 40)),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    to_issue[c] -= 1;
                }
            }
            m.step_into(now, &mut done);
            for d in done.drain(..) {
                served[d.class.index()] += 1;
                to_issue[d.class.index()] += 1;
            }
        }
        served
    }

    /// Closed-loop driver contending on a single bank, so the front-end
    /// arbiter has a real choice to make.
    fn closed_loop_one_bank(
        m: &mut MemController,
        tokens_per_class: usize,
        cycles: u64,
    ) -> [u64; 2] {
        let cfg = DramConfig::default();
        let row_stride = cfg.lines_per_row * cfg.banks as u64; // bank 0, next row
        let mut done = Vec::new();
        let mut served = [0u64; 2];
        let mut to_issue = [tokens_per_class; 2];
        let mut next_row = [0u64, 1 << 20];
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    let req = MemReq {
                        line: LineAddr::new(next_row[c] * row_stride),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    next_row[c] += 1;
                    to_issue[c] -= 1;
                }
            }
            m.step_into(now, &mut done);
            for d in done.drain(..) {
                served[d.class.index()] += 1;
                to_issue[d.class.index()] += 1;
            }
        }
        served
    }

    #[test]
    fn edf_shares_service_between_backlogged_closed_loop_classes() {
        // Two classes, 3:1, each keeping 12 requests outstanding — few
        // enough that everything fits in the controller's queues (the
        // paper's condition for target regulation to work) — all contending
        // on one bank. Completed reads track the shares.
        let mut m = mc(ArbiterMode::Edf, &[3, 1]);
        let served = closed_loop_one_bank(&mut m, 12, 200_000);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.6, "EDF service ratio {ratio}, served {served:?}");
    }

    #[test]
    fn edf_lowers_latency_of_sparse_high_share_class() {
        // A latency-bound high-share class (one outstanding request at a
        // time) co-located with a flooding streamer: the priority arbiter's
        // job is to cut the sparse class's queueing delay (Fig. 1d).
        let run = |mode: ArbiterMode| -> f64 {
            let mut m = mc(mode, &[3, 1]);
            let mut x = 1u64;
            let mut stream_line = 0u64;
            let mut issued_at: Option<Cycle> = None;
            let mut lat_sum = 0u64;
            let mut lat_n = 0u64;
            let mut done = Vec::new();
            for now in 0..60_000u64 {
                // Sparse class 0: issue one random read when idle.
                if issued_at.is_none() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if m.push(MemReq {
                        line: LineAddr::new((x >> 16) | (1 << 41)),
                        class: q(0),
                        is_write: false,
                        token: 777,
                    })
                    .is_ok()
                    {
                        issued_at = Some(now);
                    }
                }
                // Streamer class 1 floods, spanning all banks (as many
                // concurrent streaming cores would).
                while m.can_accept() {
                    if m.push(MemReq {
                        line: LineAddr::new(stream_line * DramConfig::default().lines_per_row),
                        class: q(1),
                        is_write: false,
                        token: 0,
                    })
                    .is_err()
                    {
                        break;
                    }
                    stream_line += 1;
                }
                m.step_into(now, &mut done);
                for d in done.drain(..) {
                    if d.token == 777 {
                        lat_sum += now - issued_at.expect("chaser was outstanding");
                        lat_n += 1;
                        issued_at = None;
                    }
                }
            }
            lat_sum as f64 / lat_n as f64
        };
        let fcfs = run(ArbiterMode::Fcfs);
        let edf = run(ArbiterMode::Edf);
        assert!(
            edf < 0.75 * fcfs,
            "EDF must cut sparse-class latency: edf={edf:.0} fcfs={fcfs:.0}"
        );
    }

    #[test]
    fn edf_cannot_partition_when_oversubscribed() {
        // The same classes with far more outstanding requests than the
        // controller can hold: admission (FCFS through the full ingress)
        // pins throughput near 1:1 regardless of the arbiter — the Fig. 1b
        // failure mode of target-only regulation.
        let mut m = mc(ArbiterMode::Edf, &[3, 1]);
        let served = closed_loop(&mut m, 256, 120_000);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(ratio < 2.0, "oversubscribed EDF should degrade toward 1:1, got {ratio}");
    }

    #[test]
    fn fcfs_ignores_shares() {
        let mut m = mc(ArbiterMode::Fcfs, &[3, 1]);
        let mut x = 7u64;
        let mut done = Vec::new();
        let mut served = [0u64; 2];
        for now in 0..60_000u64 {
            let first = (now % 2) as u8;
            for c in [first, 1 - first] {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let _ = m.push(MemReq {
                    line: LineAddr::new(x >> 16),
                    class: q(c),
                    is_write: false,
                    token: 0,
                });
            }
            m.step_into(now, &mut done);
            for c in done.drain(..) {
                served[c.class.index()] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 1.0).abs() < 0.2, "FCFS must serve ~1:1, got {ratio}");
    }

    #[test]
    fn saturation_signal_tracks_load() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // Idle epoch: no saturation.
        let mut done = Vec::new();
        for now in 0..2_000 {
            m.step_into(now, &mut done);
        }
        assert!(done.is_empty());
        assert!(!m.take_epoch_sat());
        // Flooded epoch: saturated.
        let _ = saturate_reads(&mut m, 5_000);
        assert!(m.take_epoch_sat());
    }

    #[test]
    fn write_drain_services_writes_in_batches() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // Fill write queue past the high watermark.
        let mut now = 0u64;
        let mut queued = 0;
        let mut done = Vec::new();
        while queued < 30 {
            if m.push(MemReq {
                line: LineAddr::new(queued * 33),
                class: q(0),
                is_write: true,
                token: queued,
            })
            .is_ok()
            {
                queued += 1;
            }
            m.step_into(now, &mut done);
            now += 1;
        }
        for _ in 0..20_000 {
            m.step_into(now, &mut done);
            now += 1;
        }
        assert_eq!(
            done.iter().filter(|c| c.is_write).count(),
            30,
            "all writes must eventually drain"
        );
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // A few writes (below high watermark) + a read, offered together
        // (they fit the ingress port exactly): the read completes before
        // any write.
        for i in 0..3 {
            m.push(MemReq { line: LineAddr::new(1000 + i), class: q(0), is_write: true, token: i })
                .unwrap();
        }
        m.push(MemReq { line: LineAddr::new(1), class: q(0), is_write: false, token: 99 }).unwrap();
        let mut done = Vec::new();
        let mut now = 0;
        while done.is_empty() {
            m.step_into(now, &mut done);
            now += 1;
            assert!(now < 10_000);
        }
        let first = done[0];
        assert!(!first.is_write, "read must complete first, got {first:?}");
    }

    #[test]
    fn ingress_backpressure_reported() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let mut rejected = false;
        // Never stepping the controller: ingress must eventually refuse.
        for i in 0..1_000 {
            if m.push(MemReq { line: LineAddr::new(i), class: q(0), is_write: false, token: i })
                .is_err()
            {
                rejected = true;
                break;
            }
        }
        assert!(rejected);
        assert!(m.ingress_rejects() > 0);
        assert!(!m.can_accept());
    }

    #[test]
    fn down_clocked_dram_is_proportionally_slower() {
        let mut fast = mc(ArbiterMode::Fcfs, &[1]);
        let fast_bytes = saturate_reads(&mut fast, 30_000);
        let slow_cfg = DramConfig::default().down_clocked(4);
        let mut slow = MemController::new(slow_cfg, ArbiterMode::Fcfs, &shares(&[1]), 128);
        let slow_bytes = {
            let mut line = 0u64;
            let mut done = Vec::new();
            for now in 0..30_000u64 {
                while slow.can_accept() {
                    if slow
                        .push(MemReq {
                            line: LineAddr::new(line),
                            class: q(0),
                            is_write: false,
                            token: line,
                        })
                        .is_err()
                    {
                        break;
                    }
                    line += 1;
                }
                slow.step_into(now, &mut done);
            }
            done.len() as u64 * LINE_BYTES
        };
        let ratio = fast_bytes as f64 / slow_bytes as f64;
        assert!((ratio - 4.0).abs() < 0.5, "expected ~4x, got {ratio}");
    }

    #[test]
    fn per_class_byte_accounting_sums_to_total() {
        let mut m = mc(ArbiterMode::Edf, &[2, 1]);
        let mut done = Vec::new();
        for now in 0..10_000u64 {
            for c in 0..2u8 {
                let _ = m.push(MemReq {
                    line: LineAddr::new(now * 7 + u64::from(c) * (1 << 30)),
                    class: q(c),
                    is_write: false,
                    token: 0,
                });
            }
            m.step_into(now, &mut done);
        }
        let s = m.stats();
        assert_eq!(s.bytes.iter().sum::<u64>(), done.len() as u64 * LINE_BYTES);
    }

    #[test]
    fn epoch_bytes_delta_resets() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let _ = saturate_reads(&mut m, 3_000);
        let first = m.stats_mut().take_epoch_bytes();
        assert!(first[0] > 0);
        let second = m.stats_mut().take_epoch_bytes();
        assert_eq!(second[0], 0, "delta must reset between epochs");
    }

    #[test]
    fn next_event_is_none_only_when_empty() {
        let mut m = mc(ArbiterMode::Edf, &[1]);
        assert_eq!(m.next_event(0), None, "empty controller has no events");
        m.push(MemReq { line: LineAddr::new(5), class: q(0), is_write: false, token: 1 }).unwrap();
        assert_eq!(m.next_event(0), Some(0), "a routable ingress head acts immediately");
    }

    #[test]
    fn next_event_equivalence_with_naive_stepping() {
        // Twin controllers on the same bursty request schedule: one steps
        // every cycle, the other only when its own horizon says the cycle
        // could matter, accruing the skipped occupancy samples in batch.
        // Every observable — completions (in order), stats, SAT bit,
        // snapshot — must be identical at the end.
        let mut naive = mc(ArbiterMode::Edf, &[3, 1]);
        let mut skip = mc(ArbiterMode::Edf, &[3, 1]);
        let mut out_n = Vec::new();
        let mut out_s = Vec::new();
        let (mut served_n, mut served_s) = (0u64, 0u64);
        let mut skipped = 0u64;
        for now in 0..40_000u64 {
            // A burst of mixed requests every 512 cycles leaves long idle
            // and long drain-tail windows between them.
            if now % 512 == 0 {
                for i in 0..6u64 {
                    let req = MemReq {
                        line: LineAddr::new((now + 1) * 131 + i * 3),
                        class: q((i % 2) as u8),
                        is_write: i % 5 == 0,
                        token: now + i,
                    };
                    assert_eq!(naive.push(req).is_ok(), skip.push(req).is_ok());
                }
            }
            out_n.clear();
            naive.step_into(now, &mut out_n);
            served_n += out_n.len() as u64;
            match skip.next_event(now) {
                Some(at) if at <= now => {
                    out_s.clear();
                    skip.step_into(now, &mut out_s);
                    served_s += out_s.len() as u64;
                    assert_eq!(out_s, out_n, "completions diverge at cycle {now}");
                }
                _ => {
                    // The horizon called this cycle dead: naive stepping
                    // must agree it produced nothing.
                    skip.accrue_skip(1);
                    skipped += 1;
                    assert!(out_n.is_empty(), "horizon missed an event at cycle {now}");
                }
            }
        }
        assert!(served_n > 0, "workload must complete something");
        assert!(skipped > 10_000, "bursty load must leave skippable gaps, got {skipped}");
        assert_eq!(served_n, served_s);
        assert_eq!(naive.take_epoch_sat(), skip.take_epoch_sat());
        assert_eq!(naive.snapshot(), skip.snapshot());
        assert_eq!(naive.stats().bytes, skip.stats().bytes);
        assert_eq!(naive.stats().reads, skip.stats().reads);
        assert_eq!(naive.stats().writes, skip.stats().writes);
    }

    #[test]
    fn next_event_waits_for_the_earliest_busy_bank_not_an_idle_ready_one() {
        // Two conflicting reads each to banks 0 and 2, the pairs five
        // cycles apart: each bank starts its first access and holds the
        // second until its timing releases. Bank 1 holds no work and has
        // been ready since cycle 0; it must not pull the horizon in.
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let cfg = DramConfig::default();
        let line = |bank: u64, row: u64| {
            LineAddr::new((row * cfg.banks as u64 + bank) * cfg.lines_per_row)
        };
        let mut done = Vec::new();
        for (now, bank) in [(0u64, 0u64), (5, 2)] {
            for row in 0..2 {
                let req =
                    MemReq { line: line(bank, row), class: q(0), is_write: false, token: row };
                m.push(req).unwrap();
            }
            m.step_into(now, &mut done);
        }
        let now = 6;
        assert_eq!(m.read_q.occupied, 0b101, "one request left on each of banks 0 and 2");
        assert!(m.banks[1].rdy <= now, "bank 1 is idle and ready");
        let (rdy0, rdy2) = (m.banks[0].rdy, m.banks[2].rdy);
        assert!(now < rdy0 && rdy0 < rdy2, "both busy banks are timing-blocked");
        assert_eq!(m.next_event(now), Some(rdy0));
    }

    /// The back end's pick as the controller made it before the per-bank
    /// index: one pass over the whole queue in arrival order, gathering
    /// each ready bank's aged, priority and row-hit winners. Returns the
    /// winner's `(seq, bypass)`.
    fn flat_scan_pick(m: &MemController, now: Cycle, from_writes: bool) -> Option<(u64, bool)> {
        let q = m.front(from_writes);
        let mut flat: Vec<QueuedReq> =
            q.banks.iter().flat_map(|bq| bq.entries.iter().copied()).collect();
        flat.sort_by_key(QueuedReq::seq);
        type Best = Option<(u64, (VirtualDeadline, u64))>;
        let mut aged: Vec<Option<(u64, Cycle)>> = vec![None; m.banks.len()];
        let (mut prio, mut fr): (Vec<Best>, Vec<Best>) =
            (vec![None; m.banks.len()], vec![None; m.banks.len()]);
        for e in &flat {
            let b = e.bank as usize;
            if m.banks[b].rdy > now {
                continue;
            }
            if now - e.enq_at > m.age_cap && aged[b].is_none_or(|(_, t)| e.enq_at < t) {
                aged[b] = Some((e.seq(), e.enq_at));
            }
            if prio[b].is_none_or(|(_, k)| e.key < k) {
                prio[b] = Some((e.seq(), e.key));
            }
            if m.banks[b].open_row == Some(e.row) && fr[b].is_none_or(|(_, k)| e.key < k) {
                fr[b] = Some((e.seq(), e.key));
            }
        }
        let mut win: Option<(u64, bool, (VirtualDeadline, u64))> = None;
        for b in 0..m.banks.len() {
            let n = if let Some((s, _)) = aged[b] {
                (s, false, (VirtualDeadline(0), 0))
            } else if let Some((ps, pk)) = prio[b] {
                match fr[b] {
                    Some((fs, fk)) if fs != ps && m.banks[b].hit_streak < m.max_hit_streak => {
                        (fs, true, fk)
                    }
                    _ => (ps, false, pk),
                }
            } else {
                continue;
            };
            if win.is_none_or(|(.., k)| n.2 < k) {
                win = Some(n);
            }
        }
        win.map(|(s, bypass, _)| (s, bypass))
    }

    #[test]
    fn cached_nominees_match_a_fresh_scan_under_seeded_traffic() {
        // Mixed reads and writes over a few banks and rows (row hits,
        // conflicts, write drains), with a one-bank hotspot that ages.
        // Debug builds also check the index after every single accept
        // and issue inside `step_into`.
        let cfg = DramConfig::default();
        for mode in ArbiterMode::ALL {
            for seed in [1u64, 0x9e37_79b9, 0xdead_beef] {
                let mut m = mc(mode, &[3, 1]);
                let mut x = seed;
                let mut done = Vec::new();
                let mut picks = 0u64;
                let mut aged = 0u64;
                for now in 0..40_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let r = x >> 33;
                    // Reads over five banks, a write burst every 12,288
                    // cycles, and between bursts a trickle of writes to
                    // bank 0 that waits past the age cap.
                    let trickle = now.is_multiple_of(997);
                    let (bank, row) = match r % 4 {
                        _ if trickle => (0, 8 + now / 997),
                        0 => (0, r % 3),
                        _ => (r % 5, (r >> 8) % 4),
                    };
                    let _ = m.push(MemReq {
                        line: LineAddr::new((row * cfg.banks as u64 + bank) * cfg.lines_per_row),
                        class: q((r % 2) as u8),
                        is_write: trickle || now % 12_288 < 300,
                        token: now,
                    });
                    for from_writes in [false, true] {
                        let q = m.front(from_writes);
                        let got = m.pick(now, from_writes).map(|(b, pos, bypass)| {
                            let e = q.banks[b].entries[pos];
                            aged += u64::from(now - e.enq_at > m.age_cap);
                            (e.seq(), bypass)
                        });
                        let want = flat_scan_pick(&m, now, from_writes);
                        assert_eq!(got, want, "{mode:?} seed {seed:#x}: pick diverged at {now}");
                        picks += u64::from(got.is_some());
                    }
                    m.step_into(now, &mut done);
                    assert!(m.nominees_fresh(), "{mode:?} seed {seed:#x}: stale at cycle {now}");
                }
                assert!(picks > 1_000, "{mode:?}: traffic must exercise the pick, got {picks}");
                assert!(aged > 0, "{mode:?}: traffic must trip the age cap");
            }
        }
    }

    #[test]
    fn aged_requests_beat_row_hits() {
        // A stream of row hits to bank 0 must not starve a row-miss to the
        // same bank beyond the age cap.
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // The conflicting row-miss first (different row, same bank: same
        // col_group modulo banks).
        let other_row = DramConfig::default().lines_per_row * DramConfig::default().banks as u64; // bank 0, row 1
        m.push(MemReq {
            line: LineAddr::new(other_row),
            class: q(0),
            is_write: false,
            token: 4242,
        })
        .unwrap();
        let mut hit_line = 0u64;
        let mut done = Vec::new();
        let mut completed_victim_at = None;
        for now in 0..10_000u64 {
            // Keep bank 0 row 0 hits flowing.
            while m.can_accept() {
                if m.push(MemReq {
                    line: LineAddr::new(hit_line % DramConfig::default().lines_per_row),
                    class: q(0),
                    is_write: false,
                    token: 0,
                })
                .is_err()
                {
                    break;
                }
                hit_line += 1;
            }
            m.step_into(now, &mut done);
            if done.drain(..).any(|c| c.token == 4242) {
                completed_victim_at = Some(now);
                break;
            }
        }
        assert!(completed_victim_at.is_some(), "row-miss starved by continuous row hits");
    }
}

#[cfg(test)]
mod fqm_tests {
    use super::*;

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    /// Drives two equal-weight classes — class 0 all row hits on one bank,
    /// class 1 all row conflicts spread over the remaining banks (so the
    /// *bus* is the contended resource) — closed-loop; returns served
    /// counts.
    fn hit_vs_conflict(mode: ArbiterMode, cycles: u64) -> [u64; 2] {
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), mode, &shares, 128);
        let cfg = DramConfig::default();
        let mut done = Vec::new();
        let mut served = [0u64; 2];
        let mut to_issue = [12usize; 2];
        let mut hit_line = 0u64;
        let mut conflict_row = 0u64;
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    // Class 0: walk row 0 of bank 1 (hits). Class 1: a new
                    // row each time, rotating over banks 2.. (conflicts,
                    // but with plenty of bank parallelism).
                    let line = if c == 0 {
                        hit_line += 1;
                        cfg.lines_per_row + (hit_line % cfg.lines_per_row)
                    } else {
                        conflict_row += 1;
                        let bank = 2 + (conflict_row as usize % (cfg.banks - 2));
                        (conflict_row * cfg.banks as u64 + bank as u64) * cfg.lines_per_row
                    };
                    if m.push(MemReq {
                        line: LineAddr::new(line),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    })
                    .is_err()
                    {
                        break;
                    }
                    to_issue[c] -= 1;
                }
            }
            m.step_into(now, &mut done);
            for d in done.drain(..) {
                served[d.class.index()] += 1;
                to_issue[d.class.index()] += 1;
            }
        }
        served
    }

    #[test]
    fn fqm_penalizes_expensive_accesses_more_than_flat_edf() {
        // Under FQM the conflict-heavy class is charged 3 units per access
        // and therefore receives fewer services relative to the row-hit
        // class than under PABST's flat charge.
        let edf = hit_vs_conflict(ArbiterMode::Edf, 150_000);
        let fqm = hit_vs_conflict(ArbiterMode::Fqm, 150_000);
        let edf_ratio = edf[1] as f64 / edf[0] as f64;
        let fqm_ratio = fqm[1] as f64 / fqm[0] as f64;
        assert!(
            fqm_ratio < edf_ratio,
            "FQM must shift service away from the conflict class: \
             edf {edf:?} ({edf_ratio:.2}), fqm {fqm:?} ({fqm_ratio:.2})"
        );
    }

    #[test]
    fn fqm_still_partitions_backlogged_classes() {
        // With equal access costs (both classes random), FQM and EDF both
        // approximate the 3:1 weights.
        let shares = ShareTable::from_weights(&[3, 1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fqm, &shares, 128);
        let cfg = DramConfig::default();
        let row_stride = cfg.lines_per_row * cfg.banks as u64;
        let mut done = Vec::new();
        let mut served = [0u64; 2];
        let mut to_issue = [12usize; 2];
        let mut next_row = [0u64, 1 << 20];
        for now in 0..200_000u64 {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    let req = MemReq {
                        line: LineAddr::new(next_row[c] * row_stride),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    next_row[c] += 1;
                    to_issue[c] -= 1;
                }
            }
            m.step_into(now, &mut done);
            for d in done.drain(..) {
                served[d.class.index()] += 1;
                to_issue[d.class.index()] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.8, "FQM ratio {ratio}, served {served:?}");
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn read_latency_tracked_per_class() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
        m.push(MemReq { line: LineAddr::new(0), class: QosId::new(0), is_write: false, token: 1 })
            .unwrap();
        let mut now = 0;
        let mut done = Vec::new();
        while m.pending() > 0 {
            m.step_into(now, &mut done);
            now += 1;
            assert!(now < 10_000);
        }
        let lat = m.stats().mean_read_latency(QosId::new(0)).expect("one read done");
        // One unloaded access: activation + CAS + burst, give or take the
        // front-end hops.
        assert!((60.0..200.0).contains(&lat), "unloaded latency {lat}");
        assert_eq!(m.stats().mean_read_latency(QosId::new(1)), None);
    }

    #[test]
    fn loaded_latency_exceeds_unloaded() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let run = |offered_per_cycle: usize| -> f64 {
            let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
            let mut line = 0u64;
            let mut done = Vec::new();
            for now in 0..30_000u64 {
                for _ in 0..offered_per_cycle {
                    let _ = m.push(MemReq {
                        line: LineAddr::new(line * 97),
                        class: QosId::new(0),
                        is_write: false,
                        token: 0,
                    });
                    line += 1;
                }
                m.step_into(now, &mut done);
            }
            m.stats().mean_read_latency(QosId::new(0)).unwrap_or(0.0)
        };
        // A single outstanding request at a time (closed loop, light load).
        let light = {
            let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
            let mut outstanding = false;
            let mut line = 0u64;
            let mut done = Vec::new();
            for now in 0..30_000u64 {
                if !outstanding {
                    let _ = m.push(MemReq {
                        line: LineAddr::new(line * 97),
                        class: QosId::new(0),
                        is_write: false,
                        token: 0,
                    });
                    line += 1;
                    outstanding = true;
                }
                m.step_into(now, &mut done);
                if done.drain(..).next().is_some() {
                    outstanding = false;
                }
            }
            m.stats().mean_read_latency(QosId::new(0)).unwrap()
        };
        let heavy = run(4);
        assert!(heavy > 2.0 * light, "queueing must raise latency: {heavy} vs {light}");
    }
}
