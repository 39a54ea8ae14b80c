//! One tile: core + L1D + private L2 with MSHRs + the PABST pacer.
//!
//! The tile implements the core's [`pabst_cpu::MemPort`]: L1 and L2 are
//! probed inline (their latency is returned to the core), an L2 miss
//! allocates an MSHR and enqueues a network injection, and the *pacer*
//! gates injections into the SoC network — the paper's source-regulation
//! point (§III-B3).

use std::collections::VecDeque;

use pabst_cache::{LineAddr, MshrOutcome, MshrTable, SetAssocCache};
use pabst_core::pacer::Pacer;
use pabst_core::qos::QosId;
use pabst_cpu::{Access, LoadId, MemPort, OooCore, Workload};
use pabst_simkit::Cycle;

use crate::config::ChannelMap;

/// A waiter merged into an L2 MSHR entry: which dynamic load (or a store)
/// wants the line.
#[derive(Debug, Clone, Copy)]
pub struct L2Waiter {
    /// The core-side load identity; `None` for stores.
    pub load: Option<LoadId>,
    /// Whether the line must be filled dirty (write-allocate store).
    pub store: bool,
}

/// A request the tile wants to inject into the SoC network.
#[derive(Debug, Clone, Copy)]
pub struct InjectReq {
    /// Missed line.
    pub line: LineAddr,
    /// Whether any waiter is a store (fill dirty).
    pub store: bool,
}

/// The tile's L1/L2 front end, kept separate from the core so the borrow
/// of the core during `step` doesn't alias the port.
#[derive(Debug)]
pub struct TileMem {
    /// Tile's QoS class.
    pub class: QosId,
    l1: SetAssocCache,
    l2: SetAssocCache,
    pub(crate) mshrs: MshrTable<L2Waiter>,
    /// Primary misses awaiting injection into the network (pacer-gated).
    pub(crate) inject_q: VecDeque<InjectReq>,
    /// The source pacers: empty when source regulation is disabled, one
    /// entry for the paper's single global governor, or one per memory
    /// controller for the per-MC variant (SIII-C1), selected by the
    /// request's home controller.
    pub(crate) pacers: Vec<Pacer>,
    /// Number of memory controllers (for per-MC pacer selection).
    mcs: usize,
    /// Line→controller map (must match the interconnect's routing, or the
    /// per-MC pacers would meter the wrong controller's traffic).
    channel_map: ChannelMap,
    /// Period charged when each in-flight line issued, keyed by line: the
    /// settlement refund/extra-charge must use the issue-time amount, not
    /// whatever period an epoch boundary has since programmed. A flat
    /// table: at most one entry per in-flight primary miss (MSHR-bounded),
    /// so linear search beats a tree and never allocates at steady state.
    charged: Vec<(LineAddr, Cycle)>,
    l1_lat: u64,
    l2_lat: u64,
    /// Dirty L2 victims waiting to be written back into the L3.
    pub(crate) l2_wb_q: VecDeque<LineAddr>,
    /// Recycled waiter buffer for [`TileMem::on_fill`] (no per-fill
    /// allocation on the response hot path).
    fill_scratch: Vec<L2Waiter>,
    /// MSHR entries completed so far ([`MemPort::releases`]): the only
    /// event that can turn an MSHR-full refusal into an acceptance.
    releases: u64,
}

impl TileMem {
    /// Builds the tile memory front end.
    #[allow(clippy::too_many_arguments)] // flat constructor mirrors SystemBuilder's plumbing
    pub fn new(
        class: QosId,
        l1: SetAssocCache,
        l2: SetAssocCache,
        mshrs: usize,
        l1_lat: u64,
        l2_lat: u64,
        pacers: Vec<Pacer>,
        mcs: usize,
        channel_map: ChannelMap,
    ) -> Self {
        assert!(mcs > 0, "at least one memory controller");
        assert!(
            pacers.is_empty() || pacers.len() == 1 || pacers.len() == mcs,
            "pacer count must be 0 (off), 1 (global) or one per MC"
        );
        Self {
            class,
            l1,
            l2,
            mshrs: MshrTable::new(mshrs),
            inject_q: VecDeque::new(),
            pacers,
            mcs,
            channel_map,
            charged: Vec::new(),
            l1_lat,
            l2_lat,
            l2_wb_q: VecDeque::new(),
            fill_scratch: Vec::new(),
            releases: 0,
        }
    }

    /// Index of the pacer responsible for `line`: the only one, or in
    /// per-MC mode the home controller's. `None` without pacers.
    fn pacer_index(&self, line: LineAddr) -> Option<usize> {
        match self.pacers.len() {
            0 => None,
            1 => Some(0),
            _ => Some(self.channel_map.channel_of(line, self.mcs)),
        }
    }

    /// The pacer responsible for `line` (see [`TileMem::pacer_index`]).
    fn pacer_for(&mut self, line: LineAddr) -> Option<&mut Pacer> {
        self.pacer_index(line).and_then(|k| self.pacers.get_mut(k))
    }

    /// Handles a fill returning from the L3/memory: fills L2 (and L1),
    /// releases the MSHR, and returns the waiters plus any dirty L2 victim
    /// that must be written back to the L3. The returned slice borrows an
    /// internal buffer that the next `on_fill` call reuses.
    ///
    /// This is the only call that moves [`MemPort::releases`], which
    /// [`Tile::core_next_event`] treats as a wake edge: the caller must
    /// make sure the tile is stepped (not parked) after it.
    ///
    /// # Panics
    ///
    /// Panics when `line` holds no MSHR entry. Every fill completes a
    /// granted miss, so a line enters the caches only through a grant,
    /// which is what [`MemPort::is_full`] promises the core.
    pub fn on_fill(&mut self, line: LineAddr) -> &[L2Waiter] {
        let mut waiters = std::mem::take(&mut self.fill_scratch);
        waiters.clear();
        self.mshrs.complete_into(line, &mut waiters);
        assert!(!waiters.is_empty(), "fill of line {:#x} completes no MSHR entry", line.get());
        self.releases += 1;
        let dirty = waiters.iter().any(|w| w.store);
        if let Some(ev) = self.l2.fill(line, self.class, dirty) {
            if ev.dirty {
                self.l2_wb_q.push_back(ev.line);
            }
        }
        // Fill L1 as well; L1 victims are clean or folded into L2.
        if let Some(ev) = self.l1.fill(line, self.class, dirty) {
            if ev.dirty {
                // Write-back L1 victim into L2 (mark dirty if present).
                self.l2.probe_write(ev.line);
            }
        }
        self.fill_scratch = waiters;
        &self.fill_scratch
    }

    /// All pacers (empty when source regulation is off).
    pub fn pacers_mut(&mut self) -> &mut [Pacer] {
        &mut self.pacers
    }

    /// All pacers, read-only (inspection and invariant checks).
    pub fn pacers(&self) -> &[Pacer] {
        &self.pacers
    }

    /// Settles response-side accounting for `line`: refund when the shared
    /// cache serviced it, extra charge when its fill caused a writeback.
    /// Both use the period recorded when the request issued — an epoch
    /// boundary may have reprogrammed the pacer while it was in flight.
    pub fn settle_response(&mut self, line: LineAddr, l3_hit: bool, wb_flag: bool, now: Cycle) {
        let charged = match self.charged.iter().position(|(l, _)| *l == line) {
            Some(i) => self.charged.swap_remove(i).1,
            None => 0,
        };
        if let Some(p) = self.pacer_for(line) {
            if l3_hit {
                p.on_shared_hit(charged, now);
            }
            if wb_flag {
                p.on_writeback(charged);
            }
        }
    }

    /// True when at least one miss is queued for injection; lets the SoC
    /// loop skip idle tiles without consulting the pacer.
    pub fn wants_inject(&self) -> bool {
        !self.inject_q.is_empty()
    }

    /// Attempts to release the oldest pending injection, gated by the
    /// responsible pacer. Returns the request when the network may take it
    /// this cycle.
    pub fn try_inject(&mut self, now: Cycle) -> Option<InjectReq> {
        let head = *self.inject_q.front()?;
        let charged = match self.pacer_for(head.line) {
            Some(p) => {
                if !p.try_issue(now) {
                    return None;
                }
                Some(p.period())
            }
            None => None,
        };
        if let Some(c) = charged {
            // Insert-or-overwrite, matching map semantics (at most one
            // entry per line).
            match self.charged.iter_mut().find(|(l, _)| *l == head.line) {
                Some((_, v)) => *v = c,
                None => self.charged.push((head.line, c)),
            }
        }
        self.inject_q.pop_front();
        Some(head)
    }

    /// The earliest cycle a [`TileMem::try_inject`] call can change state:
    /// `None` when nothing is queued, `Some(now)` when the head request
    /// could issue this cycle (no pacer, unthrottled, or period already
    /// elapsed), otherwise the head pacer's `C_next`. While the head is
    /// NACKed, the only per-cycle mutation naive stepping performs is the
    /// pacer's throttle counter, which the skip path accrues through
    /// [`TileMem::accrue_throttle_skip`].
    pub fn next_inject_at(&self, now: Cycle) -> Option<Cycle> {
        let head = self.inject_q.front()?;
        match self.pacer_index(head.line).and_then(|k| self.pacers.get(k)) {
            None => Some(now),
            Some(p) => Some(p.next_issue_at().max(now)),
        }
    }

    /// Batch-accrues the throttle NACKs that `cycles` naive
    /// [`TileMem::try_inject`] calls would have recorded on the head
    /// request's pacer. Only valid over a window in which every such call
    /// would have NACKed — i.e. the window ends before
    /// [`TileMem::next_inject_at`]. A tile with nothing queued is a no-op.
    pub fn accrue_throttle_skip(&mut self, cycles: u64) {
        let Some(head) = self.inject_q.front().copied() else { return };
        if let Some(p) = self.pacer_for(head.line) {
            p.note_throttled(cycles);
        }
    }

    /// Pending L2 writebacks to the L3.
    pub fn pop_l2_writeback(&mut self) -> Option<LineAddr> {
        self.l2_wb_q.pop_front()
    }

    /// L2 demand hit/miss counts (for reports).
    pub fn l2_stats(&self) -> (u64, u64) {
        (self.l2.hits(), self.l2.misses())
    }
}

impl MemPort for TileMem {
    fn access(&mut self, _now: Cycle, line: LineAddr, store: bool, id: LoadId) -> Access {
        // L1 probe.
        let l1_hit = if store { self.l1.probe_write(line) } else { self.l1.probe(line) };
        if l1_hit {
            // Store dirtiness must eventually reach L2 on L1 eviction; the
            // fill path handles it. For hits, also mark L2 (inclusive-ish).
            if store {
                self.l2.probe_write(line);
            }
            return Access::Hit(self.l1_lat);
        }
        // L2 probe.
        let l2_hit = if store { self.l2.probe_write(line) } else { self.l2.probe(line) };
        if l2_hit {
            if let Some(ev) = self.l1.fill(line, self.class, store) {
                if ev.dirty {
                    self.l2.probe_write(ev.line);
                }
            }
            return Access::Hit(self.l2_lat);
        }
        // L2 miss: allocate an MSHR.
        let waiter = L2Waiter { load: (!store).then_some(id), store };
        match self.mshrs.alloc(line, waiter) {
            MshrOutcome::Primary => {
                self.inject_q.push_back(InjectReq { line, store });
                Access::Miss
            }
            MshrOutcome::Secondary => Access::Miss,
            MshrOutcome::Full => Access::Stall,
        }
    }

    fn releases(&self) -> u64 {
        self.releases
    }

    /// Only a fill frees an MSHR entry, and it moves the release count. A
    /// refused line missed L1, L2 and every entry, and it can enter any
    /// of them only through a grant of that line (see
    /// [`TileMem::on_fill`]).
    fn is_full(&self) -> bool {
        self.mshrs.is_full()
    }
}

/// A full tile: the core plus its memory front end and workload.
pub struct Tile {
    /// The out-of-order core.
    pub core: OooCore,
    /// L1/L2/MSHR/pacer front end.
    pub mem: TileMem,
    /// The workload generator driving the core.
    pub workload: Box<dyn Workload>,
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile")
            .field("class", &self.mem.class)
            .field("workload", &self.workload.name())
            .finish_non_exhaustive()
    }
}

impl Tile {
    /// The core's horizon as seen through this tile's port: refused
    /// accesses stay inert until the port's release count moves. Only
    /// [`TileMem::on_fill`] moves it, and the system runs that only on
    /// the response-delivery wake edge, so a tile parked on this answer
    /// is woken in time to see every release.
    pub fn core_next_event(&self, now: Cycle) -> Option<Cycle> {
        self.core.next_event_seeing(now, self.mem.releases())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cache::CacheConfig;
    use pabst_cpu::Access;

    fn mem(pacers: Vec<Pacer>) -> TileMem {
        TileMem::new(
            QosId::new(0),
            SetAssocCache::new(CacheConfig { sets: 8, ways: 2 }),
            SetAssocCache::new(CacheConfig { sets: 32, ways: 4 }),
            4,
            4,
            14,
            pacers,
            4,
            ChannelMap::XorFold,
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn miss_allocates_mshr_and_queues_injection() {
        let mut m = mem(Vec::new());
        let r = m.access(0, line(1), false, LoadId(1));
        assert_eq!(r, Access::Miss);
        assert_eq!(m.mshrs.len(), 1);
        assert!(m.try_inject(0).is_some(), "primary miss must inject");
        assert!(m.try_inject(0).is_none(), "only one injection per miss");
    }

    #[test]
    fn secondary_miss_does_not_reinject() {
        let mut m = mem(Vec::new());
        assert_eq!(m.access(0, line(1), false, LoadId(1)), Access::Miss);
        assert_eq!(m.access(0, line(1), false, LoadId(2)), Access::Miss);
        assert_eq!(m.mshrs.len(), 1, "secondary merges");
        let _ = m.try_inject(0);
        assert!(m.try_inject(0).is_none());
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut m = mem(Vec::new());
        for i in 0..4 {
            assert!(!m.is_full());
            assert_eq!(m.access(0, line(i * 64), false, LoadId(i)), Access::Miss);
        }
        assert!(m.is_full());
        assert_eq!(m.access(0, line(999), false, LoadId(9)), Access::Stall);
        let _ = m.on_fill(line(64));
        assert!(!m.is_full(), "a fill frees an entry");
        assert_eq!(m.releases(), 1);
    }

    #[test]
    #[should_panic(expected = "completes no MSHR entry")]
    fn a_fill_without_an_mshr_entry_panics() {
        // The line would enter L2 and L1 without a grant, which breaks
        // what `is_full` promises.
        let mut m = mem(Vec::new());
        let _ = m.on_fill(line(5));
    }

    #[test]
    fn fill_wakes_all_waiters_and_hits_after() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(5), false, LoadId(1));
        let _ = m.access(0, line(5), false, LoadId(2));
        let waiters = m.on_fill(line(5));
        assert_eq!(waiters.len(), 2);
        // Now a hit in L1 (fast path).
        assert_eq!(m.access(1, line(5), false, LoadId(3)), Access::Hit(4));
    }

    #[test]
    fn store_miss_fills_dirty_and_later_evicts_as_writeback() {
        let mut m = mem(Vec::new());
        assert_eq!(m.access(0, line(7), true, LoadId(1)), Access::Miss);
        let w = m.on_fill(line(7));
        assert!(w[0].store);
        // Thrash the L2 set containing line 7 to force its eviction
        // (L2 has 32 sets, 4 ways: lines 7+32k share its set; the L1
        // eviction path may refresh line 7's recency, so overfill).
        let mut wbs = Vec::new();
        for k in 1..=8 {
            let l = line(7 + 32 * k);
            let _ = m.access(0, l, false, LoadId(10 + k));
            m.on_fill(l);
            while let Some(wb) = m.pop_l2_writeback() {
                wbs.push(wb);
            }
        }
        assert!(wbs.contains(&line(7)), "dirty victim must write back, got {wbs:?}");
    }

    #[test]
    fn pacer_gates_injection() {
        let mut m = mem(vec![Pacer::with_burst(1000, 1)]);
        let _ = m.access(0, line(1), false, LoadId(1));
        let _ = m.access(0, line(2), false, LoadId(2));
        assert!(m.try_inject(0).is_some(), "first injection rides initial credit");
        assert!(m.try_inject(1).is_none(), "second is paced");
        assert!(m.try_inject(1000).is_some(), "period elapsed");
    }

    #[test]
    fn next_inject_at_tracks_the_head_pacer() {
        let mut m = mem(vec![Pacer::with_burst(1000, 1)]);
        assert_eq!(m.next_inject_at(5), None, "empty queue has no horizon");
        let _ = m.access(0, line(1), false, LoadId(1));
        let _ = m.access(0, line(2), false, LoadId(2));
        assert_eq!(m.next_inject_at(0), Some(0), "initial credit issues now");
        assert!(m.try_inject(0).is_some());
        assert_eq!(m.next_inject_at(1), Some(1000), "head NACKed until the period elapses");

        // Unpaced tiles can always inject.
        let mut free = mem(Vec::new());
        let _ = free.access(0, line(3), false, LoadId(3));
        assert_eq!(free.next_inject_at(7), Some(7));
    }

    #[test]
    fn accrued_throttle_skip_matches_naive_nack_loop() {
        let mut naive = mem(vec![Pacer::with_burst(100, 1)]);
        let mut skipped = mem(vec![Pacer::with_burst(100, 1)]);
        for m in [&mut naive, &mut skipped] {
            let _ = m.access(0, line(1), false, LoadId(1));
            let _ = m.access(0, line(2), false, LoadId(2));
            assert!(m.try_inject(0).is_some());
        }
        for now in 1..100 {
            assert!(naive.try_inject(now).is_none());
        }
        skipped.accrue_throttle_skip(99);
        assert_eq!(naive.pacers(), skipped.pacers());
        assert!(naive.try_inject(100).is_some());
        assert!(skipped.try_inject(100).is_some());
        assert_eq!(naive.pacers(), skipped.pacers());
        // An idle tile accrues nothing.
        let mut idle = mem(vec![Pacer::new(100)]);
        idle.accrue_throttle_skip(50);
        assert_eq!(idle.pacers()[0].throttled(), 0);
    }

    #[test]
    fn settlement_refunds_issue_time_charge_not_current_period() {
        // Issue under a 100-cycle period, reprogram to 10 mid-flight, then
        // settle as a shared hit: the refund is the 100 cycles actually
        // charged, re-clamped so credit cannot exceed the new burst window.
        let mut m = mem(vec![Pacer::with_burst(100, 2)]);
        let _ = m.access(0, line(1), false, LoadId(1));
        assert!(m.try_inject(0).is_some());
        m.pacers_mut()[0].set_period(10, 50);
        m.settle_response(line(1), true, false, 50);
        let p = &m.pacers()[0];
        assert!(
            p.credit_at(50) <= p.burst_window(),
            "refund pushed credit {} past window {}",
            p.credit_at(50),
            p.burst_window()
        );

        // Writeback flag: the extra charge is likewise the issue-time 100,
        // not the current 10.
        let mut m = mem(vec![Pacer::with_burst(100, 2)]);
        let _ = m.access(0, line(2), false, LoadId(1));
        assert!(m.try_inject(0).is_some()); // c_next = 100
        m.settle_response(line(2), false, true, 0); // c_next = 200
        assert_eq!(m.pacers()[0].credit_at(200), 0, "extra charge holds until cycle 200");
    }

    #[test]
    fn l1_hit_is_fastest_path() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(3), false, LoadId(1));
        m.on_fill(line(3));
        assert_eq!(m.access(1, line(3), false, LoadId(2)), Access::Hit(4));
        // A line only in L2 (L1 victimized) returns the L2 latency.
        // Fill enough lines mapping to L1 set of line 3 (8 sets, 2 ways).
        for k in 1..=2 {
            let l = line(3 + 8 * k);
            let _ = m.access(2, l, false, LoadId(10 + k));
            m.on_fill(l);
        }
        assert_eq!(m.access(3, line(3), false, LoadId(5)), Access::Hit(14));
    }

    /// A [`TileMem`] port that logs accepted accesses. With
    /// `retry_every_step` its release count moves on every call and it
    /// never vouches that it is full, so the core offers every refused
    /// access again on every step: the reference walk.
    struct Logged {
        mem: TileMem,
        retry_every_step: bool,
        calls: std::cell::Cell<u64>,
        offered: u64,
        refused: u64,
        accepted: Vec<(Cycle, LineAddr, bool)>,
    }

    impl MemPort for Logged {
        fn access(&mut self, now: Cycle, line: LineAddr, store: bool, id: LoadId) -> Access {
            self.offered += 1;
            let r = self.mem.access(now, line, store, id);
            match r {
                Access::Stall => self.refused += 1,
                _ => self.accepted.push((now, line, store)),
            }
            r
        }

        fn releases(&self) -> u64 {
            if self.retry_every_step {
                self.calls.set(self.calls.get() + 1);
                self.calls.get()
            } else {
                self.mem.releases()
            }
        }

        fn is_full(&self) -> bool {
            !self.retry_every_step && self.mem.is_full()
        }
    }

    /// Seeded compute, independent-load, dependent-load and store mix
    /// over `lines` lines.
    struct Mix {
        rng: pabst_simkit::rng::SimRng,
        lines: u64,
        stores: u64,
        next_id: u64,
    }

    impl Workload for Mix {
        fn next_op(&mut self) -> pabst_cpu::Op {
            use pabst_cpu::Op;
            let addr = pabst_cache::Addr::new(self.rng.gen_range(0..self.lines) * 64);
            match self.rng.gen_range(0..8) {
                0 => Op::Compute(1 + self.rng.gen_range(0..4) as u32),
                k if k <= self.stores => Op::Store { addr },
                k => {
                    self.next_id += 1;
                    let dep = (k == 7 && self.next_id > 1).then(|| LoadId(self.next_id - 1));
                    Op::Load { addr, id: LoadId(self.next_id), dep }
                }
            }
        }
        fn name(&self) -> &str {
            "mix"
        }
    }

    /// One cycle's injection queue and the lines holding an MSHR.
    type Queues = (Vec<(LineAddr, bool)>, Vec<u64>);
    /// One fill: its cycle, line and waiters.
    type Fill = (Cycle, LineAddr, Vec<(Option<LoadId>, bool)>);

    /// Everything the port contract must leave unchanged.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        stats: pabst_cpu::CoreStats,
        accepted: Vec<(Cycle, LineAddr, bool)>,
        queues: Vec<Queues>,
        fills: Vec<Fill>,
        writebacks: Vec<LineAddr>,
    }

    /// Drives one core against a tile with 2-4 MSHRs and a seeded pacer,
    /// returning each fill a seeded latency after injection. Returns the
    /// outcome plus the accesses the core offered and the refusals it saw.
    fn drive(seed: u64, retry_every_step: bool) -> (Outcome, u64, u64) {
        let mut rng = pabst_simkit::rng::SimRng::seed_from_u64(seed);
        let mshrs = 2 + rng.gen_range(0..3) as usize;
        let lines = 16 + rng.gen_range(0..240);
        let pacer = Pacer::with_burst(rng.gen_range(0..12), 2);
        let max_lat = 1 + rng.gen_range(0..200);
        let stores = 1 + rng.gen_range(0..5);
        let mut port = Logged {
            mem: TileMem::new(
                QosId::new(0),
                SetAssocCache::new(CacheConfig { sets: 8, ways: 2 }),
                SetAssocCache::new(CacheConfig { sets: 32, ways: 4 }),
                mshrs,
                4,
                14,
                vec![pacer],
                4,
                ChannelMap::XorFold,
            ),
            retry_every_step,
            calls: std::cell::Cell::new(0),
            offered: 0,
            refused: 0,
            accepted: Vec::new(),
        };
        let mut core = OooCore::new(pabst_cpu::CoreConfig::default());
        let ops = pabst_simkit::rng::SimRng::seed_from_u64(rng.next_u64());
        let mut wl = Mix { rng: ops, lines, stores, next_id: 0 };
        let mut inflight: Vec<(Cycle, LineAddr)> = Vec::new();
        let (mut queues, mut fills, mut writebacks) = (Vec::new(), Vec::new(), Vec::new());
        for now in 0..3000 {
            while let Some(i) = inflight.iter().position(|&(due, _)| due == now) {
                let (_, line) = inflight.remove(i);
                let waiters: Vec<_> =
                    port.mem.on_fill(line).iter().map(|w| (w.load, w.store)).collect();
                for &(id, _) in &waiters {
                    if let Some(id) = id {
                        core.on_fill(now, id);
                        core.release_slot();
                    }
                }
                fills.push((now, line, waiters));
                while let Some(wb) = port.mem.pop_l2_writeback() {
                    writebacks.push(wb);
                }
            }
            if let Some(req) = port.mem.try_inject(now) {
                inflight.push((now + 1 + rng.gen_range(0..max_lat), req.line));
            }
            core.step(now, &mut wl, &mut port);
            let q = port.mem.inject_q.iter().map(|r| (r.line, r.store)).collect();
            let held = (0..lines).filter(|&l| port.mem.mshrs.contains(line(l))).collect();
            queues.push((q, held));
        }
        let (offered, refused) = (port.offered, port.refused);
        let stats = core.stats();
        (Outcome { stats, accepted: port.accepted, queues, fills, writebacks }, offered, refused)
    }

    #[test]
    fn waiting_for_a_release_matches_retrying_every_step() {
        let (mut offered, mut refused) = (0, 0);
        let (mut reoffered, mut retried) = (0, 0);
        for seed in 0..24u64 {
            let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (waits, o, r) = drive(seed, false);
            let (retries, ro, rr) = drive(seed, true);
            assert_eq!(waits, retries, "seed {seed:#x}");
            assert!(waits.stats.stores > 0 && waits.stats.loads > 0, "seed {seed:#x}");
            offered += o;
            refused += r;
            reoffered += ro;
            retried += rr;
        }
        assert!(refused > 0, "the mixes must run the MSHRs full");
        assert!(
            retried > 10 * refused,
            "retrying every step refuses far more: {retried} vs {refused}"
        );
        // The vouching arm offers ~85x less; waiting for a release alone
        // (a port that never vouches) offers ~18x less.
        assert!(
            reoffered > 40 * offered,
            "a port that vouches it is full is offered far less: {reoffered} vs {offered}"
        );
    }

    #[test]
    fn l2_stats_track_hits_and_misses() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(1), false, LoadId(1));
        m.on_fill(line(1));
        let (h0, mi0) = m.l2_stats();
        // L1 was filled too, so probe L2 via an L1-missing line.
        let _ = m.access(1, line(1 + 8), false, LoadId(2)); // different L1 set? ensure miss
        let (h1, mi1) = m.l2_stats();
        assert!(h1 + mi1 > h0 + mi0, "L2 must have been probed");
    }
}
