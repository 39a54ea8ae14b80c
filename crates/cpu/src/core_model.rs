//! The out-of-order core: finite ROB, dispatch/retire width, dependent
//! loads, bounded memory-level parallelism.
//!
//! Implementation notes: load state lives inline in the ROB entries
//! (indexed by a stable sequence number), and an *attention list* tracks
//! only the entries that still need issue work, so the per-cycle cost is
//! proportional to actionable work, not ROB size — the simulator spends
//! most of its time here. Entries the port refuses move off that list to
//! a *blocked list* until the port frees a resource (see [`Access::Stall`]),
//! so a core whose stores wait on full MSHRs does not re-probe its caches
//! every cycle.

use std::collections::{BTreeMap, VecDeque};

use pabst_cache::LineAddr;
use pabst_simkit::Cycle;

use crate::ops::{LoadId, Op, Workload};

/// Result of offering a memory access to the hierarchy this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Served by a cache with a known latency: data ready at `now + lat`.
    Hit(u64),
    /// Missed; a fill will be delivered later via [`OooCore::on_fill`].
    Miss,
    /// No resource available (MSHR full): refused until the port next
    /// frees a resource, i.e. until [`MemPort::releases`] moves. The core
    /// does not offer the access again before then, so a port must not
    /// refuse for a reason that clears without a release.
    Stall,
}

/// The memory hierarchy as seen by one core. Implemented by the SoC
/// wiring (L1 → L2 → pacer → network → …).
pub trait MemPort {
    /// Offers a load/store of `line` tagged `id`. Stores use the same path
    /// (write-allocate RFO).
    fn access(&mut self, now: Cycle, line: LineAddr, store: bool, id: LoadId) -> Access;

    /// A monotone count of resources the port has freed. A refused
    /// ([`Access::Stall`]) access is retried on the first core step that
    /// sees this count differ from its value at the refusal.
    fn releases(&self) -> u64;
}

/// Core structural parameters (paper Table III class of machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Re-order buffer capacity in instructions.
    pub rob: u32,
    /// Dispatch and retire width, instructions per cycle.
    pub width: u32,
    /// Maximum loads outstanding to the memory system (LSQ/L1-MSHR bound).
    pub max_outstanding: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self { rob: 192, width: 4, max_outstanding: 16 }
    }
}

/// Retirement-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Loads issued to the memory port.
    pub loads: u64,
    /// Stores issued to the memory port.
    pub stores: u64,
    /// Cycles the core could not dispatch because the ROB was full.
    pub rob_full_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle over `cycles`.
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.retired as f64 / cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadState {
    /// Waiting for its address dependence (the producer load) to resolve.
    WaitDep(LoadId),
    /// Address known; not yet accepted by the memory port.
    Ready,
    /// In the memory system.
    Issued,
    /// Data available from cycle `.0`.
    Done(Cycle),
}

#[derive(Debug)]
enum Entry {
    /// Aggregated ALU work: `left` instructions still to retire.
    Insts {
        left: u32,
    },
    Load {
        id: LoadId,
        line: LineAddr,
        state: LoadState,
    },
    /// A store waiting to be accepted by the port (`issued` false) or
    /// retired (`issued` true).
    Store {
        line: LineAddr,
        issued: bool,
    },
    Marker {
        tag: u64,
    },
}

/// A cycle-approximate out-of-order core.
///
/// Call [`OooCore::step`] once per cycle with the memory port; deliver
/// fills with [`OooCore::on_fill`]; read transaction timestamps with
/// [`OooCore::take_markers`].
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    rob: VecDeque<Entry>,
    /// Sequence number of `rob[0]`; entry `seq` lives at `seq - head_seq`.
    head_seq: u64,
    rob_insts: u32,
    /// Load id → entry sequence number, for fills and dependence checks.
    /// A BTreeMap so any iteration is id-ordered, never hasher-ordered
    /// (simlint L1: simulation state must be deterministic).
    load_pos: BTreeMap<LoadId, u64>,
    /// Entry seqs that still need issue-stage work.
    attention: Vec<u64>,
    /// Recycled backing storage for the issue stage's kept-entry list, so
    /// the per-cycle filter does not allocate (the simulator spends most
    /// of its time here).
    attention_scratch: Vec<u64>,
    /// Unissued stores currently on the attention list. Stores are the
    /// only entries that can issue while `outstanding` is at its bound, so
    /// this lets the issue stage stop scanning the moment neither loads
    /// nor stores can make progress.
    attention_stores: usize,
    /// Entry seqs the port refused, off the attention list until
    /// [`MemPort::releases`] moves. Each run of refusals is in sequence
    /// order; runs from different cycles may interleave.
    blocked: Vec<u64>,
    /// Unissued stores on the blocked list.
    blocked_stores: usize,
    /// The port's release count at the last issue stage: every blocked
    /// entry was refused at this count.
    seen_releases: u64,
    outstanding: usize,
    stats: CoreStats,
    markers: Vec<(u64, Cycle)>,
    /// Dispatch carry-over: an op that did not fit this cycle.
    pending_op: Option<Op>,
}

impl OooCore {
    /// Creates an idle core.
    ///
    /// # Panics
    ///
    /// Panics when any structural parameter is zero.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(cfg.rob > 0 && cfg.width > 0 && cfg.max_outstanding > 0, "zero-sized core");
        Self {
            cfg,
            rob: VecDeque::new(),
            head_seq: 0,
            rob_insts: 0,
            load_pos: BTreeMap::new(),
            attention: Vec::new(),
            attention_scratch: Vec::new(),
            attention_stores: 0,
            blocked: Vec::new(),
            blocked_stores: 0,
            seen_releases: 0,
            outstanding: 0,
            stats: CoreStats::default(),
            markers: Vec::new(),
            pending_op: None,
        }
    }

    /// Advances one cycle: retire → issue → dispatch.
    pub fn step(&mut self, now: Cycle, workload: &mut dyn Workload, port: &mut dyn MemPort) {
        self.retire(now);
        self.issue(now, port);
        self.dispatch(now, workload);
    }

    /// Delivers the fill for a previously missed load.
    pub fn on_fill(&mut self, now: Cycle, id: LoadId) {
        if let Some(&seq) = self.load_pos.get(&id) {
            if let Some(Entry::Load { state, .. }) = self.entry_mut(seq) {
                debug_assert_eq!(*state, LoadState::Issued, "fill for unissued load");
                *state = LoadState::Done(now);
            }
        }
    }

    /// Core statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Drains recorded `(marker_tag, retire_cycle)` pairs.
    pub fn take_markers(&mut self) -> Vec<(u64, Cycle)> {
        std::mem::take(&mut self.markers)
    }

    /// True when markers are waiting to be drained; lets the caller skip
    /// [`OooCore::take_markers`] on the (overwhelmingly common) empty case.
    pub fn has_markers(&self) -> bool {
        !self.markers.is_empty()
    }

    /// Loads currently outstanding in the memory system.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Releases an outstanding-load slot; the SoC calls this when a miss
    /// completes (paired with [`OooCore::on_fill`]).
    pub fn release_slot(&mut self) {
        debug_assert!(self.outstanding > 0, "slot release without outstanding load");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Earliest cycle at which stepping this core could change observable
    /// state, or `None` when the core is wedged on external input (an
    /// outstanding miss that only [`OooCore::on_fill`] can resolve).
    ///
    /// The answer follows the horizon contract (`docs/PERFORMANCE.md`):
    /// it may be conservative (report `now` when a step would in fact be
    /// a no-op) but never optimistic. Each pipeline stage is inspected
    /// with the same predicates [`OooCore::step`] uses:
    ///
    /// * dispatch acts every cycle unless a carried-over op still does
    ///   not fit the ROB (and the blocked cycle itself is observable —
    ///   see [`OooCore::accrue_skip`]);
    /// * retire acts when the head is retirable now, and schedules a
    ///   timed wake when the head load's data has a known arrival cycle;
    /// * issue acts when any attention-list entry could issue or resolve
    ///   a dependence now, with timed wakes for producers whose data
    ///   arrival is already scheduled. Blocked entries count as if they
    ///   were still retried every cycle: the core cannot see a release
    ///   until it steps, so it must keep stepping while one could be
    ///   offered to the port.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;

        // Undrained markers: the SoC reads them every stepped cycle, so
        // they must be handed over before any window is skipped.
        if !self.markers.is_empty() {
            return Some(now);
        }
        // Dispatch: with no carried-over op the next workload op is
        // consumed (a mutation even if it then fails to fit); a carried
        // op that fits dispatches immediately.
        match &self.pending_op {
            None => return Some(now),
            Some(op) => {
                if self.rob_insts + op.insts() <= self.cfg.rob {
                    return Some(now);
                }
            }
        }
        let mut h = Horizon::new();
        // Retire: only the head can block, and only a head load with a
        // scheduled completion contributes a timed wake.
        match self.rob.front() {
            None | Some(Entry::Store { issued: false, .. }) => {}
            Some(Entry::Insts { .. } | Entry::Marker { .. }) => return Some(now),
            Some(Entry::Store { issued: true, .. }) => return Some(now),
            Some(Entry::Load { state: LoadState::Done(at), .. }) => {
                if *at <= now {
                    return Some(now);
                }
                h.add(*at);
            }
            Some(Entry::Load { .. }) => {}
        }
        // Blocked entries: a store could be offered whenever the port
        // frees an MSHR, a (Ready) load only below the MLP bound.
        let below_mlp = self.outstanding < self.cfg.max_outstanding;
        if !self.blocked.is_empty() && (below_mlp || self.blocked_stores > 0) {
            return Some(now);
        }
        // Issue: mirror the issue stage's own early-exit — when loads
        // are MLP-bound and no store is pending, the whole list is inert.
        let mlp_bound = !below_mlp && self.attention_stores == 0;
        if !self.attention.is_empty() && !mlp_bound {
            for &seq in &self.attention {
                let Some(idx) = seq.checked_sub(self.head_seq) else { return Some(now) };
                let Some(entry) = self.rob.get(idx as usize) else { return Some(now) };
                match entry {
                    Entry::Load { state, .. } => match state {
                        LoadState::WaitDep(dep) => match self.load_pos.get(dep) {
                            // Producer already retired: resolving the
                            // dependence is itself a state change.
                            None => return Some(now),
                            Some(&pseq) => {
                                let pidx = (pseq - self.head_seq) as usize;
                                match self.rob.get(pidx) {
                                    Some(Entry::Load { state: LoadState::Done(at), .. }) => {
                                        if *at <= now {
                                            return Some(now);
                                        }
                                        h.add(*at);
                                    }
                                    // Producer still in flight: it (or
                                    // the memory system) owns the wake.
                                    Some(Entry::Load { .. }) => {}
                                    _ => return Some(now),
                                }
                            }
                        },
                        LoadState::Ready => {
                            if self.outstanding < self.cfg.max_outstanding {
                                // The port access could hit, miss or
                                // stall — all of them mutate something.
                                return Some(now);
                            }
                        }
                        // Issued/Done entries leave the attention list
                        // when they transition; seeing one here means an
                        // assumption broke — refuse to skip over it.
                        LoadState::Issued | LoadState::Done(_) => return Some(now),
                    },
                    Entry::Store { issued, .. } => {
                        if !*issued {
                            return Some(now);
                        }
                    }
                    _ => return Some(now),
                }
            }
        }
        h.get()
    }

    /// Accounts for `cycles` skipped quiescent cycles: a quiescent core
    /// by construction has a carried-over op that does not fit the ROB
    /// ([`OooCore::next_event`] returns `now` otherwise), and naive
    /// stepping would have charged one `rob_full_cycles` per cycle.
    pub fn accrue_skip(&mut self, cycles: u64) {
        debug_assert!(
            self.pending_op.is_some(),
            "skip accrual on a core whose dispatch is not blocked"
        );
        self.stats.rob_full_cycles += cycles;
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get_mut(idx)
    }

    fn retire(&mut self, now: Cycle) {
        let mut budget = self.cfg.width;
        while budget > 0 {
            let Some(head) = self.rob.front_mut() else { break };
            match head {
                Entry::Insts { left } => {
                    let n = (*left).min(budget);
                    *left -= n;
                    budget -= n;
                    self.rob_insts -= n;
                    self.stats.retired += u64::from(n);
                    if *left != 0 {
                        break;
                    }
                }
                Entry::Load { id, state, .. } => {
                    if !matches!(state, LoadState::Done(at) if *at <= now) {
                        break;
                    }
                    self.load_pos.remove(id);
                    self.rob_insts -= 1;
                    self.stats.retired += 1;
                    budget -= 1;
                }
                Entry::Store { issued, .. } => {
                    if !*issued {
                        break;
                    }
                    self.rob_insts -= 1;
                    self.stats.retired += 1;
                    budget -= 1;
                }
                Entry::Marker { tag } => {
                    // Markers are free: don't consume retire bandwidth.
                    self.markers.push((*tag, now));
                }
            }
            self.rob.pop_front();
            self.head_seq += 1;
        }
    }

    fn issue(&mut self, now: Cycle, port: &mut dyn MemPort) {
        let releases = port.releases();
        if releases != self.seen_releases {
            self.seen_releases = releases;
            self.unblock();
        }
        if self.attention.is_empty() {
            return;
        }
        let mut issued_this_cycle = 0u32;
        let mut kept = std::mem::take(&mut self.attention_scratch);
        kept.clear();
        let attention = std::mem::take(&mut self.attention);
        for (pos, &seq) in attention.iter().enumerate() {
            if issued_this_cycle >= 2
                || (self.outstanding >= self.cfg.max_outstanding && self.attention_stores == 0)
            {
                // No further entry can issue this cycle: the per-cycle cap
                // is exhausted, or loads are MLP-bound and every pending
                // store is blocked. Nothing in the tail can change
                // observable state (a resolvable WaitDep is
                // indistinguishable from Ready until it can issue), so
                // keep it wholesale.
                kept.extend_from_slice(&attention[pos..]);
                break;
            }
            let Some(idx) = seq.checked_sub(self.head_seq) else { continue };
            let Some(entry) = self.rob.get_mut(idx as usize) else { continue };
            match entry {
                Entry::Load { id, line, state } => {
                    let (id, line) = (*id, *line);
                    // Resolve dependence: the producer is done when its
                    // entry says so, or it already retired.
                    if let LoadState::WaitDep(dep) = *state {
                        let dep_done = match self.load_pos.get(&dep).copied() {
                            None => true,
                            Some(pseq) => {
                                let pidx = (pseq - self.head_seq) as usize;
                                matches!(
                                    self.rob.get(pidx),
                                    Some(Entry::Load { state: LoadState::Done(at), .. })
                                        if *at <= now
                                )
                            }
                        };
                        if dep_done {
                            if let Some(Entry::Load { state, .. }) = self.rob.get_mut(idx as usize)
                            {
                                *state = LoadState::Ready;
                            }
                        } else {
                            kept.push(seq);
                            continue;
                        }
                    }
                    // Try to issue a Ready load.
                    if issued_this_cycle < 2 && self.outstanding < self.cfg.max_outstanding {
                        match port.access(now, line, false, id) {
                            Access::Hit(lat) => {
                                if let Some(Entry::Load { state, .. }) =
                                    self.rob.get_mut(idx as usize)
                                {
                                    *state = LoadState::Done(now + lat);
                                }
                                self.stats.loads += 1;
                                issued_this_cycle += 1;
                            }
                            Access::Miss => {
                                if let Some(Entry::Load { state, .. }) =
                                    self.rob.get_mut(idx as usize)
                                {
                                    *state = LoadState::Issued;
                                }
                                self.outstanding += 1;
                                self.stats.loads += 1;
                                issued_this_cycle += 1;
                            }
                            Access::Stall => self.blocked.push(seq),
                        }
                    } else {
                        kept.push(seq);
                    }
                }
                Entry::Store { line, issued } => {
                    debug_assert!(!*issued, "issued stores leave the attention list");
                    if issued_this_cycle < 2 {
                        match port.access(now, *line, true, LoadId(u64::MAX)) {
                            Access::Hit(_) | Access::Miss => {
                                // Store-buffer semantics: retire on issue;
                                // the hierarchy's MSHRs bound the fill.
                                *issued = true;
                                self.stats.stores += 1;
                                self.attention_stores -= 1;
                                issued_this_cycle += 1;
                            }
                            Access::Stall => {
                                self.blocked.push(seq);
                                self.attention_stores -= 1;
                                self.blocked_stores += 1;
                            }
                        }
                    } else {
                        kept.push(seq);
                    }
                }
                _ => {}
            }
        }
        self.attention = kept;
        // Recycle the drained list's capacity for the next cycle's `kept`.
        let mut drained = attention;
        drained.clear();
        self.attention_scratch = drained;
    }

    /// Returns every blocked entry to the attention list, restoring
    /// sequence order. The attention list is sorted and the blocked list
    /// is a few sorted runs, which the stable sort merges rather than
    /// re-sorting.
    fn unblock(&mut self) {
        if self.blocked.is_empty() {
            return;
        }
        self.attention.append(&mut self.blocked);
        self.attention.sort();
        self.attention_stores += self.blocked_stores;
        self.blocked_stores = 0;
    }

    fn dispatch(&mut self, _now: Cycle, workload: &mut dyn Workload) {
        let mut budget = self.cfg.width;
        while budget > 0 {
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => workload.next_op(),
            };
            if self.rob_insts + op.insts() > self.cfg.rob {
                self.pending_op = Some(op);
                self.stats.rob_full_cycles += 1;
                break;
            }
            let seq = self.head_seq + self.rob.len() as u64;
            match op {
                Op::Compute(n) => {
                    if n > 0 {
                        self.rob.push_back(Entry::Insts { left: n });
                        self.rob_insts += n;
                    }
                    // Dispatching n instructions costs n slots of width
                    // (overflow beyond this cycle's budget is forgiven — a
                    // half-cycle approximation).
                    budget = budget.saturating_sub(n.max(1));
                }
                Op::Load { addr, id, dep } => {
                    let state = match dep {
                        Some(d) if self.load_pos.contains_key(&d) => LoadState::WaitDep(d),
                        _ => LoadState::Ready,
                    };
                    self.load_pos.insert(id, seq);
                    self.rob.push_back(Entry::Load { id, line: addr.line(), state });
                    self.rob_insts += 1;
                    self.attention.push(seq);
                    budget -= 1;
                }
                Op::Store { addr } => {
                    self.rob.push_back(Entry::Store { line: addr.line(), issued: false });
                    self.rob_insts += 1;
                    self.attention.push(seq);
                    self.attention_stores += 1;
                    budget -= 1;
                }
                Op::Marker(tag) => {
                    self.rob.push_back(Entry::Marker { tag });
                    // Free.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cache::Addr;

    /// Memory that always hits with a fixed latency.
    struct FlatMem(u64);
    impl MemPort for FlatMem {
        fn access(&mut self, _n: Cycle, _l: LineAddr, _s: bool, _i: LoadId) -> Access {
            Access::Hit(self.0)
        }
        fn releases(&self) -> u64 {
            0
        }
    }

    /// Memory that always misses; fills must be delivered manually.
    #[derive(Default)]
    struct MissMem {
        issued: Vec<LoadId>,
    }
    impl MemPort for MissMem {
        fn access(&mut self, _n: Cycle, _l: LineAddr, store: bool, id: LoadId) -> Access {
            if !store {
                self.issued.push(id);
            }
            Access::Miss
        }
        fn releases(&self) -> u64 {
            0
        }
    }

    /// An L2-like port: lines in `hits` hit with latency 1; any other
    /// line takes one of `cap` MSHR entries (merging into an entry its
    /// line already holds) or is refused. Every offered access is logged.
    #[derive(Default)]
    struct Mshrs {
        cap: usize,
        inflight: Vec<LineAddr>,
        hits: Vec<LineAddr>,
        releases: u64,
        offered: Vec<(Cycle, LineAddr, bool)>,
    }
    impl Mshrs {
        fn new(cap: usize, hits: &[u64], inflight: &[u64]) -> Self {
            Self {
                cap,
                hits: hits.iter().map(|&l| LineAddr::new(l)).collect(),
                inflight: inflight.iter().map(|&l| LineAddr::new(l)).collect(),
                ..Self::default()
            }
        }
        /// Completes the entry for `line`, as a fill would.
        fn release(&mut self, line: u64) {
            self.inflight.retain(|&l| l != LineAddr::new(line));
            self.releases += 1;
        }
        /// Lines offered at `now`.
        fn offered_at(&self, now: Cycle) -> Vec<(u64, bool)> {
            self.offered.iter().filter(|o| o.0 == now).map(|o| (o.1.get(), o.2)).collect()
        }
    }
    impl MemPort for Mshrs {
        fn access(&mut self, now: Cycle, line: LineAddr, store: bool, _i: LoadId) -> Access {
            self.offered.push((now, line, store));
            if self.hits.contains(&line) {
                Access::Hit(1)
            } else if self.inflight.contains(&line) {
                Access::Miss
            } else if self.inflight.len() < self.cap {
                self.inflight.push(line);
                Access::Miss
            } else {
                Access::Stall
            }
        }
        fn releases(&self) -> u64 {
            self.releases
        }
    }

    /// Plays `ops` in order, then single-instruction compute forever.
    struct Script(VecDeque<Op>);
    impl Script {
        fn new(ops: Vec<Op>) -> Self {
            Self(ops.into())
        }
    }
    impl Workload for Script {
        fn next_op(&mut self) -> Op {
            self.0.pop_front().unwrap_or(Op::Compute(1))
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    fn load(line: u64, id: u64, dep: Option<u64>) -> Op {
        Op::Load { addr: Addr::new(line * 64), id: LoadId(id), dep: dep.map(LoadId) }
    }

    fn store(line: u64) -> Op {
        Op::Store { addr: Addr::new(line * 64) }
    }

    struct ComputeOnly;
    impl Workload for ComputeOnly {
        fn next_op(&mut self) -> Op {
            Op::Compute(4)
        }
        fn name(&self) -> &str {
            "compute-only"
        }
    }

    /// Independent loads every `gap` instructions.
    struct LoadEvery {
        gap: u32,
        next: u64,
        emitted_load: bool,
    }
    impl Workload for LoadEvery {
        fn next_op(&mut self) -> Op {
            self.emitted_load = !self.emitted_load;
            if self.emitted_load {
                Op::Compute(self.gap)
            } else {
                self.next += 1;
                Op::Load { addr: Addr::new(self.next * 64), id: LoadId(self.next), dep: None }
            }
        }
        fn name(&self) -> &str {
            "load-every"
        }
    }

    /// A single dependent chain: each load depends on the previous.
    struct Chain {
        next: u64,
    }
    impl Workload for Chain {
        fn next_op(&mut self) -> Op {
            self.next += 1;
            Op::Load {
                addr: Addr::new(self.next * 64),
                id: LoadId(self.next),
                dep: if self.next > 1 { Some(LoadId(self.next - 1)) } else { None },
            }
        }
        fn name(&self) -> &str {
            "chain"
        }
    }

    #[test]
    fn compute_only_hits_full_width_ipc() {
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = FlatMem(1);
        let mut wl = ComputeOnly;
        for now in 0..1000 {
            core.step(now, &mut wl, &mut mem);
        }
        let ipc = core.stats().ipc(1000);
        assert!(ipc > 3.5, "compute-bound IPC should approach width 4, got {ipc}");
    }

    #[test]
    fn independent_loads_overlap_misses() {
        // MLP: many misses in flight at once.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 4, next: 0, emitted_load: false };
        for now in 0..50 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(
            core.outstanding() >= 8,
            "independent loads must overlap, outstanding={}",
            core.outstanding()
        );
    }

    #[test]
    fn outstanding_bounded_by_config() {
        let cfg = CoreConfig { max_outstanding: 3, ..CoreConfig::default() };
        let mut core = OooCore::new(cfg);
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 0, next: 0, emitted_load: false };
        for now in 0..200 {
            core.step(now, &mut wl, &mut mem);
            assert!(core.outstanding() <= 3);
        }
        assert_eq!(core.outstanding(), 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        // A pure pointer chase has exactly one outstanding miss at a time.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = Chain { next: 0 };
        for now in 0..100u64 {
            core.step(now, &mut wl, &mut mem);
            assert!(core.outstanding() <= 1, "chain must not overlap misses");
            // Complete any outstanding load after 10 cycles.
            if now % 10 == 0 {
                for id in std::mem::take(&mut mem.issued) {
                    core.on_fill(now, id);
                    core.release_slot();
                }
            }
        }
        assert!(core.stats().loads >= 5, "chain must make forward progress");
    }

    #[test]
    fn rob_fills_and_stalls_dispatch() {
        // All-miss loads with no fills: the ROB must fill and dispatch stop.
        let mut core = OooCore::new(CoreConfig { rob: 32, ..CoreConfig::default() });
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 1, next: 0, emitted_load: false };
        for now in 0..200 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().rob_full_cycles > 0);
        // Only the compute ops ahead of the first (never-filled) load can
        // retire; everything after is stuck behind it.
        assert!(
            core.stats().retired <= 2,
            "retirement must stall behind the unfilled load, retired={}",
            core.stats().retired
        );
    }

    #[test]
    fn fills_unblock_retirement_in_order() {
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 2, next: 0, emitted_load: false };
        for now in 0..20 {
            core.step(now, &mut wl, &mut mem);
        }
        let before = core.stats().retired;
        // Fill everything issued so far.
        for id in std::mem::take(&mut mem.issued) {
            core.on_fill(20, id);
            core.release_slot();
        }
        for now in 21..60 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().retired > before + 10);
    }

    #[test]
    fn markers_record_retire_cycle() {
        struct Marked {
            sent: bool,
        }
        impl Workload for Marked {
            fn next_op(&mut self) -> Op {
                if !self.sent {
                    self.sent = true;
                    Op::Marker(42)
                } else {
                    Op::Compute(4)
                }
            }
            fn name(&self) -> &str {
                "marked"
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = FlatMem(1);
        let mut wl = Marked { sent: false };
        for now in 0..10 {
            core.step(now, &mut wl, &mut mem);
        }
        let markers = core.take_markers();
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].0, 42);
        assert!(core.take_markers().is_empty(), "markers drain once");
    }

    #[test]
    fn stores_retire_without_fill() {
        struct Stores {
            n: u64,
        }
        impl Workload for Stores {
            fn next_op(&mut self) -> Op {
                self.n += 1;
                Op::Store { addr: Addr::new(self.n * 64) }
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default(); // all stores miss
        let mut wl = Stores { n: 0 };
        for now in 0..100 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().retired > 50, "stores must stream through the store buffer");
    }

    #[test]
    fn hit_latency_delays_retirement() {
        let mut slow_mem = FlatMem(50);
        let mut fast_mem = FlatMem(1);
        let mk = || OooCore::new(CoreConfig { max_outstanding: 1, ..CoreConfig::default() });
        let mut slow = mk();
        let mut fast = mk();
        let mut wl1 = Chain { next: 0 };
        let mut wl2 = Chain { next: 0 };
        for now in 0..2000 {
            slow.step(now, &mut wl1, &mut slow_mem);
            fast.step(now, &mut wl2, &mut fast_mem);
        }
        assert!(fast.stats().retired > 3 * slow.stats().retired);
    }

    #[test]
    fn stalled_accesses_are_retried_until_accepted() {
        /// Refuses every access until it has released `needed` resources.
        struct Flaky {
            needed: u64,
            releases: u64,
            attempts: u32,
        }
        impl MemPort for Flaky {
            fn access(&mut self, _n: Cycle, _l: LineAddr, _s: bool, _i: LoadId) -> Access {
                self.attempts += 1;
                if self.releases < self.needed {
                    Access::Stall
                } else {
                    Access::Hit(1)
                }
            }
            fn releases(&self) -> u64 {
                self.releases
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = Flaky { needed: 3, releases: 0, attempts: 0 };
        let mut wl = Chain { next: 0 };
        // The chain head is offered at cycle 1, then again on the steps
        // after the releases at cycles 4, 9 and 14 — not every cycle.
        for now in 0..14 {
            if now % 5 == 4 {
                mem.releases += 1;
            }
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(mem.attempts, 3, "one refused offer per release, plus the first");
        assert_eq!(core.stats().loads, 0);
        mem.releases += 1;
        core.step(14, &mut wl, &mut mem);
        assert_eq!(mem.attempts, 4);
        assert_eq!(core.stats().loads, 1, "the load issues on the step after the last release");
        for now in 15..50 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().retired >= 1);
    }

    #[test]
    fn refused_entries_wait_for_a_release() {
        // One MSHR, held by line 99: every store is refused.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = Mshrs::new(1, &[], &[99]);
        let mut wl = Script::new((10..30).map(store).collect());
        for now in 0..20 {
            core.step(now, &mut wl, &mut mem);
        }
        let mut lines: Vec<u64> = mem.offered.iter().map(|o| o.1.get()).collect();
        let offered = lines.len();
        lines.dedup();
        assert_eq!(lines.len(), offered, "no line is offered twice without a release");
        assert!(offered >= 8, "every dispatched store is offered once, got {offered}");
        assert_eq!(core.stats().stores, 0);
        assert_eq!(core.next_event(20), Some(20), "a blocked store keeps the core stepping");
        // Free the entry: the oldest blocked store takes it, the rest are
        // refused again, in program order.
        mem.release(99);
        core.step(20, &mut wl, &mut mem);
        let retried: Vec<u64> = mem.offered_at(20).iter().map(|o| o.0).collect();
        assert_eq!(retried, (10..10 + offered as u64).collect::<Vec<_>>());
        assert_eq!(core.stats().stores, 1);
    }

    #[test]
    fn unblocking_restores_program_order() {
        // Load 1 hits; load 2 (line 200) waits on it; store 3 (line 300)
        // is refused at cycle 1, load 2 only at cycle 2, once its address
        // resolves. Both are blocked, in reverse program order.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = Mshrs::new(0, &[1], &[]);
        let mut wl = Script::new(vec![load(1, 1, None), load(200, 2, Some(1)), store(300)]);
        for now in 0..10 {
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(mem.offered_at(1), vec![(1, false), (300, true)]);
        assert_eq!(mem.offered_at(2), vec![(200, false)]);
        assert_eq!(mem.offered.len(), 3);
        mem.cap = 2;
        mem.releases += 1;
        core.step(10, &mut wl, &mut mem);
        assert_eq!(mem.offered_at(10), vec![(200, false), (300, true)]);
        assert_eq!((core.stats().loads, core.stats().stores), (2, 1));
    }

    #[test]
    fn blocked_stores_do_not_use_issue_width() {
        // One MSHR, held by line 99. Stores to lines 10-12 are refused;
        // a store hitting line 1 and one merging into line 99's entry
        // still issue, two per cycle, and the refused ones are not
        // offered again.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = Mshrs::new(1, &[1], &[99]);
        let ops = [10, 11, 12, 1, 99, 1, 99];
        let mut wl = Script::new(ops.into_iter().map(store).collect());
        for now in 0..2 {
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(
            mem.offered_at(1),
            vec![(10, true), (11, true), (12, true), (1, true)],
            "the hit issues behind three refusals"
        );
        core.step(2, &mut wl, &mut mem);
        assert_eq!(mem.offered_at(2), vec![(99, true), (1, true)], "blocked stores are skipped");
        core.step(3, &mut wl, &mut mem);
        assert_eq!(mem.offered_at(3), vec![(99, true)]);
        assert_eq!(core.stats().stores, 4);
        assert_eq!(core.attention_stores, 0);
        assert_eq!(core.blocked_stores, 3);
    }

    #[test]
    fn mlp_bound_exit_fires_when_every_store_is_blocked() {
        // max_outstanding 1 and one MSHR. Cycle 1 issues load 1 (hit)
        // and load 2 (miss, taking the MSHR and the only load slot); at
        // cycle 2 the store is refused, after which loads are MLP-bound
        // and no store is pending, so the scan stops before load 4
        // resolves its dependence.
        let cfg = CoreConfig { max_outstanding: 1, ..CoreConfig::default() };
        let mut core = OooCore::new(cfg);
        let mut mem = Mshrs::new(1, &[5], &[]);
        let mut wl =
            Script::new(vec![load(5, 1, None), load(50, 2, None), store(60), load(70, 4, Some(1))]);
        for now in 0..3 {
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(mem.offered_at(2), vec![(60, true)]);
        assert_eq!((core.attention_stores, core.blocked_stores), (0, 1));
        let waiting = core
            .rob
            .iter()
            .any(|e| matches!(e, Entry::Load { id: LoadId(4), state: LoadState::WaitDep(_), .. }));
        assert!(waiting, "the scan must stop before load 4");
        for now in 3..10 {
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(mem.offered.len(), 3, "nothing is offered while the store is blocked");
        // The fill frees the MSHR and the load slot: the store issues.
        mem.release(50);
        core.on_fill(10, LoadId(2));
        core.release_slot();
        core.step(10, &mut wl, &mut mem);
        assert_eq!(mem.offered_at(10), vec![(60, true), (70, false)]);
        assert_eq!(core.stats().stores, 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized core")]
    fn zero_config_panics() {
        let _ = OooCore::new(CoreConfig { rob: 0, ..CoreConfig::default() });
    }

    #[test]
    fn next_event_is_now_when_dispatch_can_progress() {
        // An idle core still consumes the workload every cycle.
        let core = OooCore::new(CoreConfig::default());
        assert_eq!(core.next_event(5), Some(5));
    }

    #[test]
    fn wedged_core_reports_no_event_and_accrues_stall_cycles() {
        // All-miss loads, never filled: the core wedges with a full ROB
        // and only an external fill could wake it.
        let mk = || {
            (
                OooCore::new(CoreConfig { rob: 32, ..CoreConfig::default() }),
                MissMem::default(),
                LoadEvery { gap: 1, next: 0, emitted_load: false },
            )
        };
        let (mut skip, mut smem, mut swl) = mk();
        let (mut naive, mut nmem, mut nwl) = mk();
        for now in 0..200 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.next_event(200), None, "a wedged core schedules nothing");
        // Naive steps the dead window cycle by cycle; the other core
        // accrues the whole window in one call.
        for now in 200..500 {
            naive.step(now, &mut nwl, &mut nmem);
        }
        skip.accrue_skip(300);
        assert_eq!(skip.stats().rob_full_cycles, naive.stats().rob_full_cycles);
        assert_eq!(skip.stats().retired, naive.stats().retired);
        assert_eq!(skip.stats().loads, naive.stats().loads);
        assert_eq!(skip.outstanding(), naive.outstanding());
    }

    #[test]
    fn next_event_wakes_exactly_at_head_load_completion() {
        // A tiny ROB full of chained loads against a slow flat memory:
        // after the head load issues (cycle 1, latency 50) nothing can
        // happen until its data arrives at cycle 51.
        let cfg = CoreConfig { rob: 4, width: 4, max_outstanding: 1 };
        let mut skip = OooCore::new(cfg);
        let mut naive = OooCore::new(cfg);
        let (mut swl, mut nwl) = (Chain { next: 0 }, Chain { next: 0 });
        let (mut smem, mut nmem) = (FlatMem(50), FlatMem(50));
        for now in 0..3 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.next_event(3), Some(51));
        for now in 3..51 {
            naive.step(now, &mut nwl, &mut nmem);
        }
        skip.accrue_skip(51 - 3);
        for now in 51..120 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.stats().retired, naive.stats().retired);
        assert_eq!(skip.stats().rob_full_cycles, naive.stats().rob_full_cycles);
        assert_eq!(skip.stats().loads, naive.stats().loads);
    }

    #[test]
    fn undrained_markers_pin_the_horizon_to_now() {
        struct Marked {
            sent: bool,
        }
        impl Workload for Marked {
            fn next_op(&mut self) -> Op {
                if !self.sent {
                    self.sent = true;
                    Op::Marker(7)
                } else {
                    Op::Load { addr: Addr::new(64), id: LoadId(1), dep: None }
                }
            }
            fn name(&self) -> &str {
                "marked"
            }
        }
        let mut core = OooCore::new(CoreConfig { rob: 1, width: 1, max_outstanding: 1 });
        let mut mem = MissMem::default();
        let mut wl = Marked { sent: false };
        for now in 0..5 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.has_markers());
        assert_eq!(core.next_event(5), Some(5), "markers must drain before a skip");
        let _ = core.take_markers();
        // With markers drained the core is wedged on its unfilled load.
        assert_eq!(core.next_event(5), None);
    }
}
