//! The target arbiter: the priority policy of a [`crate::MemController`],
//! one concrete type over the five mechanisms of the zoo.
//!
//! The controller owns queue structure, bank timing, and the data-bus
//! pipeline; the arbiter owns *priority*: it stamps every accepted
//! request with a [`VirtualDeadline`] and observes every read's bus grant
//! so it can advance whatever internal credit it keeps. Whether those
//! stamps enter the controller's priority keys, and the mechanism's
//! label, are read from the [`ArbiterMode`] the controller was built
//! with. Every variant moves its priority state only inside
//! [`TargetArbiter::stamp`] and [`TargetArbiter::on_picked`], never with
//! time alone, so the arbiter adds nothing to the controller's event
//! horizon (`docs/PERFORMANCE.md`).
//!
//! Variants:
//!
//! * [`TargetArbiter::Edf`] — the paper's earliest-virtual-deadline
//!   arbiter with a flat one-stride charge per access (§III-C2).
//! * [`TargetArbiter::Fqm`] — Nesbit et al.'s fair queueing memory
//!   scheduler: deadlines approximate virtual time, charged by actual
//!   service cost.
//! * [`TargetArbiter::Fcfs`] — priority-blind FR-FCFS baseline.
//! * [`TargetArbiter::PerBank`] — Sullivan et al. style bank-granularity
//!   regulation: one set of virtual clocks *per DRAM bank*.
//! * [`TargetArbiter::Dpq`] — Shah et al.'s distance-based priority queue
//!   with a checkable worst-case service bound.

use std::collections::BTreeMap;

use pabst_core::arbiter::{VirtualClocks, VirtualDeadline};
use pabst_core::qos::{QosId, ShareTable, MAX_CLASSES};

/// The scheduling policy of a memory controller, built by
/// [`ArbiterMode::build`].
///
/// Contract highlights:
///
/// * `stamp` is called exactly once per accepted request, in acceptance
///   order (`seq` is strictly increasing across calls).
/// * `on_picked` is called once per *read* data-bus grant; writes drain
///   unprioritized and are never reported.
/// * `clock` is monotonically nondecreasing per class (`System`'s
///   epoch-boundary checks verify this through
///   [`crate::MemController::virtual_clock`]).
#[derive(Debug, Clone)]
pub enum TargetArbiter {
    /// Priority-blind baseline: every stamp is the acceptance sequence
    /// number and deadlines never enter priority keys, so the controller
    /// degenerates to plain FR-FCFS.
    Fcfs,
    /// The paper's arbiter: per-class virtual clocks, earliest deadline
    /// first, flat one-stride charge per read (§III-C2).
    Edf(VirtualClocks),
    /// FQM-style variant (Nesbit et al.): deadlines approximate virtual
    /// time (stamps do not advance the clock) and accesses are charged by
    /// their actual service cost after the fact.
    Fqm(VirtualClocks),
    /// Bank-granularity bandwidth regulation (Sullivan et al. style): one
    /// independent set of virtual clocks per DRAM bank, so a class's
    /// credit on a quiet bank is not consumed by its traffic on a hot one.
    /// Stamps from different banks still compete in the controller's
    /// global nomination, which is precisely the mechanism difference the
    /// zoo compares: regulation error localizes per bank instead of
    /// averaging across the channel.
    PerBank(Vec<VirtualClocks>),
    /// Shah et al.'s distance-based priority queue (see [`Dpq`]).
    Dpq(Dpq),
}

impl TargetArbiter {
    /// Stamps a newly accepted request with its priority deadline.
    ///
    /// `seq` is the controller's acceptance sequence number, `bank` the
    /// decoded target bank, and `backlog` the depth of the front-end
    /// queue the request joins (before insertion).
    pub fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        bank: u32,
        backlog: usize,
    ) -> VirtualDeadline {
        // Writes are not prioritized (§III-C2).
        if is_write {
            return VirtualDeadline(seq);
        }
        match self {
            TargetArbiter::Fcfs => VirtualDeadline(seq),
            TargetArbiter::Edf(clocks) => clocks.stamp(class),
            TargetArbiter::Fqm(clocks) => clocks.stamp_deferred(class),
            TargetArbiter::PerBank(banks) => {
                let b = bank as usize % banks.len();
                banks[b].stamp(class)
            }
            TargetArbiter::Dpq(dpq) => dpq.stamp(class, seq, backlog),
        }
    }

    /// Records that a read's data burst won the bus. `cost` is the
    /// access's service cost in row-op units (1 row hit, 2 closed row,
    /// 3 conflict), which FQM charges.
    pub fn on_picked(
        &mut self,
        class: QosId,
        deadline: VirtualDeadline,
        seq: u64,
        bank: u32,
        cost: u64,
    ) {
        match self {
            TargetArbiter::Fcfs => {}
            TargetArbiter::Edf(clocks) => clocks.on_picked(deadline),
            TargetArbiter::Fqm(clocks) => {
                clocks.on_picked(deadline);
                clocks.charge(class, cost);
            }
            TargetArbiter::PerBank(banks) => {
                let b = bank as usize % banks.len();
                banks[b].on_picked(deadline);
            }
            TargetArbiter::Dpq(dpq) => dpq.on_picked(seq),
        }
    }

    /// Current virtual-clock value of `id` — whatever monotone per-class
    /// progress notion the mechanism keeps (0 for FCFS), surfaced in
    /// [`crate::controller::McSnapshot::virtual_clocks`].
    pub fn clock(&self, id: QosId) -> u64 {
        match self {
            TargetArbiter::Fcfs => 0,
            TargetArbiter::Edf(clocks) | TargetArbiter::Fqm(clocks) => clocks.clock(id),
            // The class's furthest per-bank progress: a max of monotone
            // clocks, so the invariant checker's monotonicity law holds.
            TargetArbiter::PerBank(banks) => banks.iter().map(|c| c.clock(id)).max().unwrap_or(0),
            TargetArbiter::Dpq(dpq) => dpq.last_stamp[id.index()],
        }
    }

    /// Cumulative worst-case service promises missed (DPQ; 0 for the
    /// other arbiters). Growth is surfaced as a `dpq service bound`
    /// invariant violation by the epoch checker.
    pub fn bound_violations(&self) -> u64 {
        match self {
            TargetArbiter::Dpq(dpq) => dpq.violations,
            _ => 0,
        }
    }
}

/// Base relative-deadline window of the DPQ arbiter, in service slots:
/// the highest-weight class's requests are promised service within
/// roughly this many read grants of their arrival (plus backlog).
pub const DPQ_WINDOW: u64 = 16;

/// Multiplier covering the controller's bounded reordering around pure
/// priority order in the DPQ service-bound check: row-hit bypass
/// streaks (`max_hit_streak` per bank), reads served from other banks
/// while the target bank's timing holds (tRP+tRCD+tCL vs. one burst),
/// and the aged-entry starvation backstop. Conservative by design — the
/// bound must never trip on a legal schedule.
const DPQ_REORDER_FACTOR: u64 = 64;

/// The state of Shah et al.'s distance-based priority queue (DPQ),
/// modelled in virtual positions: a request from class `c` is inserted
/// `distance_c` service slots ahead of the arrival frontier, where the
/// distance is inversely proportional to the class's bandwidth share.
/// Concretely the stamp is `seq + d_rel[c]` and the controller's EDF key
/// serves ascending stamps, which reproduces DPQ's headline property — a
/// *checkable worst-case service bound* per class — without modelling
/// the hardware queue itself.
///
/// In every build, every read stamp records a service promise
/// (`backlog + relative-deadline gap`, inflated by `DPQ_REORDER_FACTOR`
/// for the controller's bounded non-priority reordering) and every pick
/// counts a promise that did not hold.
#[derive(Debug, Clone)]
pub struct Dpq {
    /// Per-class relative deadline (insertion distance) in service
    /// slots; smaller for higher-weight classes.
    d_rel: [u64; MAX_CLASSES],
    /// The smallest distance of any class (the overtaking bound).
    d_min: u64,
    /// Last stamp issued per class (monotone progress for `clock`).
    last_stamp: [u64; MAX_CLASSES],
    /// Total read grants observed.
    served: u64,
    /// Outstanding service promises: seq → served-counter bound.
    promises: BTreeMap<u64, u64>,
    /// Promises missed — reads served later than their worst-case bound.
    violations: u64,
}

impl Dpq {
    /// Derives the per-class distances from `shares`.
    fn new(shares: &ShareTable) -> Self {
        let mut d_rel = [DPQ_WINDOW; MAX_CLASSES];
        for (id, _) in shares.iter() {
            // scaled_stride(id, W) = round(W * max_weight / weight): the
            // highest-weight class gets distance ~W, lower weights
            // proportionally farther.
            d_rel[id.index()] = shares.scaled_stride(id, DPQ_WINDOW).get();
        }
        let d_min = d_rel[..shares.classes()].iter().copied().min().unwrap_or(DPQ_WINDOW).max(1);
        Self {
            d_rel,
            d_min,
            last_stamp: [0; MAX_CLASSES],
            served: 0,
            promises: BTreeMap::new(),
            violations: 0,
        }
    }

    /// The worst-case number of read grants a read stamped against
    /// `backlog` queued reads can wait before service, for class `id`.
    /// Earlier-deadline work is bounded by the backlog plus the
    /// overtaking window `d_rel − d_min`; the factor covers the
    /// controller's bounded non-priority reordering.
    pub fn service_bound(&self, id: QosId, backlog: usize) -> u64 {
        let gap = self.d_rel[id.index()].saturating_sub(self.d_min);
        (backlog as u64 + gap + 1).saturating_mul(DPQ_REORDER_FACTOR)
    }

    fn stamp(&mut self, class: QosId, seq: u64, backlog: usize) -> VirtualDeadline {
        let d = seq.saturating_add(self.d_rel[class.index()]);
        self.last_stamp[class.index()] = d;
        let bound = self.service_bound(class, backlog);
        self.promises.insert(seq, self.served.saturating_add(bound));
        VirtualDeadline(d)
    }

    fn on_picked(&mut self, seq: u64) {
        if let Some(promise) = self.promises.remove(&seq) {
            // A missed promise is counted and reported through the epoch
            // invariant checker, which panics on it by default and lets
            // chaos campaigns record and classify it instead.
            if self.served > promise {
                self.violations += 1;
            }
        }
        self.served += 1;
    }
}

/// Scheduling policy selector for a [`crate::MemController`]:
/// serializable configuration surface over the [`TargetArbiter`]
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterMode {
    /// Baseline FR-FCFS: oldest first at the front-end; row hits then
    /// oldest at the back-end ([`TargetArbiter::Fcfs`]).
    Fcfs,
    /// PABST priority arbiter: earliest virtual deadline, flat
    /// one-stride charge per access ([`TargetArbiter::Edf`], the paper's
    /// choice, §III-C2).
    #[default]
    Edf,
    /// FQM-style variant: charged by actual service cost
    /// ([`TargetArbiter::Fqm`]). Included for the paper's design
    /// comparison.
    Fqm,
    /// Bank-granularity regulation, Sullivan et al. style
    /// ([`TargetArbiter::PerBank`]).
    PerBank,
    /// Shah et al.'s distance-based priority queue with a checked
    /// worst-case service bound ([`TargetArbiter::Dpq`]).
    Dpq,
}

impl ArbiterMode {
    /// Stable lowercase label (config parsing, provenance hashing,
    /// report tables).
    pub fn label(self) -> &'static str {
        match self {
            ArbiterMode::Fcfs => "fcfs",
            ArbiterMode::Edf => "edf",
            ArbiterMode::Fqm => "fqm",
            ArbiterMode::PerBank => "per-bank",
            ArbiterMode::Dpq => "dpq",
        }
    }

    /// All modes, in label order (experiment sweeps, config docs).
    pub const ALL: [ArbiterMode; 5] = [
        ArbiterMode::Fcfs,
        ArbiterMode::Edf,
        ArbiterMode::Fqm,
        ArbiterMode::PerBank,
        ArbiterMode::Dpq,
    ];

    /// Builds the arbiter this mode names. `banks` sizes
    /// [`TargetArbiter::PerBank`]; `slack` bounds the virtual-clock
    /// credit of the clock-based arbiters.
    pub fn build(self, shares: &ShareTable, slack: u64, banks: usize) -> TargetArbiter {
        match self {
            ArbiterMode::Fcfs => TargetArbiter::Fcfs,
            ArbiterMode::Edf => TargetArbiter::Edf(VirtualClocks::new(shares, slack)),
            ArbiterMode::Fqm => TargetArbiter::Fqm(VirtualClocks::new(shares, slack)),
            ArbiterMode::PerBank => TargetArbiter::PerBank(
                (0..banks.max(1)).map(|_| VirtualClocks::new(shares, slack)).collect(),
            ),
            ArbiterMode::Dpq => TargetArbiter::Dpq(Dpq::new(shares)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(w: &[u32]) -> ShareTable {
        ShareTable::from_weights(w).unwrap()
    }

    #[test]
    fn edf_matches_raw_virtual_clocks() {
        let s = shares(&[3, 1]);
        let mut raw = VirtualClocks::new(&s, 128);
        let mut arb = ArbiterMode::Edf.build(&s, 128, 4);
        for i in 0..200u64 {
            let id = QosId::new((i % 2) as u8);
            let d_raw = raw.stamp(id);
            let d_arb = arb.stamp(id, false, i, (i % 4) as u32, 3);
            assert_eq!(d_raw, d_arb, "stamp {i} diverged");
            raw.on_picked(d_raw);
            arb.on_picked(id, d_arb, i, (i % 4) as u32, 1);
            assert_eq!(raw.clock(id), arb.clock(id));
        }
    }

    #[test]
    fn writes_are_never_prioritized() {
        for mode in ArbiterMode::ALL {
            let mut arb = mode.build(&shares(&[3, 1]), 128, 4);
            let d = arb.stamp(QosId::new(0), true, 77, 0, 0);
            assert_eq!(d, VirtualDeadline(77), "{}: write stamp must be the seq", mode.label());
        }
    }

    #[test]
    fn per_bank_keeps_banks_independent() {
        let mut arb = ArbiterMode::PerBank.build(&shares(&[1, 1]), u64::MAX, 2);
        let id = QosId::new(0);
        // Heavy traffic on bank 0 advances only bank 0's clock…
        for i in 0..32u64 {
            let d = arb.stamp(id, false, i, 0, 0);
            arb.on_picked(id, d, i, 0, 1);
        }
        let hot = arb.clock(id);
        assert!(hot > 0);
        // …so the first stamp on bank 1 is still early (fresh credit).
        let d = arb.stamp(id, false, 100, 1, 0);
        assert!(d.0 < hot, "bank 1 must not inherit bank 0's consumed credit");
    }

    #[test]
    fn dpq_distances_scale_inversely_with_weight() {
        let arb = Dpq::new(&shares(&[4, 1]));
        let hi = arb.service_bound(QosId::new(0), 0);
        let lo = arb.service_bound(QosId::new(1), 0);
        assert!(lo > hi, "low-weight class must carry the larger bound: {lo} vs {hi}");
    }

    #[test]
    fn dpq_bound_holds_under_priority_order_service() {
        // Serve strictly in deadline order (the arbiter's ideal): the
        // promise must hold with the reorder factor to spare.
        let mut arb = ArbiterMode::Dpq.build(&shares(&[3, 1]), 128, 1);
        let mut queue: Vec<(QosId, VirtualDeadline, u64)> = Vec::new();
        let mut seq = 0u64;
        for round in 0..400u64 {
            // Two arrivals per round, alternating classes.
            for c in 0..2u8 {
                seq += 1;
                let id = QosId::new(c);
                let d = arb.stamp(id, false, seq, 0, queue.len());
                queue.push((id, d, seq));
            }
            // One service per round: earliest deadline first.
            let i = queue
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, d, s))| (d, s))
                .map(|(i, _)| i)
                .unwrap();
            let (id, d, s) = queue.swap_remove(i);
            arb.on_picked(id, d, s, 0, 1);
            let _ = round;
        }
        // Drain: every remaining promise must also hold.
        while let Some(i) =
            queue.iter().enumerate().min_by_key(|(_, &(_, d, s))| (d, s)).map(|(i, _)| i)
        {
            let (id, d, s) = queue.swap_remove(i);
            arb.on_picked(id, d, s, 0, 1);
        }
        assert_eq!(arb.bound_violations(), 0, "ideal service never misses a promise");
    }

    #[test]
    fn dpq_bound_check_promotion_counts_misses_in_release_too() {
        // Promises are kept in every build profile, and pathological
        // service order (starving one read far beyond the arbiter's
        // bounded reordering) is *counted*, never panicked on.
        let mut arb = ArbiterMode::Dpq.build(&shares(&[1, 1]), 128, 1);
        // Victim stamped against an empty queue: its promise is the
        // minimum bound (one backlog slot times the reorder factor).
        let vd = arb.stamp(QosId::new(0), false, 1, 0, 0);
        // Starve it behind 10 000 later arrivals served first.
        for seq in 2..=10_001u64 {
            let d = arb.stamp(QosId::new(1), false, seq, 0, 1);
            arb.on_picked(QosId::new(1), d, seq, 0, 1);
        }
        assert_eq!(arb.bound_violations(), 0, "the promise is open, not yet missed");
        arb.on_picked(QosId::new(0), vd, 1, 0, 1);
        assert_eq!(arb.bound_violations(), 1, "starved far past the worst-case bound");
        // Arbiters without promises report zero.
        let edf = ArbiterMode::Edf.build(&shares(&[1, 1]), 16, 1);
        assert_eq!(edf.bound_violations(), 0);
    }

    #[test]
    fn dpq_clock_is_monotone() {
        let mut arb = ArbiterMode::Dpq.build(&shares(&[2, 1]), 128, 1);
        let mut prev = 0;
        for i in 0..100u64 {
            let _ = arb.stamp(QosId::new(0), false, i, 0, 0);
            let c = arb.clock(QosId::new(0));
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for mode in ArbiterMode::ALL {
            assert!(seen.insert(mode.label()), "duplicate label {}", mode.label());
        }
        assert_eq!(ArbiterMode::default(), ArbiterMode::Edf);
    }
}
