//! The skip-domain scheduler: partitioned quiescence tracking for
//! tiles and memory controllers.
//!
//! The original fast-forward design min-combined ONE global horizon, so
//! a single busy component pinned the whole machine to naive stepping.
//! This module partitions the machine into *skip domains* — one per
//! tile (core + pacer + private-cache injection path) and one per
//! memory controller — each of which can be **parked** independently:
//! the step loop stops visiting a parked domain, and its per-cycle
//! bookkeeping (ROB-full stalls, pacer throttle NACKs, SAT-monitor
//! occupancy samples) is batch-accrued when the domain is unparked,
//! through the same `accrue_skip` paths the global jump uses.
//!
//! The shared spine — interconnect, L3, and the staging/drain stage —
//! keeps stepping naively; it is the source of every cross-domain
//! message, so its live stepping is what makes the wake edges exact.
//!
//! # Wake edges
//!
//! A parked domain's local clock is clamped back to `now` (it is woken,
//! and its owed bookkeeping accrued) on exactly these edges:
//!
//! * **due wake** — its cached `next_event` (`wake_at`) arrives;
//! * **response delivery** — a network response reaches a parked tile
//!   (woken *before* the fill is applied, so the accrual window closes
//!   on pre-fill state);
//! * **ingress push** — the drain stage is about to admit a staged
//!   request into a parked controller;
//! * **epoch boundary** — the heartbeat reads every component
//!   (SAT aggregation, pacer reprogramming, sanitizer), so everything
//!   is woken first;
//! * **advance settle** — `System::advance` returns; external readers
//!   (measurement marks, reports) must see fully-accrued state.
//!
//! Parking is driven by the same one-sided `next_event` contract as the
//! global horizon (see `docs/PERFORMANCE.md`): a domain is parked only
//! when its own horizon proves it inert, and a wake can only be early
//! (costing a few live steps), never late.

use pabst_dram::MemController;
use pabst_simkit::horizon::{DomainHorizon, NO_WAKE};
use pabst_simkit::Cycle;

use crate::tile::Tile;

/// Park/unpark scheduler over the system's skip domains (tiles and
/// memory controllers), with per-kind elision counters.
///
/// Owns no simulator state beyond the park bookkeeping; the owed-cycle
/// accrual it performs at wake time routes through each component's
/// existing `accrue_skip` path, so a parked window is bit-identical to
/// the same window stepped naively.
#[derive(Debug)]
pub struct DomainSched {
    tiles: DomainHorizon,
    mcs: DomainHorizon,
    /// Tile-cycles elided by parking (diagnostic only; absent from all
    /// artifacts, like `cycles_skipped`).
    tile_cycles: u64,
    /// Controller-cycles elided by parking (diagnostic only).
    mc_cycles: u64,
}

impl DomainSched {
    /// A scheduler for `tiles` tile domains and `mcs` controller
    /// domains, all initially resident.
    pub fn new(tiles: usize, mcs: usize) -> Self {
        Self {
            tiles: DomainHorizon::new(tiles),
            mcs: DomainHorizon::new(mcs),
            tile_cycles: 0,
            mc_cycles: 0,
        }
    }

    /// True when tile `i` is parked (the step loop must not visit it).
    pub fn tile_parked(&self, i: usize) -> bool {
        self.tiles.is_parked(i)
    }

    /// The lowest resident (unparked) tile in `from..end`, if any: the
    /// step loops walk live tiles in index order by stepping `from`
    /// past each answer.
    pub fn next_resident_tile(&self, from: usize, end: usize) -> Option<usize> {
        self.tiles.next_resident(from, end)
    }

    /// True when controller `k` is parked.
    pub fn mc_parked(&self, k: usize) -> bool {
        self.mcs.is_parked(k)
    }

    /// Parked tile `i`'s cached `next_event` answer (`None` when it has
    /// no self-scheduled wake). This *is* the memoized horizon: probes
    /// fold it instead of re-walking the tile.
    pub fn tile_wake(&self, i: usize) -> Option<Cycle> {
        match self.tiles.wake_at(i) {
            NO_WAKE => None,
            at => Some(at),
        }
    }

    /// Parked controller `k`'s cached `next_event` answer.
    pub fn mc_wake(&self, k: usize) -> Option<Cycle> {
        match self.mcs.wake_at(k) {
            NO_WAKE => None,
            at => Some(at),
        }
    }

    /// Parks tile `i`: bookkeeping owed from `owed_from`, cached
    /// horizon `wake_at` (the tile's `next_event` at park time).
    pub fn park_tile(&mut self, i: usize, owed_from: Cycle, wake_at: Option<Cycle>) {
        self.tiles.park(i, owed_from, wake_at);
    }

    /// Parks controller `k`.
    pub fn park_mc(&mut self, k: usize, owed_from: Cycle, wake_at: Option<Cycle>) {
        self.mcs.park(k, owed_from, wake_at);
    }

    /// Wakes tile `i` with bookkeeping accrued through (excluding)
    /// `through`: owed ROB-full stalls to the core, owed throttle NACKs
    /// to the pacer of the frozen injection head. A no-op when `i` is
    /// not parked.
    pub fn wake_tile(&mut self, i: usize, through: Cycle, tile: &mut Tile) {
        let owed = self.tiles.unpark(i, through);
        if owed > 0 {
            tile.core.accrue_skip(owed);
            tile.mem.accrue_throttle_skip(owed);
            self.tile_cycles += owed;
        }
    }

    /// Wakes controller `k`, accruing its owed SAT-monitor occupancy
    /// samples through (excluding) `through`. A no-op when not parked.
    pub fn wake_mc(&mut self, k: usize, through: Cycle, mc: &mut MemController) {
        let owed = self.mcs.unpark(k, through);
        if owed > 0 {
            mc.accrue_skip(owed);
            self.mc_cycles += owed;
        }
    }

    /// Wakes every parked tile whose cached horizon has arrived
    /// (`wake_at <= now`). Runs off the memoized minimum, so the common
    /// nothing-due case is one comparison.
    pub fn wake_due_tiles(&mut self, now: Cycle, tiles: &mut [Tile]) {
        if !self.tiles.maybe_due(now) {
            return;
        }
        for (i, tile) in tiles.iter_mut().enumerate() {
            // Resident tiles read NO_WAKE, which is never due.
            if self.tiles.wake_at(i) <= now {
                self.wake_tile(i, now, tile);
            }
        }
        self.tiles.recompute_min();
    }

    /// Wakes every parked controller whose cached horizon has arrived.
    pub fn wake_due_mcs(&mut self, now: Cycle, mcs: &mut [MemController]) {
        if !self.mcs.maybe_due(now) {
            return;
        }
        for (k, mc) in mcs.iter_mut().enumerate() {
            if self.mcs.wake_at(k) <= now {
                self.wake_mc(k, now, mc);
            }
        }
        self.mcs.recompute_min();
    }

    /// Wakes everything (epoch boundary / advance settle): the
    /// heartbeat and external readers observe fully-accrued state.
    pub fn wake_all(&mut self, through: Cycle, tiles: &mut [Tile], mcs: &mut [MemController]) {
        if self.tiles.parked_count() > 0 {
            for (i, tile) in tiles.iter_mut().enumerate() {
                self.wake_tile(i, through, tile);
            }
            self.tiles.recompute_min();
        }
        if self.mcs.parked_count() > 0 {
            for (k, mc) in mcs.iter_mut().enumerate() {
                self.wake_mc(k, through, mc);
            }
            self.mcs.recompute_min();
        }
    }

    /// True when any domain is parked.
    pub fn any_parked(&self) -> bool {
        self.tiles.parked_count() > 0 || self.mcs.parked_count() > 0
    }

    /// True when *every* domain a global jump would fast-forward is
    /// parked: all tiles, and every controller that is not frozen by an
    /// mc-stall fault window. The precondition that lets the jump be a
    /// pure clock bump (each parked domain's owed window simply grows).
    pub fn fully_parked(&self, mc_stalled: &[bool]) -> bool {
        self.tiles.parked_count() == self.tiles.len()
            && (0..self.mcs.len()).all(|k| mc_stalled[k] || self.mcs.is_parked(k))
    }

    /// Tile-cycles elided by tile-local parking so far (diagnostic).
    pub fn tile_cycles(&self) -> u64 {
        self.tile_cycles
    }

    /// Controller-cycles elided by controller parking so far
    /// (diagnostic).
    pub fn mc_cycles(&self) -> u64 {
        self.mc_cycles
    }
}
