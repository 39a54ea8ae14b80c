//! The skip-domain scheduler: partitioned quiescence tracking for
//! tiles.
//!
//! The original fast-forward design min-combined ONE global horizon, so
//! a single busy component pinned the whole machine to naive stepping.
//! This module partitions the tiles into *skip domains* — one per tile
//! (core + pacer + private-cache injection path) — each of which can be
//! **parked** independently: the step loop stops visiting a parked
//! tile, and its per-cycle bookkeeping (ROB-full stalls, pacer throttle
//! NACKs) is batch-accrued when the tile is unparked, through the same
//! `accrue_skip` paths the global jump uses.
//!
//! Memory controllers are not skip domains. A controller with no work
//! steps as one SAT-monitor occupancy sample, so parking it would save
//! next to nothing; every live controller steps every stepped cycle,
//! and the global jump accrues its samples directly
//! (`System::apply_skip`).
//!
//! The shared spine — controllers, interconnect, L3, and the
//! staging/drain stage — keeps stepping naively; it is the source of
//! every message that reaches a tile, so its live stepping is what
//! makes the wake edges exact.
//!
//! # Wake edges
//!
//! A parked tile's local clock is clamped back to `now` (it is woken,
//! and its owed bookkeeping accrued) on exactly these edges:
//!
//! * **due wake** — its cached `next_event` (`wake_at`) arrives;
//! * **response delivery** — a network response reaches a parked tile
//!   (woken *before* the fill is applied, so the accrual window closes
//!   on pre-fill state);
//! * **MSHR release** — a fill frees an L2 MSHR and moves the port's
//!   release count (`MemPort::releases`), which is what a core parked
//!   on refused accesses waits for (`Tile::core_next_event`). Only
//!   `TileMem::on_fill` moves that count, and only
//!   `System::on_tile_response` calls it, after the response-delivery
//!   wake above: so this edge is a case of that one and needs no wake
//!   of its own (`on_tile_response` asserts the tile is resident);
//! * **epoch boundary** — the heartbeat reads every component
//!   (pacer reprogramming, invariant checks), so everything is woken
//!   first;
//! * **advance settle** — `System::advance` returns; external readers
//!   (measurement marks, reports) must see fully-accrued state.
//!
//! Parking is driven by the same one-sided `next_event` contract as the
//! global horizon (see `docs/PERFORMANCE.md`): a tile is parked only
//! when its own horizon proves it inert, and a wake can only be early
//! (costing a few live steps), never late.
//!
//! The scheduler also holds the one skip switch (`SystemBuilder::skip`;
//! `--no-skip` on the bench binaries). Off, nothing parks and
//! `System::advance` never probes, so the same step loop visits every
//! tile every cycle: the naive per-cycle interpreter, the oracle.

use pabst_simkit::horizon::{DomainHorizon, Horizon, NO_WAKE};
use pabst_simkit::Cycle;

use crate::tile::Tile;

/// Park/unpark scheduler over the system's tile skip domains, with an
/// elision counter.
///
/// Owns no simulator state beyond the park bookkeeping; the owed-cycle
/// accrual it performs at wake time routes through each tile's existing
/// `accrue_skip` paths, so a parked window is bit-identical to the same
/// window stepped naively.
#[derive(Debug)]
pub struct DomainSched {
    tiles: DomainHorizon,
    /// The skip switch (see the module doc).
    enabled: bool,
    /// Tile-cycles elided by parking (diagnostic only; absent from all
    /// artifacts, like `cycles_skipped`).
    tile_cycles: u64,
}

impl DomainSched {
    /// A scheduler for `tiles` tile domains, all initially resident.
    /// With `enabled` false nothing ever parks (naive stepping).
    pub fn new(tiles: usize, enabled: bool) -> Self {
        Self { tiles: DomainHorizon::new(tiles), enabled, tile_cycles: 0 }
    }

    /// Whether skipping is on: tiles park and `System::advance` probes
    /// the horizon for global jumps.
    pub fn enabled(&self) -> bool {
        self.enabled
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

    /// Parked tile `i`'s cached `next_event` answer (`None` when it has
    /// no self-scheduled wake). This *is* the memoized horizon: probes
    /// fold it instead of re-walking the tile.
    pub fn tile_wake(&self, i: usize) -> Option<Cycle> {
        match self.tiles.wake_at(i) {
            NO_WAKE => None,
            at => Some(at),
        }
    }

    /// True when tile `i`'s core provably cannot retire, issue, or
    /// dispatch at `now` (refused accesses are inert until the port
    /// releases an MSHR): its ROB-full stall is accrued here and the
    /// caller skips the pipeline walk. If the injection path is quiet
    /// too, the tile parks with owed bookkeeping from `now + 1` (this
    /// cycle was handled live) and its horizon as the cached wake.
    /// Always false with skipping off.
    pub fn park_if_idle(&mut self, i: usize, now: Cycle, tile: &mut Tile) -> bool {
        if !self.enabled {
            return false;
        }
        let core_h = tile.core_next_event(now);
        if core_h.is_some_and(|at| at <= now) {
            return false;
        }
        tile.core.accrue_skip(1);
        let mut th = Horizon::new();
        th.merge(core_h);
        th.merge(tile.mem.next_inject_at(now));
        let th = th.get();
        if th.is_none_or(|at| at > now) {
            self.park_tile(i, now + 1, th);
        }
        true
    }

    /// Parks tile `i`: bookkeeping owed from `owed_from`, cached
    /// horizon `wake_at` (the tile's `next_event` at park time).
    pub fn park_tile(&mut self, i: usize, owed_from: Cycle, wake_at: Option<Cycle>) {
        self.tiles.park(i, owed_from, wake_at);
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

    /// Wakes every parked tile (epoch boundary / advance settle): the
    /// heartbeat and external readers observe fully-accrued state. One
    /// comparison when nothing is parked.
    pub fn wake_all(&mut self, through: Cycle, tiles: &mut [Tile]) {
        if self.tiles.parked_count() == 0 {
            return;
        }
        for (i, tile) in tiles.iter_mut().enumerate() {
            self.wake_tile(i, through, tile);
        }
        self.tiles.recompute_min();
    }

    /// True when every tile is parked: the precondition that lets a
    /// global jump be a pure clock bump for the tiles (each parked
    /// tile's owed window simply grows).
    pub fn fully_parked(&self) -> bool {
        self.tiles.parked_count() == self.tiles.len()
    }

    /// Tile-cycles elided by tile-local parking so far (diagnostic).
    pub fn tile_cycles(&self) -> u64 {
        self.tile_cycles
    }
}
