//! The skip-domain scheduler: the one owner of cycle skipping.
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
//! [`DomainSched`] holds everything the skip decision needs: the park
//! state of every tile, the one park site (the core stage's
//! [`DomainSched::park_if_idle`]), the wake edges below, the gate and
//! pacing of the horizon probe, and the host-side skip counters. None
//! of it is simulated state: skip-on and skip-off runs are
//! byte-identical.
//!
//! The global jump is the degenerate case of parking: `System::advance`
//! probes the horizon only once every tile has parked itself
//! ([`DomainSched::probe_due`], one comparison), and the probe folds the
//! tiles in as one number, their exact earliest wake
//! ([`DomainSched::earliest_wake`]). A cycle with a resident tile is
//! stepped without a probe.
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
//! # Probe pacing
//!
//! With every tile parked the horizon can still be `now` every cycle
//! (a busy controller, traffic in flight), and probing it then would be
//! pure overhead. Each failed probe doubles the distance to the next
//! one, up to a fixed cap of 8 cycles; a global jump resets it. A cycle
//! with a resident tile neither probes nor grows the backoff. Un-probed
//! cycles are stepped naively, which is always correct, so the pacing
//! never affects simulated behavior.
//!
//! The scheduler also holds the one skip switch (`SystemBuilder::skip`;
//! `--no-skip` on the bench binaries). Off, nothing parks and
//! `System::advance` never probes, so the same step loop visits every
//! tile every cycle: the naive per-cycle interpreter, the oracle.

use pabst_simkit::horizon::Horizon;
use pabst_simkit::Cycle;

use crate::tile::Tile;

/// Cap on the probe backoff, in cycles. Small enough that the start of
/// a quiescent window is never missed by more than a handful of naive
/// steps, large enough that a machine whose tiles are all parked behind
/// a busy controller pays for at most one probe every eight cycles.
/// Against no backoff (a cap of 1), four alternating 15 s perfbench
/// pairs on a 2-vCPU Xeon VM read `sim_cycles_per_s` medians x1.02 on
/// `read_stream` and x1.03 on `chaser_idle`, the cap winning every pair.
const PROBE_BACKOFF_CAP: u64 = 8;

/// The skip scheduler: park/unpark state of the tile skip domains,
/// horizon-probe pacing, and the skip counters.
///
/// Owns no simulator state; the owed-cycle accrual it performs at wake
/// time routes through each tile's existing `accrue_skip` paths, so a
/// parked window is bit-identical to the same window stepped naively.
///
/// A parked tile's cached `next_event` answer is its `wake_at`. The
/// cache is only ever written at park time and discarded at unpark
/// time, and every mutation that could invalidate it (a wake edge
/// above) routes through an unpark. `min_wake` memoizes the minimum
/// `wake_at` as a *lower bound*: parking folds the new wake in eagerly,
/// unparking the tile that holds it leaves it stale-low (`min_stale`).
/// A stale bound can only cause an extra due-scan, never a missed wake;
/// the probe tightens it before reading it.
#[derive(Debug)]
pub struct DomainSched {
    /// The skip switch (see the module doc).
    enabled: bool,
    /// Per tile: the cached wake of a parked tile. `Cycle::MAX`, a wake
    /// at the end of time, for a parked tile that only a wake edge can
    /// wake and for every resident tile.
    wake_at: Vec<Cycle>,
    /// Per parked tile: the first cycle whose bookkeeping it still owes.
    owed_from: Vec<Cycle>,
    /// Number of parked tiles.
    parked: usize,
    /// Lower bound on `wake_at` over the parked tiles.
    min_wake: Cycle,
    /// True when an unpark may have left `min_wake` below the exact
    /// minimum; a rescan (`recompute_min`) clears it.
    min_stale: bool,
    /// Bitset of the resident (not parked) tiles, bit `k` of word
    /// `k / 64`, so the step loops visit only live tiles.
    resident: Vec<u64>,
    /// Next cycle at which `System::advance` probes the horizon.
    probe_at: Cycle,
    /// Current probe backoff in cycles (doubles per failed probe up to
    /// [`PROBE_BACKOFF_CAP`], resets to 1 on every global jump).
    probe_backoff: u64,
    /// Cycles elided by global jumps.
    cycles_skipped: u64,
    /// Tile-cycles elided by parking, global jumps included.
    tile_cycles_skipped: u64,
    /// Controller-cycles global jumps accrued instead of stepping.
    mc_cycles_skipped: u64,
}

impl DomainSched {
    /// A scheduler for `tiles` tile domains, all initially resident.
    /// With `enabled` false nothing ever parks (naive stepping).
    pub fn new(tiles: usize, enabled: bool) -> Self {
        let mut resident = vec![u64::MAX; tiles.div_ceil(64)];
        if !tiles.is_multiple_of(64) {
            resident[tiles / 64] = (1 << (tiles % 64)) - 1;
        }
        Self {
            enabled,
            wake_at: vec![Cycle::MAX; tiles],
            owed_from: vec![0; tiles],
            parked: 0,
            min_wake: Cycle::MAX,
            min_stale: false,
            resident,
            probe_at: 0,
            probe_backoff: 1,
            cycles_skipped: 0,
            tile_cycles_skipped: 0,
            mc_cycles_skipped: 0,
        }
    }

    /// Whether skipping is on: tiles park and `System::advance` probes
    /// the horizon for global jumps.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// True when tile `i` is parked (the step loop must not visit it).
    pub fn tile_parked(&self, i: usize) -> bool {
        self.resident[i / 64] & (1 << (i % 64)) == 0
    }

    /// The lowest resident (unparked) tile in `from..end`, if any: the
    /// step loops walk live tiles in index order by stepping `from`
    /// past each answer.
    pub fn next_resident_tile(&self, from: usize, end: usize) -> Option<usize> {
        let end = end.min(self.wake_at.len());
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.resident[w] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                return (k < end).then_some(k);
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.resident[w];
        }
    }

    /// Parks tile `i`: bookkeeping owed from `owed_from`, cached wake
    /// `wake_at` (the tile's `next_event` at park time; `None` when only
    /// a wake edge can wake it).
    fn park(&mut self, i: usize, owed_from: Cycle, wake_at: Option<Cycle>) {
        debug_assert!(!self.tile_parked(i), "double park of tile {i}");
        let wake = wake_at.unwrap_or(Cycle::MAX);
        self.wake_at[i] = wake;
        self.owed_from[i] = owed_from;
        self.parked += 1;
        self.min_wake = self.min_wake.min(wake);
        self.resident[i / 64] &= !(1 << (i % 64));
    }

    /// Unparks tile `i`, returning the number of owed bookkeeping
    /// cycles in `[owed_from, through)`. A no-op returning 0 when `i`
    /// is not parked, so wake edges need not pre-check.
    fn unpark(&mut self, i: usize, through: Cycle) -> u64 {
        if !self.tile_parked(i) {
            return 0;
        }
        self.min_stale |= self.wake_at[i] == self.min_wake;
        self.wake_at[i] = Cycle::MAX;
        self.parked -= 1;
        self.resident[i / 64] |= 1 << (i % 64);
        through.saturating_sub(self.owed_from[i])
    }

    /// True when some parked tile *might* have a due wake
    /// (`wake_at <= now`). Reads the stale-low memo, so it may answer
    /// `true` spuriously after unparks, never `false` while a wake is
    /// due.
    fn maybe_due(&self, now: Cycle) -> bool {
        self.parked > 0 && self.min_wake <= now
    }

    /// Tightens the memoized minimum wake after a due-scan. Correctness
    /// never depends on this (the bound is only ever stale-*low*), only
    /// scan cost does.
    fn recompute_min(&mut self) {
        self.min_wake = if self.parked == 0 {
            Cycle::MAX
        } else {
            self.wake_at.iter().copied().min().unwrap_or(Cycle::MAX)
        };
        self.min_stale = false;
    }

    /// The exact earliest cached wake over the parked tiles (`Cycle::MAX`
    /// when none has one): the tiles' share of the horizon probe. The
    /// memo is rescanned only when an unpark has left it stale-low, so a
    /// jump lands on the wake itself, not on a bound below it.
    pub fn earliest_wake(&mut self) -> Cycle {
        if self.min_stale {
            self.recompute_min();
        }
        self.min_wake
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
            self.park(i, now + 1, th);
        }
        true
    }

    /// Wakes tile `i` with bookkeeping accrued through (excluding)
    /// `through`: owed ROB-full stalls to the core, owed throttle NACKs
    /// to the pacer of the frozen injection head. A no-op when `i` is
    /// not parked.
    pub fn wake_tile(&mut self, i: usize, through: Cycle, tile: &mut Tile) {
        let owed = self.unpark(i, through);
        if owed > 0 {
            tile.core.accrue_skip(owed);
            tile.mem.accrue_throttle_skip(owed);
            self.tile_cycles_skipped += owed;
        }
    }

    /// Wakes every parked tile whose cached horizon has arrived
    /// (`wake_at <= now`). Runs off the memoized minimum, so the common
    /// nothing-due case is one comparison.
    pub fn wake_due_tiles(&mut self, now: Cycle, tiles: &mut [Tile]) {
        if !self.maybe_due(now) {
            return;
        }
        for (i, tile) in tiles.iter_mut().enumerate() {
            // Resident tiles read `Cycle::MAX`, which is never due.
            if self.wake_at[i] <= now {
                self.wake_tile(i, now, tile);
            }
        }
        self.recompute_min();
    }

    /// Wakes every parked tile (epoch boundary / advance settle): the
    /// heartbeat and external readers observe fully-accrued state. One
    /// comparison when nothing is parked.
    pub fn wake_all(&mut self, through: Cycle, tiles: &mut [Tile]) {
        if self.parked == 0 {
            return;
        }
        for (i, tile) in tiles.iter_mut().enumerate() {
            self.wake_tile(i, through, tile);
        }
        self.recompute_min();
    }

    /// True when `System::advance` should probe the horizon at `now`:
    /// skipping is on, every tile has parked itself, and the backoff
    /// since the last failed probe has run out. With a tile resident no
    /// jump is possible, so the probe is not taken.
    pub fn probe_due(&self, now: Cycle) -> bool {
        self.enabled && self.parked == self.wake_at.len() && now >= self.probe_at
    }

    /// A probe at `now` found something due: the next probe waits the
    /// current backoff, which then doubles up to `PROBE_BACKOFF_CAP`.
    pub fn probe_failed(&mut self, now: Cycle) {
        self.probe_at = now + self.probe_backoff;
        self.probe_backoff = (self.probe_backoff * 2).min(PROBE_BACKOFF_CAP);
    }

    /// Counts a global jump of `cycles` over `live_mcs` controllers (those
    /// not frozen by an mc-stall window) and resets the probe backoff, so
    /// the cycle the jump lands on is probed again. Every tile is parked
    /// ([`DomainSched::probe_due`] gates the probe on it), so each owed
    /// window simply grows with the clock.
    pub fn record_jump(&mut self, cycles: Cycle, live_mcs: u64) {
        debug_assert!(
            self.parked == self.wake_at.len(),
            "a global jump requires every tile parked"
        );
        self.cycles_skipped += cycles;
        self.mc_cycles_skipped += cycles * live_mcs;
        self.probe_backoff = 1;
    }

    /// Cycles elided by global jumps so far (diagnostic).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Tile-cycles elided by tile-local parking so far, global jumps
    /// included (diagnostic).
    pub fn tile_cycles_skipped(&self) -> u64 {
        self.tile_cycles_skipped
    }

    /// Controller-cycles accrued by global jumps so far (diagnostic).
    pub fn mc_cycles_skipped(&self) -> u64 {
        self.mc_cycles_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_park_unpark_owed_cycles() {
        let mut d = DomainSched::new(4, true);
        assert_eq!(d.parked, 0);
        assert!(!d.tile_parked(2));

        d.park(2, 10, Some(50));
        assert!(d.tile_parked(2));
        assert_eq!(d.wake_at[2], 50);
        assert_eq!(d.parked, 1);

        // Owed covers [owed_from, through): cycles 10..37.
        assert_eq!(d.unpark(2, 37), 27);
        assert!(!d.tile_parked(2));
        assert_eq!(d.parked, 0);

        // Unparking a resident tile is a free no-op.
        assert_eq!(d.unpark(2, 99), 0);

        // A wake-less park only wakes via explicit edges; owed still counts.
        d.park(0, 100, None);
        assert_eq!(d.wake_at[0], Cycle::MAX);
        d.recompute_min();
        assert!(!d.maybe_due(u64::MAX - 1), "a wake-less park never reads as due");
        assert_eq!(d.unpark(0, 100), 0, "immediate wake owes nothing");
    }

    #[test]
    fn resident_set_is_the_unparked_domains_in_ascending_order() {
        for n in [1usize, 63, 64, 65, 256] {
            let mut rng = n as u64;
            let mut next = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };
            let mut d = DomainSched::new(n, true);
            for step in 0..4 * n as u64 + 64 {
                let k = next() as usize % n;
                if d.tile_parked(k) {
                    d.unpark(k, step);
                } else {
                    d.park(k, step, Some(step + 1));
                }
                let fresh: Vec<usize> = (0..n).filter(|&k| !d.tile_parked(k)).collect();
                let mut walked = Vec::new();
                let mut from = 0;
                while let Some(k) = d.next_resident_tile(from, n) {
                    walked.push(k);
                    from = k + 1;
                }
                assert_eq!(walked, fresh, "n = {n}, step {step}");
                // A sub-range walk sees exactly the resident tiles in it.
                let (lo, hi) = (next() as usize % n, next() as usize % (n + 1));
                let mut sub = Vec::new();
                let mut from = lo;
                while let Some(k) = d.next_resident_tile(from, hi) {
                    sub.push(k);
                    from = k + 1;
                }
                let want: Vec<usize> =
                    fresh.iter().copied().filter(|&k| lo <= k && k < hi).collect();
                assert_eq!(sub, want, "n = {n}, range {lo}..{hi}");
            }
            assert_eq!(d.next_resident_tile(n, n + 5), None, "past the end");
        }
    }

    #[test]
    fn domain_maybe_due_is_a_conservative_bound() {
        let mut d = DomainSched::new(3, true);
        d.park(0, 0, Some(20));
        d.park(1, 0, Some(80));
        assert!(!d.maybe_due(19));
        assert!(d.maybe_due(20));

        // Unpark the min holder: the bound goes stale-low — spurious
        // `true` is allowed, `false` while something is due is not.
        d.unpark(0, 20);
        assert!(d.maybe_due(20), "stale-low bound is conservative");
        d.recompute_min();
        assert!(!d.maybe_due(20), "recompute tightens the bound");
        assert!(d.maybe_due(80));
    }

    #[test]
    fn probe_waits_for_every_tile_parked_and_the_backoff() {
        let mut d = DomainSched::new(3, true);
        assert!(!d.probe_due(0), "resident tiles make a jump impossible");
        d.park(0, 0, Some(40));
        d.park(1, 0, None);
        assert!(!d.probe_due(0), "one resident tile still blocks the probe");
        d.park(2, 0, Some(90));
        assert!(d.probe_due(0), "every tile parked and no backoff pending");

        // Failed probes wait 1, 2, 4, then the cap of 8 cycles.
        let mut now = 0;
        for wait in [1, 2, 4, 8, 8] {
            d.probe_failed(now);
            assert!(!d.probe_due(now + wait - 1), "probe before the backoff ran out");
            now += wait;
            assert!(d.probe_due(now), "probe once the backoff ran out");
        }

        // A resident tile blocks the probe however long ago the last
        // failure was; parking it again reopens the gate.
        d.unpark(1, now);
        assert!(!d.probe_due(now + 100));
        d.park(1, now + 100, None);
        assert!(d.probe_due(now + 100));

        // A jump resets the backoff to one cycle.
        d.record_jump(5, 1);
        d.probe_failed(now + 105);
        assert!(d.probe_due(now + 106));

        // Skipping off: never a probe, even with every tile parked.
        let mut off = DomainSched::new(2, false);
        off.park(0, 0, Some(10));
        off.park(1, 0, Some(10));
        assert!(!off.probe_due(0) && !off.probe_due(1_000));
    }

    /// The memoization contract, exercised by a seeded op sequence: the
    /// dirty-flagged cache (`maybe_due` / `wake_at` / `earliest_wake`)
    /// must answer identically to fresh recomputation over a naive
    /// reference model at every step.
    #[test]
    fn domain_memo_matches_fresh_recompute_under_seeded_sequences() {
        const N: usize = 8;
        for seed in [3u64, 0x9e3779b9, 0xdeadbeef] {
            let mut rng = seed;
            let mut next = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };

            let mut d = DomainSched::new(N, true);
            // Reference model: parked[k] = Some((owed_from, wake_at)).
            let mut reference: Vec<Option<(Cycle, Cycle)>> = vec![None; N];
            let mut now: Cycle = 0;

            for _ in 0..2000 {
                let k = (next() as usize) % N;
                match next() % 4 {
                    0 => {
                        // Park a resident tile at a future/no wake.
                        if reference[k].is_none() {
                            let wake = match next() % 3 {
                                0 => None,
                                _ => Some(now + 1 + next() % 64),
                            };
                            d.park(k, now, wake);
                            reference[k] = Some((now, wake.unwrap_or(Cycle::MAX)));
                        }
                    }
                    1 => {
                        // Wake edge: unpark through `now`.
                        let owed = d.unpark(k, now);
                        let expect =
                            reference[k].take().map_or(0, |(from, _)| now.saturating_sub(from));
                        assert_eq!(owed, expect, "owed cycles diverged (seed {seed})");
                    }
                    2 => now += next() % 16,
                    _ => d.recompute_min(),
                }

                // Fresh recomputation over the reference model.
                for (k, slot) in reference.iter().enumerate() {
                    let fresh = slot.map_or(Cycle::MAX, |(_, wake)| wake);
                    assert_eq!(
                        d.tile_parked(k),
                        slot.is_some(),
                        "park state diverged (seed {seed})"
                    );
                    if slot.is_some() {
                        assert_eq!(d.wake_at[k], fresh, "cached wake diverged (seed {seed})");
                    }
                }
                let fresh_due = reference.iter().flatten().any(|&(_, wake)| wake <= now);
                if fresh_due {
                    assert!(d.maybe_due(now), "memo missed a due wake (seed {seed})");
                }
                // The probe's fold is exact even when an unpark above
                // left the memo stale-low.
                let fresh_min =
                    reference.iter().flatten().map(|&(_, wake)| wake).min().unwrap_or(Cycle::MAX);
                assert_eq!(d.earliest_wake(), fresh_min, "earliest wake diverged (seed {seed})");
                d.recompute_min();
                assert_eq!(
                    d.maybe_due(now),
                    fresh_due,
                    "recomputed memo diverged from fresh answer (seed {seed})"
                );
            }
        }
    }
}
