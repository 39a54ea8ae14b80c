//! Miss Status Holding Registers (MSHRs).
//!
//! A finite table tracking outstanding misses. A miss to a line already
//! being fetched merges as a *secondary* miss (no new memory request); a
//! miss with no free entry is refused, stalling the requester. MSHR
//! exhaustion at the L2 is what ultimately stalls a core when the memory
//! system backs up — the queuing-outside-the-target effect central to the
//! paper's Fig. 1(b).

use crate::addr::LineAddr;

/// Result of attempting to allocate an MSHR for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to the line: a memory request must be issued downstream.
    Primary,
    /// The line is already in flight: the waiter was merged.
    Secondary,
    /// No free entry (and no existing entry for the line): caller must
    /// retry later.
    Full,
}

/// Hash multiplier of the line index: 2^64 / φ (Fibonacci hashing), which
/// spreads consecutive line numbers across the slot table.
const LINE_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// An index slot that holds no entry.
const EMPTY: u32 = u32::MAX;

/// A finite MSHR table with per-line waiter lists.
///
/// `W` is the caller's waiter token (e.g. a core-side load id).
///
/// # Examples
///
/// ```
/// use pabst_cache::{MshrTable, MshrOutcome, LineAddr};
///
/// let mut m: MshrTable<u32> = MshrTable::new(2);
/// let l = LineAddr::new(7);
/// assert_eq!(m.alloc(l, 1), MshrOutcome::Primary);
/// assert_eq!(m.alloc(l, 2), MshrOutcome::Secondary);
/// assert_eq!(m.complete(l), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<W> {
    /// In-flight entries, densely packed; `complete` swap-removes.
    entries: Vec<(LineAddr, Vec<W>)>,
    /// Line → entry index, so a lookup is O(1) at any capacity (an L3
    /// table holds 512–2048 entries). Open addressing over a power-of-two
    /// table at least twice the capacity, a fixed multiplicative hash of
    /// the line number, linear probing, and backward-shift deletion (no
    /// tombstones). Each slot holds an index into `entries`, or [`EMPTY`].
    /// The hash is a constant, not a per-process seed, and nothing
    /// iterates the table: every lookup is by exact line, so slot and
    /// entry order are never observable and determinism (simlint's
    /// `hash-map` rule) holds.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    capacity: usize,
    peak: usize,
    /// Recycled waiter lists: completing a miss returns its `Vec` here so
    /// steady-state allocation/release performs no heap traffic.
    pool: Vec<Vec<W>>,
}

impl<W> MshrTable<W> {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the `u32` index.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        assert!(capacity < EMPTY as usize, "MSHR capacity must fit a u32 index");
        let slots = (2 * capacity).next_power_of_two();
        Self {
            entries: Vec::with_capacity(capacity),
            slots: vec![EMPTY; slots],
            shift: u64::BITS - slots.trailing_zeros(),
            capacity,
            peak: 0,
            pool: Vec::new(),
        }
    }

    /// The slot `line` hashes to: the first one its probe visits.
    fn home(&self, line: LineAddr) -> usize {
        (line.get().wrapping_mul(LINE_HASH) >> self.shift) as usize
    }

    /// Probes for `line`: `Ok(slot)` holding its entry, or `Err(slot)`,
    /// the empty slot that ends its probe chain. The table is at most
    /// half full, so an empty slot always exists.
    fn probe(&self, line: LineAddr) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(line);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                e if self.entries[e as usize].0 == line => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Empties `hole` and shifts later members of its probe run back, so
    /// every entry stays reachable from its home slot without tombstones.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let e = self.slots[j];
            if e == EMPTY {
                break;
            }
            // The entry at `j` may move into the hole only if the hole
            // lies on its probe path, i.e. cyclically in `home..j`.
            let home = self.home(self.entries[e as usize].0);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = e;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Attempts to register a miss on `line` for `waiter`.
    pub fn alloc(&mut self, line: LineAddr, waiter: W) -> MshrOutcome {
        match self.probe(line) {
            Ok(slot) => {
                self.entries[self.slots[slot] as usize].1.push(waiter);
                MshrOutcome::Secondary
            }
            Err(_) if self.is_full() => MshrOutcome::Full,
            Err(slot) => {
                let mut waiters = self.pool.pop().unwrap_or_default();
                waiters.push(waiter);
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push((line, waiters));
                self.peak = self.peak.max(self.entries.len());
                MshrOutcome::Primary
            }
        }
    }

    /// Completes the miss on `line`, appending all merged waiters to
    /// `out` (none when no entry existed) and recycling the entry's
    /// storage. The allocation-free form production fill paths use.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) {
        let Ok(slot) = self.probe(line) else { return };
        let i = self.slots[slot] as usize;
        self.unlink(slot);
        // `swap_remove` moves the last entry into `i`: repoint its slot.
        let last = self.entries.len() - 1;
        if i != last {
            let Ok(moved) = self.probe(self.entries[last].0) else {
                unreachable!("every entry is indexed")
            };
            self.slots[moved] = i as u32;
        }
        let (_, mut waiters) = self.entries.swap_remove(i);
        out.append(&mut waiters);
        self.pool.push(waiters);
    }

    /// Completes the miss on `line`, releasing the entry and returning all
    /// merged waiters (empty when no entry existed). Allocating
    /// convenience wrapper over [`MshrTable::complete_into`].
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// True when `line` has an in-flight entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_ok()
    }

    /// Outstanding primary misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a new primary miss would be refused.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn primary_then_secondary_then_complete() {
        let mut m: MshrTable<&str> = MshrTable::new(4);
        assert_eq!(m.alloc(l(1), "a"), MshrOutcome::Primary);
        assert_eq!(m.alloc(l(1), "b"), MshrOutcome::Secondary);
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(l(1)), vec!["a", "b"]);
        assert!(m.is_empty());
    }

    #[test]
    fn full_refuses_new_lines_but_merges_existing() {
        let mut m: MshrTable<u8> = MshrTable::new(1);
        assert_eq!(m.alloc(l(1), 0), MshrOutcome::Primary);
        assert_eq!(m.alloc(l(2), 1), MshrOutcome::Full);
        // Secondary to the existing line still merges even when full.
        assert_eq!(m.alloc(l(1), 2), MshrOutcome::Secondary);
        m.complete(l(1));
        assert_eq!(m.alloc(l(2), 3), MshrOutcome::Primary);
    }

    #[test]
    fn complete_without_entry_is_empty() {
        let mut m: MshrTable<u8> = MshrTable::new(2);
        assert!(m.complete(l(9)).is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m: MshrTable<u8> = MshrTable::new(3);
        m.alloc(l(1), 0);
        m.alloc(l(2), 0);
        m.complete(l(1));
        m.alloc(l(3), 0);
        assert_eq!(m.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: MshrTable<u8> = MshrTable::new(0);
    }
}
