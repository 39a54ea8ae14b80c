//! A set-associative cache with LRU replacement and way-based QoS
//! partitioning.
//!
//! The same structure models the private L1D/L2 (no partitioning) and the
//! shared L3 (exclusive way partitions per QoS class, as the paper's
//! experiments configure, §IV-A). Partitioning follows the Intel-CAT
//! convention: *lookups* see every way (so a line is still hit after a
//! repartition), but *allocations* for a class may only victimize ways in
//! the class's mask.
//!
//! Storage is set-major in three parallel arrays, 10 bytes per way: the
//! tag, the way's recency rank within its set, and a dirty/owner byte.
//! Exact LRU needs only each set's recency order, so no cache-wide clock
//! is kept: a touch moves the way to rank 0 and ages the ways ranked
//! before it, and the victim is the partition's highest-ranked way.

use pabst_core::qos::{QosId, MAX_CLASSES};

use crate::addr::LineAddr;

/// A bitmask of allowed allocation ways for one QoS class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// A mask allowing every way of a `ways`-way cache.
    pub fn all(ways: usize) -> Self {
        assert!(ways <= 64, "at most 64 ways supported");
        if ways == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << ways) - 1)
        }
    }

    /// A contiguous mask covering `count` ways starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds 64 ways or `count` is zero.
    pub fn range(first: usize, count: usize) -> Self {
        assert!(count > 0, "a partition must contain at least one way");
        assert!(first + count <= 64, "way range exceeds 64");
        let ones = if count == 64 { u64::MAX } else { (1u64 << count) - 1 };
        Self(ones << first)
    }

    /// True when way `w` is allowed.
    pub fn allows(self, w: usize) -> bool {
        (self.0 >> w) & 1 == 1
    }

    /// Number of allowed ways.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// Geometry of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Builds geometry for a cache of `bytes` capacity with `ways`
    /// associativity and 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the parameters don't produce a power-of-two, non-zero set
    /// count, or `ways` is 0 or > 64.
    pub fn with_capacity(bytes: u64, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        let lines = bytes / pabst_simkit::LINE_BYTES;
        let sets = (lines / ways as u64) as usize;
        assert!(sets > 0 && sets.is_power_of_two(), "sets must be a power of two, got {sets}");
        Self { sets, ways }
    }

    /// Total capacity in bytes.
    pub fn bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * pabst_simkit::LINE_BYTES
    }
}

/// A line evicted by a fill: who owned it and whether it was dirty (dirty
/// evictions from the L3 become memory writebacks, which PABST charges to
/// the demand class that caused them — §III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// The QoS class that allocated the line.
    pub owner: QosId,
    /// True when the line held modified data (requires a writeback).
    pub dirty: bool,
}

/// Dirty bit of a way's `meta` byte; the low bits hold the owner class.
const DIRTY: u8 = 0x80;

// The owner class must fit below the dirty bit.
const _: () = assert!(MAX_CLASSES <= DIRTY as usize);

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement and optional per-class way partitioning.
///
/// Purely functional state: lookups and fills mutate tags/LRU but carry no
/// timing; latency is applied by the caller.
///
/// Lines must be below `u64::MAX`, which every line made by
/// [`Addr::line`](crate::Addr::line) is: a way stores its tag plus one, and
/// in a one-set cache the tag is the whole line number. Debug builds panic
/// on `u64::MAX`.
///
/// # Examples
///
/// ```
/// use pabst_cache::{CacheConfig, SetAssocCache, LineAddr};
/// use pabst_core::qos::QosId;
///
/// let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 2 });
/// let q = QosId::new(0);
/// let line = LineAddr::new(4);
/// assert!(!c.probe(line));             // cold miss
/// assert_eq!(c.fill(line, q, false), None);
/// assert!(c.probe(line));              // now hits
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per way, set-major (`sets * ways` long, as are `rank` and `meta`):
    /// the line's tag plus one, or 0 for an invalid way (hence the bound on
    /// lines in the type's docs).
    tags: Vec<u64>,
    /// Per way, its recency rank within its set: 0 is the most recently
    /// touched. The ranks of a set that has been filled are a permutation
    /// of `0..ways`; a set never filled holds all zeros.
    rank: Vec<u8>,
    /// Per way, [`DIRTY`] or-ed with the owning class's index.
    meta: Vec<u8>,
    masks: [WayMask; MAX_CLASSES],
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache; all classes may initially allocate anywhere.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two() && cfg.sets > 0, "sets must be a power of two");
        assert!(cfg.ways > 0 && cfg.ways <= 64, "ways must be in 1..=64");
        // Zeroed allocations: a set stays out of the host's resident memory
        // until its first fill.
        let n = cfg.sets * cfg.ways;
        Self {
            cfg,
            tags: vec![0; n],
            rank: vec![0; n],
            meta: vec![0; n],
            masks: [WayMask::all(cfg.ways); MAX_CLASSES],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Restricts allocations by `class` to the ways in `mask` (CAT-style).
    ///
    /// # Panics
    ///
    /// Panics if the mask selects no way inside the cache's associativity.
    pub fn set_partition(&mut self, class: QosId, mask: WayMask) {
        let in_range = mask.0 & WayMask::all(self.cfg.ways).0;
        assert!(in_range != 0, "partition mask selects no valid way");
        self.masks[class.index()] = WayMask(in_range);
    }

    /// The index of the first way of `line`'s set, and the line's stored
    /// key (tag plus one).
    fn locate(&self, line: LineAddr) -> (usize, u64) {
        debug_assert!(line.get() < u64::MAX, "line u64::MAX has no tag key");
        let si = (line.get() as usize) & (self.cfg.sets - 1);
        (si * self.cfg.ways, (line.get() >> self.cfg.sets.trailing_zeros()) + 1)
    }

    /// The way of the set at `base` that holds `key`.
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.tags[base..base + self.cfg.ways].iter().position(|&t| t == key)
    }

    /// Makes `way` of the set at `base` the most recent: every way ranked
    /// before it ages by one.
    fn touch(&mut self, base: usize, way: usize) {
        let rank = &mut self.rank[base..base + self.cfg.ways];
        let old = rank[way];
        for r in rank.iter_mut() {
            *r += u8::from(*r < old);
        }
        rank[way] = 0;
    }

    /// Looks up `line`, counting the hit or miss; a hit makes the line the
    /// most recent way of its set. Returns the hit way's array index.
    fn lookup(&mut self, line: LineAddr) -> Option<usize> {
        let (base, key) = self.locate(line);
        match self.find(base, key) {
            Some(w) => {
                self.touch(base, w);
                self.hits += 1;
                Some(base + w)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `line`; a hit makes it the most recent way of its set.
    /// Returns whether the line is present.
    pub fn probe(&mut self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Looks up `line` and marks it dirty on a hit (a store). Returns
    /// whether the line was present.
    pub fn probe_write(&mut self, line: LineAddr) -> bool {
        let hit = self.lookup(line);
        if let Some(i) = hit {
            self.meta[i] |= DIRTY;
        }
        hit.is_some()
    }

    /// Installs `line` on behalf of `class` (write-allocate when `dirty`),
    /// returning the victim if a valid line was displaced.
    ///
    /// The victim is the LRU line among the ways `class` may allocate into;
    /// invalid ways in the class's partition are used first. If the line is
    /// already present, its dirty bit is OR-ed and no eviction occurs.
    pub fn fill(&mut self, line: LineAddr, class: QosId, dirty: bool) -> Option<Evicted> {
        let (base, key) = self.locate(line);
        let ways = self.cfg.ways;

        // Already present (e.g. a racing fill): refresh, merge dirty.
        if let Some(w) = self.find(base, key) {
            self.touch(base, w);
            if dirty {
                self.meta[base + w] |= DIRTY;
            }
            return None;
        }

        let mask = self.masks[class.index()];
        let tags = &self.tags[base..base + ways];
        // Prefer an invalid way within the partition; else the partition's
        // least recent (highest-ranked) way.
        let (slot, evicted) = match (0..ways).find(|&w| mask.allows(w) && tags[w] == 0) {
            Some(w) => {
                // A set's first fill gives it its rank permutation. Ways 0
                // and 1 tie only in a set never filled.
                if ways > 1 && self.rank[base] == self.rank[base + 1] {
                    for (r, i) in self.rank[base..base + ways].iter_mut().zip(0u8..) {
                        *r = i;
                    }
                }
                (w, None)
            }
            None => {
                let rank = &self.rank[base..base + ways];
                let w = (0..ways)
                    .filter(|&w| mask.allows(w))
                    .max_by_key(|&w| rank[w])
                    .expect("partition mask guarantees at least one way");
                let shift = self.cfg.sets.trailing_zeros();
                let meta = self.meta[base + w];
                let victim = Evicted {
                    line: LineAddr::new(((tags[w] - 1) << shift) | (base / ways) as u64),
                    owner: QosId::new(meta & !DIRTY),
                    dirty: meta & DIRTY != 0,
                };
                (w, Some(victim))
            }
        };

        self.tags[base + slot] = key;
        self.meta[base + slot] = class.index() as u8 | if dirty { DIRTY } else { 0 };
        self.touch(base, slot);
        evicted
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Valid lines currently held by `class` (occupancy monitoring, §II-B).
    pub fn occupancy(&self, class: QosId) -> usize {
        let owner = class.index() as u8;
        self.tags.iter().zip(&self.meta).filter(|&(&t, &m)| t != 0 && m & !DIRTY == owner).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig { sets: 4, ways: 2 })
    }

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let l = LineAddr::new(3);
        assert!(!c.probe(l));
        c.fill(l, q(0), false);
        assert!(c.probe(l));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0, 4, 8... (sets=4).
        c.fill(LineAddr::new(0), q(0), false);
        c.fill(LineAddr::new(4), q(0), false);
        // Touch 0 so 4 is LRU.
        assert!(c.probe(LineAddr::new(0)));
        let ev = c.fill(LineAddr::new(8), q(0), false).expect("must evict");
        assert_eq!(ev.line, LineAddr::new(4));
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(4)));
    }

    #[test]
    fn eviction_reports_owner_and_dirty() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(1), true);
        c.fill(LineAddr::new(4), q(0), false);
        let ev = c.fill(LineAddr::new(8), q(0), false).unwrap();
        assert_eq!(ev.owner, q(1));
        assert!(ev.dirty);
        assert_eq!(ev.line, LineAddr::new(0));
    }

    #[test]
    fn refill_merges_dirty_without_eviction() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(0), false);
        c.fill(LineAddr::new(4), q(0), false);
        // The refill merges the dirty bit and makes line 0 the most recent.
        assert_eq!(c.fill(LineAddr::new(0), q(0), true), None);
        let ev = c.fill(LineAddr::new(8), q(0), false).unwrap();
        assert_eq!((ev.line, ev.dirty), (LineAddr::new(4), false));
        let ev = c.fill(LineAddr::new(12), q(0), false).unwrap();
        assert_eq!((ev.line, ev.dirty), (LineAddr::new(0), true));
    }

    #[test]
    fn probe_write_sets_dirty() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(0), false);
        assert!(c.probe_write(LineAddr::new(0)));
        assert!(!c.probe_write(LineAddr::new(4)));
        c.fill(LineAddr::new(4), q(0), false);
        let ev = c.fill(LineAddr::new(8), q(0), false).unwrap();
        assert_eq!((ev.line, ev.dirty), (LineAddr::new(0), true));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn partitions_isolate_allocations() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 4 });
        c.set_partition(q(0), WayMask::range(0, 2));
        c.set_partition(q(1), WayMask::range(2, 2));
        // Class 0 thrashes its 2 ways of set 0 (lines 0,2,4,... map to set 0).
        for i in 0..16 {
            c.fill(LineAddr::new(i * 2), q(0), false);
        }
        // Class 1's lines in the other ways must be untouched.
        c.fill(LineAddr::new(100), q(1), false); // set 0
        c.fill(LineAddr::new(102), q(1), false); // set 0
        for i in 16..32 {
            let ev = c.fill(LineAddr::new(i * 2), q(0), false);
            if let Some(ev) = ev {
                assert_eq!(ev.owner, q(0), "class 0 may only evict its own partition");
            }
        }
        assert!(c.probe(LineAddr::new(100)));
        assert!(c.probe(LineAddr::new(102)));
    }

    #[test]
    fn lookup_hits_outside_own_partition() {
        // CAT semantics: partitioning restricts allocation, not lookup.
        let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 4 });
        c.fill(LineAddr::new(0), q(1), false); // lands in some way
        c.set_partition(q(0), WayMask::range(0, 1));
        // Class-agnostic probe still hits regardless of which partition.
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    fn occupancy_counts_per_class() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 4, ways: 4 });
        c.set_partition(q(0), WayMask::range(0, 2));
        c.set_partition(q(1), WayMask::range(2, 2));
        for i in 0..4 {
            c.fill(LineAddr::new(i), q(0), false);
            c.fill(LineAddr::new(i + 64), q(1), false);
        }
        assert_eq!(c.occupancy(q(0)), 4);
        assert_eq!(c.occupancy(q(1)), 4);
    }

    #[test]
    fn capacity_config_round_trip() {
        let cfg = CacheConfig::with_capacity(256 * 1024, 8);
        assert_eq!(cfg.bytes(), 256 * 1024);
        assert_eq!(cfg.sets, 512);
    }

    #[test]
    #[should_panic(expected = "no valid way")]
    fn out_of_range_partition_panics() {
        let mut c = small();
        c.set_partition(q(0), WayMask(0b100)); // cache has 2 ways
    }

    #[test]
    fn way_mask_helpers() {
        assert_eq!(WayMask::all(4).0, 0b1111);
        assert_eq!(WayMask::range(2, 2).0, 0b1100);
        assert!(WayMask::range(1, 3).allows(3));
        assert!(!WayMask::range(1, 3).allows(0));
        assert_eq!(WayMask::all(64).count(), 64);
    }

    #[test]
    fn eviction_line_reconstruction_exact() {
        // The reconstructed victim address must be the original line.
        let mut c = SetAssocCache::new(CacheConfig { sets: 8, ways: 1 });
        let line = LineAddr::new(0b1011_0101);
        c.fill(line, q(0), false);
        let ev = c.fill(LineAddr::new(0b1111_0101), q(0), false).unwrap();
        assert_eq!(ev.line, line);
    }

    #[test]
    fn largest_line_round_trips_in_one_set() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 1, ways: 1 });
        let top = LineAddr::new(u64::MAX - 1);
        c.fill(top, q(0), true);
        assert!(c.probe(top));
        let ev = c.fill(LineAddr::new(0), q(1), false).unwrap();
        assert_eq!(ev, Evicted { line: top, owner: q(0), dirty: true });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "u64::MAX")]
    fn line_u64_max_is_rejected() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 1, ways: 1 });
        c.probe(LineAddr::new(u64::MAX));
    }

    #[test]
    fn storage_is_ten_bytes_per_way() {
        use std::mem::size_of_val;
        for ways in [8, 16] {
            let c = SetAssocCache::new(CacheConfig { sets: 64, ways });
            // Naming every field makes a new one a compile error here
            // until it is counted.
            let SetAssocCache { cfg: _, tags, rank, meta, masks: _, hits: _, misses: _ } = &c;
            let bytes = size_of_val(tags.as_slice())
                + size_of_val(rank.as_slice())
                + size_of_val(meta.as_slice());
            assert_eq!(bytes, 10 * 64 * ways, "{ways}-way");
        }
    }

    #[test]
    fn ranks_stay_a_permutation() {
        use pabst_simkit::rng::SimRng;
        let geometries = [(1, 1), (1, 16), (4, 4), (64, 8), (8, 16)];
        for (sets, ways) in geometries {
            for seed in 0..16u64 {
                let mut rng = SimRng::seed_from_u64(seed ^ 0x4a4b);
                let mut c = SetAssocCache::new(CacheConfig { sets, ways });
                if ways == 16 {
                    c.set_partition(q(0), WayMask(0x03ff));
                    c.set_partition(q(1), WayMask(0xffc0));
                }
                let lines = 3 * (sets * ways) as u64;
                for op in 0..1000 {
                    let line = LineAddr::new(rng.gen_range(0..lines));
                    match rng.gen_range(0..3) {
                        0 => _ = c.probe(line),
                        1 => _ = c.probe_write(line),
                        _ => {
                            _ = c.fill(line, q(rng.gen_range(0..2) as u8), rng.gen_range(0..2) == 1)
                        }
                    }
                    let base = c.locate(line).0;
                    let filled = c.tags[base..base + ways].iter().any(|&t| t != 0);
                    let mut ranks = c.rank[base..base + ways].to_vec();
                    ranks.sort_unstable();
                    let want: Vec<u8> =
                        if filled { (0..ways as u8).collect() } else { vec![0; ways] };
                    assert_eq!(
                        ranks, want,
                        "{sets}x{ways} seed {seed} op {op}: ranks of line {line:?}'s set"
                    );
                }
            }
        }
    }
}
