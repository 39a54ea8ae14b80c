//! Differential oracle for `SetAssocCache`: the compact rank layout against
//! the previous implementation, which kept one 24-byte `Way` per way and
//! ordered a set by stamps from a cache-wide LRU clock.
//!
//! Each case drives both caches with the same seeded stream of `probe`,
//! `probe_write` and `fill` (random class, random dirty bit) and compares
//! every answer, every eviction record and the hit, miss and occupancy
//! counters after every op. A failure message names the geometry, the seed
//! and the op index, which replay the case.

use pabst_cache::{CacheConfig, Evicted, LineAddr, SetAssocCache, WayMask};
use pabst_core::qos::{QosId, MAX_CLASSES};
use pabst_simkit::rng::SimRng;

/// The stamp-ordered cache, kept as it was before the rank layout (less
/// `contains` and `invalidate`, which the simulator never called).
mod stamped {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        owner: QosId,
        /// Last-touch stamp for LRU (global monotone counter).
        lru: u64,
    }

    impl Way {
        fn empty() -> Self {
            Self { tag: 0, valid: false, dirty: false, owner: QosId::new(0), lru: 0 }
        }
    }

    #[derive(Debug, Clone)]
    pub struct StampedCache {
        cfg: CacheConfig,
        ways: Vec<Way>,
        masks: [WayMask; MAX_CLASSES],
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl StampedCache {
        pub fn new(cfg: CacheConfig) -> Self {
            assert!(cfg.sets.is_power_of_two() && cfg.sets > 0, "sets must be a power of two");
            assert!(cfg.ways > 0 && cfg.ways <= 64, "ways must be in 1..=64");
            Self {
                cfg,
                ways: vec![Way::empty(); cfg.sets * cfg.ways],
                masks: [WayMask::all(cfg.ways); MAX_CLASSES],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_mut(&mut self, si: usize) -> &mut [Way] {
            &mut self.ways[si * self.cfg.ways..(si + 1) * self.cfg.ways]
        }

        pub fn set_partition(&mut self, class: QosId, mask: WayMask) {
            let in_range = mask.0 & WayMask::all(self.cfg.ways).0;
            assert!(in_range != 0, "partition mask selects no valid way");
            self.masks[class.index()] = WayMask(in_range);
        }

        fn set_index(&self, line: LineAddr) -> usize {
            (line.get() as usize) & (self.cfg.sets - 1)
        }

        fn tag(&self, line: LineAddr) -> u64 {
            line.get() >> self.cfg.sets.trailing_zeros()
        }

        pub fn probe(&mut self, line: LineAddr) -> bool {
            self.tick += 1;
            let (si, tag) = (self.set_index(line), self.tag(line));
            let tick = self.tick;
            if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
                w.lru = tick;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        pub fn probe_write(&mut self, line: LineAddr) -> bool {
            let hit = self.probe(line);
            if hit {
                let (si, tag) = (self.set_index(line), self.tag(line));
                if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
                    w.dirty = true;
                }
            }
            hit
        }

        pub fn fill(&mut self, line: LineAddr, class: QosId, dirty: bool) -> Option<Evicted> {
            self.tick += 1;
            let (si, tag) = (self.set_index(line), self.tag(line));
            let tick = self.tick;

            // Already present (e.g. a racing fill): refresh, merge dirty.
            if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
                w.lru = tick;
                w.dirty |= dirty;
                return None;
            }

            let mask = self.masks[class.index()];
            let shift = self.cfg.sets.trailing_zeros();
            let set = self.set_mut(si);

            // Prefer an invalid way within the partition.
            let slot = set
                .iter()
                .enumerate()
                .filter(|&(i, w)| mask.allows(i) && !w.valid)
                .map(|(i, _)| i)
                .next()
                .or_else(|| {
                    // LRU among the partition's valid ways.
                    set.iter()
                        .enumerate()
                        .filter(|&(i, _)| mask.allows(i))
                        .min_by_key(|&(_, w)| w.lru)
                        .map(|(i, _)| i)
                })
                .expect("partition mask guarantees at least one way");

            let victim = &mut set[slot];
            let evicted = if victim.valid {
                Some(Evicted {
                    line: LineAddr::new((victim.tag << shift) | si as u64),
                    owner: victim.owner,
                    dirty: victim.dirty,
                })
            } else {
                None
            };
            *victim = Way { tag, valid: true, dirty, owner: class, lru: tick };
            evicted
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }

        pub fn occupancy(&self, class: QosId) -> usize {
            self.ways.iter().filter(|w| w.valid && w.owner == class).count()
        }
    }
}

use stamped::StampedCache;

/// One oracle case: a geometry, the partition masks of the classes that
/// fill, and how many classes draw fills.
struct Case {
    name: &'static str,
    cfg: CacheConfig,
    masks: &'static [(u8, WayMask)],
    classes: u8,
}

/// Drives both caches with `ops` seeded ops over a line range three times
/// the cache's capacity, so hits, misses, refills and evictions all occur.
fn run(case: &Case, seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1e57_0a11);
    let mut dut = SetAssocCache::new(case.cfg);
    let mut oracle = StampedCache::new(case.cfg);
    for &(class, mask) in case.masks {
        dut.set_partition(QosId::new(class), mask);
        oracle.set_partition(QosId::new(class), mask);
    }
    let lines = 3 * (case.cfg.sets * case.cfg.ways) as u64;
    let name = case.name;
    for op in 0..ops {
        let line = LineAddr::new(rng.gen_range(0..lines));
        let what = match rng.gen_range(0..3) {
            0 => {
                assert_eq!(
                    dut.probe(line),
                    oracle.probe(line),
                    "{name} seed {seed} op {op}: probe"
                );
                "probe"
            }
            1 => {
                let (d, o) = (dut.probe_write(line), oracle.probe_write(line));
                assert_eq!(d, o, "{name} seed {seed} op {op}: probe_write");
                "probe_write"
            }
            _ => {
                let class = QosId::new(rng.gen_range(0..u64::from(case.classes)) as u8);
                let dirty = rng.gen_range(0..2) == 1;
                let (d, o) = (dut.fill(line, class, dirty), oracle.fill(line, class, dirty));
                assert_eq!(d, o, "{name} seed {seed} op {op}: fill");
                "fill"
            }
        };
        assert_eq!(dut.hits(), oracle.hits(), "{name} seed {seed} op {op} ({what}): hits");
        assert_eq!(dut.misses(), oracle.misses(), "{name} seed {seed} op {op} ({what}): misses");
        for c in 0..case.classes {
            let class = QosId::new(c);
            assert_eq!(
                dut.occupancy(class),
                oracle.occupancy(class),
                "{name} seed {seed} op {op} ({what}): occupancy of class {c}"
            );
        }
    }
}

const CASES: [Case; 7] = [
    Case { name: "1x1", cfg: CacheConfig { sets: 1, ways: 1 }, masks: &[], classes: 2 },
    Case { name: "1x16", cfg: CacheConfig { sets: 1, ways: 16 }, masks: &[], classes: 2 },
    Case { name: "4x4", cfg: CacheConfig { sets: 4, ways: 4 }, masks: &[], classes: 3 },
    Case { name: "64x8", cfg: CacheConfig { sets: 64, ways: 8 }, masks: &[], classes: 2 },
    Case {
        name: "8x16 exclusive",
        cfg: CacheConfig { sets: 8, ways: 16 },
        masks: &[(0, WayMask(0x00ff)), (1, WayMask(0xff00))],
        classes: 2,
    },
    Case {
        name: "8x16 overlapping",
        cfg: CacheConfig { sets: 8, ways: 16 },
        masks: &[(0, WayMask(0x03ff)), (1, WayMask(0xffc0)), (2, WayMask(0x0ff0))],
        classes: 3,
    },
    Case {
        name: "1x16 exclusive",
        cfg: CacheConfig { sets: 1, ways: 16 },
        masks: &[(0, WayMask(0x000f)), (1, WayMask(0xfff0))],
        classes: 2,
    },
];

/// The rank layout answers every op exactly as the stamped cache does.
#[test]
fn ranks_match_the_stamped_cache() {
    for case in &CASES {
        for seed in 0..24u64 {
            run(case, seed, 1500);
        }
    }
}
