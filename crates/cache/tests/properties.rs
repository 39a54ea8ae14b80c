//! Property-style tests: the set-associative cache against a reference
//! model, and partition isolation invariants.
//!
//! Each property runs over a deterministic seeded sweep of randomized
//! access streams; a failure message carries the sweep seed, which
//! replays the exact case.

use std::collections::BTreeSet;

use pabst_cache::{CacheConfig, LineAddr, MshrOutcome, MshrTable, SetAssocCache, WayMask};
use pabst_core::qos::QosId;
use pabst_simkit::rng::SimRng;

/// A trivially correct LRU set-associative reference: per set, a Vec kept
/// in recency order.
struct RefCache {
    sets: usize,
    ways: usize,
    data: Vec<Vec<u64>>, // most recent last
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self { sets, ways, data: vec![Vec::new(); sets] }
    }

    fn access(&mut self, line: u64) -> bool {
        let si = (line as usize) % self.sets;
        let set = &mut self.data[si];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            let t = set.remove(pos);
            set.push(t);
            true
        } else {
            if set.len() == self.ways {
                set.remove(0);
            }
            set.push(line);
            false
        }
    }
}

/// probe+fill behaves exactly like the reference LRU on arbitrary access
/// streams (single class, no partitioning).
#[test]
fn lru_matches_reference() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x1c6e);
        let mut c = SetAssocCache::new(CacheConfig { sets: 4, ways: 4 });
        let mut r = RefCache::new(4, 4);
        let q = QosId::new(0);
        let accesses = 1 + rng.gen_range(0..500);
        for _ in 0..accesses {
            let a = rng.gen_range(0..64);
            let line = LineAddr::new(a);
            let model_hit = r.access(a);
            let dut_hit = c.probe(line);
            if !dut_hit {
                c.fill(line, q, false);
            }
            assert_eq!(dut_hit, model_hit, "seed {seed}: divergence at line {a}");
        }
    }
}

/// With exclusive partitions, a class's fills never evict another class's
/// lines.
#[test]
fn partitions_never_cross_evict() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9a57);
        let mut c = SetAssocCache::new(CacheConfig { sets: 8, ways: 8 });
        c.set_partition(QosId::new(0), WayMask::range(0, 4));
        c.set_partition(QosId::new(1), WayMask::range(4, 4));
        let accesses = 1 + rng.gen_range(0..500);
        for _ in 0..accesses {
            let a = rng.gen_range(0..256);
            let cls = rng.gen_range(0..2) as u8;
            let class = QosId::new(cls);
            // Give classes disjoint address spaces, as the experiments do.
            let line = LineAddr::new(a + u64::from(cls) * (1 << 20));
            if !c.probe(line) {
                if let Some(ev) = c.fill(line, class, false) {
                    assert_eq!(ev.owner, class, "seed {seed}: cross-partition eviction");
                }
            }
        }
    }
}

/// A cache never holds more lines for a class than its partition allows
/// (ways * sets).
#[test]
fn occupancy_bounded_by_partition() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0cc0);
        let mut c = SetAssocCache::new(CacheConfig { sets: 4, ways: 8 });
        let q0 = QosId::new(0);
        c.set_partition(q0, WayMask::range(0, 2));
        let accesses = 1 + rng.gen_range(0..600);
        for _ in 0..accesses {
            let line = LineAddr::new(rng.gen_range(0..1024));
            if !c.probe(line) {
                c.fill(line, q0, false);
            }
            assert!(c.occupancy(q0) <= 2 * 4, "seed {seed}: partition overflow");
        }
    }
}

/// MSHR: waiters are returned exactly once, in merge order, and occupancy
/// never exceeds capacity.
#[test]
fn mshr_waiters_conserved() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x35a8);
        let mut m: MshrTable<u64> = MshrTable::new(4);
        let mut next_waiter = 0u64;
        let mut outstanding: BTreeSet<u64> = BTreeSet::new();
        let ops = 1 + rng.gen_range(0..300);
        for _ in 0..ops {
            let line = LineAddr::new(rng.gen_range(0..8));
            if rng.gen_bool(0.5) {
                match m.alloc(line, next_waiter) {
                    MshrOutcome::Primary | MshrOutcome::Secondary => {
                        outstanding.insert(next_waiter);
                        next_waiter += 1;
                    }
                    MshrOutcome::Full => {}
                }
            } else {
                for w in m.complete(line) {
                    assert!(outstanding.remove(&w), "seed {seed}: waiter {w} returned twice");
                }
            }
            assert!(m.len() <= m.capacity(), "seed {seed}: MSHR overflow");
        }
        // Drain: every allocated waiter comes back exactly once.
        for l in 0..8 {
            for w in m.complete(LineAddr::new(l)) {
                assert!(outstanding.remove(&w), "seed {seed}: waiter {w} returned twice");
            }
        }
        assert!(outstanding.is_empty(), "seed {seed}: lost waiters: {outstanding:?}");
    }
}

/// The linear-scan MSHR table the indexed one replaced, verbatim but for
/// the pool: the reference the line index must match step for step.
struct LinearMshr<W> {
    entries: Vec<(LineAddr, Vec<W>)>,
    capacity: usize,
    peak: usize,
}

impl<W> LinearMshr<W> {
    fn new(capacity: usize) -> Self {
        Self { entries: Vec::with_capacity(capacity), capacity, peak: 0 }
    }

    fn alloc(&mut self, line: LineAddr, waiter: W) -> MshrOutcome {
        if let Some((_, waiters)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            waiters.push(waiter);
            return MshrOutcome::Secondary;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.push((line, vec![waiter]));
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Primary
    }

    fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) {
        let Some(i) = self.entries.iter().position(|(l, _)| *l == line) else { return };
        let (_, mut waiters) = self.entries.swap_remove(i);
        out.append(&mut waiters);
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }
}

/// The line-indexed MSHR table matches the linear-scan reference on
/// every step: outcomes, per-line waiter order, `len`, `is_full`,
/// `peak`, and `contains`. Each table is held at or near full over a pool
/// of lines only a quarter larger than its capacity, so most slots' probe
/// runs are occupied, chains form, and deletions shift entries back,
/// across the end of the slot table too. Even seeds draw the pool as
/// consecutive lines (a streaming pattern), odd seeds as scattered ones.
#[test]
fn indexed_mshr_matches_linear_reference() {
    for capacity in [1usize, 16, 512, 2048] {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed ^ 0x15d7 ^ ((capacity as u64) << 20));
            let mut dut: MshrTable<u64> = MshrTable::new(capacity);
            let mut reference: LinearMshr<u64> = LinearMshr::new(capacity);
            let base = rng.gen_range(0..1 << 40);
            let pool: Vec<LineAddr> = (0..capacity as u64 + 1 + capacity as u64 / 4)
                .map(|i| {
                    LineAddr::new(if seed % 2 == 0 { base + i } else { rng.gen_range(0..1 << 48) })
                })
                .collect();
            let pick = |rng: &mut SimRng| pool[rng.gen_range(0..pool.len() as u64) as usize];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for step in 0..(20 * capacity + 200) {
                let line = pick(&mut rng);
                // Allocate more often than complete while below full, so
                // the table climbs to full and then hovers there.
                let alloc_bias = if reference.is_full() { 0.5 } else { 0.7 };
                if rng.gen_bool(alloc_bias) {
                    let w = step as u64;
                    assert_eq!(
                        dut.alloc(line, w),
                        reference.alloc(line, w),
                        "capacity {capacity} seed {seed} step {step}: alloc of {line:?}"
                    );
                } else {
                    got.clear();
                    want.clear();
                    dut.complete_into(line, &mut got);
                    reference.complete_into(line, &mut want);
                    assert_eq!(
                        got, want,
                        "capacity {capacity} seed {seed} step {step}: waiters of {line:?}"
                    );
                }
                let probe = pick(&mut rng);
                assert_eq!(
                    dut.contains(probe),
                    reference.contains(probe),
                    "capacity {capacity} seed {seed} step {step}: contains {probe:?}"
                );
                assert_eq!(dut.len(), reference.len(), "capacity {capacity} seed {seed}");
                assert_eq!(dut.is_full(), reference.is_full(), "capacity {capacity} seed {seed}");
                assert_eq!(dut.peak(), reference.peak, "capacity {capacity} seed {seed}");
            }
            // Drain: every line gives back the same waiters.
            for &line in &pool {
                want.clear();
                reference.complete_into(line, &mut want);
                assert_eq!(dut.complete(line), want, "capacity {capacity} seed {seed}: drain");
            }
            assert!(dut.is_empty(), "capacity {capacity} seed {seed}: drained table not empty");
        }
    }
}
