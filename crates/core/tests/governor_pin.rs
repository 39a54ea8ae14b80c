//! Pins the source governor's exact state sequence for every kind.
//!
//! Seeded streams of fresh saturated (`Some(true)`), fresh unsaturated
//! (`Some(false)`) and lost (`None`) SAT observations drive one governor
//! per [`GovernorKind`] under three configurations. The streams mix runs
//! of fresh samples at varying saturation bias with runs of lost
//! broadcasts, and many of those runs outlast `staleness_k`, so the
//! hold, the degraded decay toward `degraded_m` and the recovery on the
//! next fresh sample are all exercised.
//!
//! The test hashes (FNV-1a) the multiplier each epoch returns, every
//! field of the epoch's `MonitorSnapshot` and the running degraded-epoch
//! count. Any change to how either law or the shared fail-safe moves `M`
//! moves a digest. A refactor of the governor that keeps its behaviour
//! must leave all of them as they are.

use pabst_core::governor::{DeltaDir, GovernorKind, MonitorConfig, MonitorSnapshot, RateDir};
use pabst_simkit::rng::SimRng;

/// 64-bit FNV-1a, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_snapshot(h: &mut Fnv, s: &MonitorSnapshot) {
    h.u64(u64::from(s.m));
    h.u64(u64::from(s.delta_m));
    h.u64(u64::from(s.steady_epochs));
    h.u64(u64::from(s.rate_dir == RateDir::Up));
    h.u64(u64::from(s.delta_dir == DeltaDir::Up));
    h.u64(s.epochs);
    h.u64(u64::from(s.stale_epochs));
    h.u64(u64::from(s.degraded));
}

/// Epochs per stream.
const EPOCHS: usize = 4_000;

/// The configurations each kind is pinned under: the default, one that
/// starts above the degraded floor (the decay must hold, not drop), and
/// one with a one-epoch staleness window and a narrow `M` range.
fn configs() -> [MonitorConfig; 3] {
    let d = MonitorConfig::default();
    [
        d,
        MonitorConfig { m_init: 1 << 20, degraded_m: 1 << 16, ..d },
        MonitorConfig {
            m_init: 300,
            m_min: 16,
            m_max: 4_096,
            dm_max: 64,
            staleness_k: 1,
            degraded_m: 2_048,
            ..d
        },
    ]
}

/// Drives one governor of `kind` under `cfg` through the stream seeded
/// by `seed`; returns the digest.
fn run(kind: GovernorKind, cfg: MonitorConfig, seed: u64) -> u64 {
    let mut g = kind.build(cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    let mut epoch = 0;
    while epoch < EPOCHS {
        // A run of lost broadcasts, 1..=12 long: most of them pass the
        // default `staleness_k` of 4.
        let lost = rng.gen_bool(0.3);
        let len = if lost { 1 + rng.gen_range(0..12) } else { 1 + rng.gen_range(0..40) };
        // Fresh runs lean saturated, unsaturated or noisy.
        let bias = [0.1, 0.5, 0.9][rng.gen_range(0..3) as usize];
        for _ in 0..len {
            let sat = if lost { None } else { Some(rng.gen_bool(bias)) };
            h.u64(u64::from(g.on_epoch(sat)));
            hash_snapshot(&mut h, &g.snapshot());
            h.u64(g.degraded_epochs());
            epoch += 1;
        }
    }
    assert!(g.degraded_epochs() > 0, "{kind:?} seed {seed:#x}: the stream never degraded");
    h.0
}

#[test]
fn governor_state_is_pinned_for_every_kind() {
    let expected: [(GovernorKind, [u64; 3]); 2] = [
        (GovernorKind::Sat, [0x51f7_4c48_2b16_bbd1, 0x9e22_a5cf_6e3d_e9da, 0x8ca6_502b_8005_4745]),
        (
            GovernorKind::LmsAr,
            [0xb290_9e0e_2730_1dde, 0xee45_ce83_d47b_3e55, 0x4c2a_a30e_156f_f6cd],
        ),
    ];
    let got: Vec<(GovernorKind, [u64; 3])> = expected
        .iter()
        .map(|&(kind, _)| {
            let cfgs = configs();
            let digests = [0, 1, 2].map(|i| run(kind, cfgs[i], 0x6070_0000 + i as u64));
            (kind, digests)
        })
        .collect();
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "governor digest moved (got {got:#x?})");
    }
}
