//! Property-style tests for the PABST mechanism invariants.
//!
//! Each property is exercised over a deterministic seeded sweep of
//! randomized cases (no external property-testing framework, no
//! shrinking): a failure message carries the sweep seed, which replays
//! the exact case.

use pabst_core::arbiter::{VirtualClocks, VirtualDeadline};
use pabst_core::governor::{GovernorKind, MonitorConfig, RateGenerator};
use pabst_core::pacer::Pacer;
use pabst_core::qos::{QosId, ShareTable};
use pabst_simkit::rng::SimRng;

/// M stays within its configured bounds under any SAT sequence.
#[test]
fn monitor_m_always_bounded() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let epochs = 1 + rng.gen_range(0..500);
        let cfg = MonitorConfig::default();
        let mut mon = GovernorKind::Sat.build(cfg);
        for _ in 0..epochs {
            let m = mon.on_epoch(Some(rng.gen_bool(0.5)));
            assert!(m >= cfg.m_min && m <= cfg.m_max, "seed {seed}: M={m} escaped bounds");
            let dm = mon.snapshot().delta_m;
            assert!(dm >= cfg.dm_min && dm <= cfg.dm_max, "seed {seed}: delta_m escaped bounds");
        }
    }
}

/// Replicated monitors never diverge, regardless of input sequence.
#[test]
fn monitor_replicas_lockstep() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5);
        let epochs = 1 + rng.gen_range(0..300);
        let cfg = MonitorConfig::default();
        let mut a = GovernorKind::Sat.build(cfg);
        let mut b = GovernorKind::Sat.build(cfg);
        for _ in 0..epochs {
            let sat = Some(rng.gen_bool(0.5));
            assert_eq!(a.on_epoch(sat), b.on_epoch(sat), "seed {seed}: replicas diverged");
        }
    }
}

/// The pacer never admits more than `elapsed/period + burst` requests
/// over any window when continuously backlogged.
#[test]
fn pacer_rate_bound() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9ace);
        let period = 1 + rng.gen_range(0..199);
        let burst = 1 + rng.gen_range(0..31);
        let cycles = 100 + rng.gen_range(0..19_900);
        let mut p = Pacer::with_burst(period, burst);
        let mut admitted = 0u64;
        for now in 0..cycles {
            if p.try_issue(now) {
                admitted += 1;
            }
        }
        let bound = cycles / period + burst + 1;
        assert!(
            admitted <= bound,
            "seed {seed}: period={period} burst={burst} admitted={admitted} bound={bound}"
        );
    }
}

/// Pacer credit never exceeds the burst window, even after arbitrarily
/// long idle gaps.
#[test]
fn pacer_credit_bounded() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xc4ed);
        let period = 1 + rng.gen_range(0..99);
        let burst = 1 + rng.gen_range(0..31);
        let idle = rng.gen_range(0..1_000_000);
        let mut p = Pacer::with_burst(period, burst);
        let _ = p.try_issue(0);
        assert!(
            p.credit(idle) <= burst * period,
            "seed {seed}: credit after idle={idle} exceeds burst window"
        );
    }
}

/// Refund/charge accounting cannot underflow or make the pacer
/// permanently stuck: after refunds, issuing is at least as permissive.
#[test]
fn pacer_refund_never_hurts() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x3ef0);
        let period = 1 + rng.gen_range(0..99);
        let ops = 1 + rng.gen_range(0..99);
        let mut with_refunds = Pacer::new(period);
        let mut without = Pacer::new(period);
        let mut now = 0u64;
        for _ in 0..ops {
            match rng.gen_range(0..3) {
                0 => {
                    now += period / 2 + 1;
                    let a = with_refunds.try_issue(now);
                    let b = without.try_issue(now);
                    // Refunds only loosen the gate.
                    if b {
                        assert!(a, "seed {seed}: refund tightened the pacer at cycle {now}");
                    }
                }
                1 => with_refunds.on_shared_hit(period, now),
                _ => now += 1,
            }
        }
    }
}

/// Pacer credit never exceeds the burst window across randomized
/// `try_issue` / `on_shared_hit` / `on_writeback` / `set_period`
/// sequences, where every settlement refunds exactly what was charged
/// at issue time.
///
/// The invariant is checked after every clamping operation (`try_issue`,
/// `on_shared_hit`, `set_period`); `on_writeback` deliberately does not
/// clamp (it only moves `c_next` forward), so raw credit may transiently
/// exceed the window until the next lazy clamp — exactly the behavior
/// `Pacer::snapshot` papers over for observers.
#[test]
fn pacer_credit_never_exceeds_window_with_settlements() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5e77);
        let mut period = 1 + rng.gen_range(0..99);
        let burst = 1 + rng.gen_range(0..7);
        let ops = 1 + rng.gen_range(0..199);
        let mut p = Pacer::with_burst(period, burst);
        let mut outstanding: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let check = |p: &Pacer, now: u64, op: &str| {
            if p.period() > 0 {
                assert!(
                    p.credit_at(now) <= p.burst_window(),
                    "seed {seed}: after {op} at cycle {now}, credit {} exceeds window {}",
                    p.credit_at(now),
                    p.burst_window()
                );
            }
        };
        for _ in 0..ops {
            now += rng.gen_range(0..200);
            match rng.gen_range(0..4) {
                0 => {
                    if p.try_issue(now) {
                        outstanding.push(p.period());
                    }
                    check(&p, now, "try_issue");
                }
                1 => {
                    if !outstanding.is_empty() {
                        let i = rng.gen_range(0..outstanding.len() as u64) as usize;
                        let charged = outstanding.swap_remove(i);
                        p.on_shared_hit(charged, now);
                        check(&p, now, "on_shared_hit");
                    }
                }
                2 => {
                    if !outstanding.is_empty() {
                        let i = rng.gen_range(0..outstanding.len() as u64) as usize;
                        let charged = outstanding[i];
                        p.on_writeback(charged);
                    }
                }
                _ => {
                    period = 1 + rng.gen_range(0..99);
                    p.set_period(period, now);
                    check(&p, now, "set_period");
                }
            }
        }
    }
}

/// Virtual-deadline stamps per class never decrease.
#[test]
fn arbiter_stamps_nondecreasing() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xa4b1);
        let classes = 1 + rng.gen_range(0..7) as usize;
        let weights: Vec<u32> = (0..classes).map(|_| 1 + rng.gen_range(0..15) as u32).collect();
        let shares = ShareTable::from_weights(&weights).expect("weights are nonzero");
        let n = shares.classes();
        let mut vc = VirtualClocks::new(&shares, 128);
        let mut last: Vec<Option<VirtualDeadline>> = vec![None; n];
        let picks = 1 + rng.gen_range(0..199);
        for _ in 0..picks {
            let id = QosId::new(rng.gen_range(0..n as u64) as u8);
            let d = vc.stamp(id);
            if let Some(prev) = last[id.index()] {
                assert!(d >= prev, "seed {seed}: stamp regressed for {id}");
            }
            last[id.index()] = Some(d);
            vc.on_picked(d);
        }
    }
}

/// Among continuously backlogged classes the EDF service counts track
/// the weight ratio within 10%, for every weight pair in 1..9.
#[test]
fn arbiter_service_proportional() {
    for w0 in 1u32..9 {
        for w1 in 1u32..9 {
            let shares = ShareTable::from_weights(&[w0, w1]).expect("weights are nonzero");
            let mut vc = VirtualClocks::new(&shares, u64::MAX);
            let ids = [QosId::new(0), QosId::new(1)];
            let mut pending = [vc.stamp(ids[0]), vc.stamp(ids[1])];
            let mut served = [0u64; 2];
            for _ in 0..20_000 {
                // Earliest deadline first, the lower index on a tie.
                let idx = usize::from(pending[1] < pending[0]);
                vc.on_picked(pending[idx]);
                served[idx] += 1;
                pending[idx] = vc.stamp(ids[idx]);
            }
            let observed = served[0] as f64 / served[1] as f64;
            let target = f64::from(w0) / f64::from(w1);
            assert!(
                (observed / target - 1.0).abs() < 0.1,
                "weights {w0}:{w1}: observed={observed} target={target}"
            );
        }
    }
}

/// Rate generator: periods scale monotonically in M, and the per-source
/// period brackets threads x class period (division-last fixed point).
#[test]
fn rategen_monotonic() {
    for seed in 0..128u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x47e9);
        let m1 = 1 + rng.gen_range(0..1999) as u32;
        let m2 = 1 + rng.gen_range(0..1999) as u32;
        let w = 1 + rng.gen_range(0..15) as u32;
        let shares = ShareTable::from_weights(&[w]).expect("weight is nonzero");
        let rg = RateGenerator::default();
        let s = shares.scaled_stride(QosId::new(0), pabst_core::governor::GOVERNOR_STRIDE_SCALE);
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        assert!(
            rg.class_period(lo, s) <= rg.class_period(hi, s),
            "seed {seed}: period not monotone in M"
        );
        let sp = rg.source_period(m1, s, 8);
        let cp = rg.class_period(m1, s);
        assert!(
            sp >= 8 * cp && sp <= 8 * (cp + 1),
            "seed {seed}: source period {sp} outside bracket of class period {cp}"
        );
    }
}
