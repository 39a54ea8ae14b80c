//! Pins the controller's exact schedule under every arbiter mode.
//!
//! A seeded mixed read/write load drives one controller per
//! [`ArbiterMode`] cycle by cycle. The load has three parts:
//!
//! * a saturating random read stream from class 0 over every bank;
//! * a one-bank hotspot from class 1: reads to bank 0 alternating
//!   between two rows (row hits against conflicts), plus a slow trickle
//!   of writes to bank 0 that sits below the write-drain high watermark
//!   for tens of thousands of cycles while reads keep the bus busy, so
//!   those writes pass the 10,000-cycle age cap before a drain serves
//!   them;
//! * write bursts from class 0 that push the write queue across the
//!   `wr_high`/`wr_low` watermarks.
//!
//! The test hashes (FNV-1a) the `(cycle, token, is_write)` completion
//! sequence and every `McStats` counter, and separately every
//! `next_event` answer. Any change to which request issues when, or to
//! when the controller says it next has work, moves a digest. A pure
//! host-speed change to the controller must leave all of them as they
//! are.

use pabst_cache::LineAddr;
use pabst_core::qos::{QosId, ShareTable};
use pabst_dram::controller::McStats;
use pabst_dram::{ArbiterMode, DramConfig, MemController, MemReq};
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

fn hash_stats(h: &mut Fnv, s: &McStats) {
    for v in s.bytes {
        h.u64(v);
    }
    for v in [s.reads, s.writes, s.bus_busy, s.row_hits, s.row_misses] {
        h.u64(v);
    }
    for v in s.read_lat_sum.iter().chain(&s.read_lat_n) {
        h.u64(*v);
    }
}

/// Cycles of offered load; the controller then drains to empty.
const LOAD_CYCLES: u64 = 120_000;

/// Runs the pinned load through one controller; returns the schedule
/// digest (completions, then stats) and the horizon digest.
fn run(mode: ArbiterMode) -> (u64, u64) {
    let cfg = DramConfig::default();
    let shares = ShareTable::from_weights(&[3, 1]).expect("weights are nonzero");
    let mut mc = MemController::new(cfg, mode, &shares, 128);
    let mut rng = SimRng::seed_from_u64(0x5c4e_d01e);
    let bank0_row = |row: u64| LineAddr::new(row * cfg.lines_per_row * cfg.banks as u64);

    // Each source holds one request and retries it until accepted.
    let mut held: [Option<MemReq>; 3] = [None; 3];
    let mut token = 0u64;
    let mut sched = Fnv::new();
    let mut horizon = Fnv::new();
    let mut done = Vec::new();
    let mut now = 0u64;
    while now < LOAD_CYCLES || mc.pending() > 0 || held.iter().any(Option::is_some) {
        assert!(now < 10 * LOAD_CYCLES, "{mode:?}: controller failed to drain");
        if now < LOAD_CYCLES {
            let mut fresh = |line: LineAddr, class: u8, is_write: bool| {
                token += 1;
                Some(MemReq { line, class: QosId::new(class), is_write, token })
            };
            // Source 0: saturating class-0 reads, with a write burst for
            // the first 600 cycles of every 16,384.
            if held[0].is_none() {
                let burst = now % 16_384 < 600;
                held[0] = fresh(LineAddr::new(rng.gen_range(0..1 << 24)), 0, burst);
            }
            // Source 1: class-1 hotspot reads on bank 0, two rows.
            if held[1].is_none() && rng.gen_bool(0.3) {
                held[1] = fresh(bank0_row(rng.gen_range(0..2)), 1, false);
            }
            // Source 2: class-1 write trickle on bank 0, a new row each.
            if held[2].is_none() && now.is_multiple_of(1_500) {
                held[2] = fresh(bank0_row(2 + now / 1_500), 1, true);
            }
        }
        for slot in &mut held {
            if let Some(req) = slot.take() {
                *slot = mc.push(req).err();
            }
        }
        horizon.u64(mc.next_event(now).map_or(u64::MAX, |at| at - now));
        done.clear();
        mc.step_into(now, &mut done);
        for c in &done {
            sched.u64(now);
            sched.u64(c.token);
            sched.u64(u64::from(c.is_write));
        }
        now += 1;
    }
    hash_stats(&mut sched, mc.stats());
    sched.u64(mc.accepted());
    sched.u64(mc.ingress_rejects());
    (sched.0, horizon.0)
}

#[test]
fn schedule_is_pinned_for_every_arbiter_mode() {
    let expected: [(ArbiterMode, u64, u64); 5] = [
        (ArbiterMode::Fcfs, 0x4106_0416_fb09_af19, 0x6164_f94b_25e6_3825),
        (ArbiterMode::Edf, 0x9576_acca_5fe1_0021, 0x8e6b_6bdc_1817_20a2),
        (ArbiterMode::Fqm, 0x87a0_3e57_a038_b5e7, 0x1505_c0dc_a87f_e0a7),
        (ArbiterMode::PerBank, 0xa3eb_f460_0aab_b6e7, 0xb4af_d4c1_04af_b78c),
        (ArbiterMode::Dpq, 0x925b_b527_55a0_4044, 0xbcf9_3156_7a3a_3825),
    ];
    assert_eq!(ArbiterMode::ALL.len(), expected.len(), "pin every mode");
    let got: Vec<(ArbiterMode, u64, u64)> = expected
        .iter()
        .map(|&(mode, _, _)| {
            let (s, h) = run(mode);
            (mode, s, h)
        })
        .collect();
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "schedule digest moved (got {got:#x?})");
    }
}
