//! Micro-benchmarks of the PABST components and substrates:
//! per-operation costs of the pacer, arbiter, governor, caches, MSHRs,
//! memory controller, and the full-system cycle step.
//!
//! Uses the in-repo `pabst_bench::timing` harness (harness = false).

use pabst_bench::timing::{bench, bench_batched};
use pabst_cache::{CacheConfig, LineAddr, MshrTable, SetAssocCache};
use pabst_core::arbiter::VirtualClocks;
use pabst_core::governor::{GovernorKind, MonitorConfig};
use pabst_core::pacer::Pacer;
use pabst_core::qos::{QosId, ShareTable};
use pabst_dram::{ArbiterMode, DramConfig, MemController, MemReq};
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::SystemBuilder;

fn bench_pacer() {
    let mut p = Pacer::new(10);
    let mut now = 0u64;
    bench("pacer/try_issue", 1_000_000, || {
        now += 1;
        std::hint::black_box(p.try_issue(now));
    });
}

fn bench_arbiter() {
    let shares = ShareTable::from_weights(&[3, 1]).unwrap();
    let mut vc = VirtualClocks::new(&shares, 128);
    let mut i = 0u8;
    bench("arbiter/stamp_and_pick", 1_000_000, || {
        i = (i + 1) % 2;
        let id = QosId::new(i);
        let d = vc.stamp(id);
        vc.on_picked(d);
    });
}

fn bench_governor() {
    let mut mon = GovernorKind::Sat.build(MonitorConfig::default());
    let mut i = 0u32;
    bench("governor/on_epoch", 1_000_000, || {
        i = i.wrapping_add(1);
        std::hint::black_box(mon.on_epoch(Some(i.is_multiple_of(3))));
    });
}

fn bench_cache() {
    let mut cache = SetAssocCache::new(CacheConfig::with_capacity(256 * 1024, 8));
    let q = QosId::new(0);
    let mut line = 0u64;
    bench("cache/l2_probe_fill", 1_000_000, || {
        line = line.wrapping_add(97);
        let l = LineAddr::new(line & 0xffff);
        if !cache.probe(l) {
            std::hint::black_box(cache.fill(l, q, false));
        }
    });

    let mut m: MshrTable<u64> = MshrTable::new(16);
    let mut mline = 0u64;
    bench("cache/mshr_alloc_complete", 1_000_000, || {
        mline = mline.wrapping_add(1);
        let l = LineAddr::new(mline % 8);
        m.alloc(l, mline);
        std::hint::black_box(m.complete(l));
    });

    // L3-sized tables held one below full, as under a streaming load: each
    // iteration admits the next line and retires the oldest in flight.
    for capacity in [512u64, 2048] {
        let mut m: MshrTable<u64> = MshrTable::new(capacity as usize);
        for l in 0..capacity - 1 {
            m.alloc(LineAddr::new(l), l);
        }
        let mut oldest = 0u64;
        let mut out = Vec::new();
        bench(&format!("cache/l3_mshr_alloc_complete/{capacity}"), 1_000_000, || {
            m.alloc(LineAddr::new(oldest + capacity - 1), oldest);
            out.clear();
            m.complete_into(LineAddr::new(oldest), &mut out);
            oldest += 1;
            std::hint::black_box(out.len());
        });
    }
}

fn bench_dram() {
    let shares = ShareTable::from_weights(&[1]).unwrap();
    let mut mc = MemController::new(DramConfig::default(), ArbiterMode::Edf, &shares, 128);
    let mut now = 0u64;
    let mut line = 0u64;
    let mut done = Vec::new();
    bench("dram/mc_step_saturated", 100_000, || {
        while mc.can_accept() {
            if mc
                .push(MemReq {
                    line: LineAddr::new(line),
                    class: QosId::new(0),
                    is_write: false,
                    token: 0,
                })
                .is_err()
            {
                break;
            }
            line += 1;
        }
        now += 1;
        done.clear();
        mc.step_into(now, &mut done);
        std::hint::black_box(done.len());
    });
}

fn bench_system() {
    use pabst_cpu::{Op, Workload};
    struct Mini {
        n: u64,
    }
    impl Workload for Mini {
        fn next_op(&mut self) -> Op {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                Op::Compute(2)
            } else {
                Op::Load {
                    addr: pabst_cache::Addr::new((self.n * 128) & 0xfff_ffff),
                    id: pabst_cpu::LoadId(self.n),
                    dep: None,
                }
            }
        }
        fn name(&self) -> &str {
            "mini-stream"
        }
    }

    bench_batched(
        "system/one_epoch_small_system",
        || {
            SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
                .class(3, vec![Box::new(Mini { n: 0 }), Box::new(Mini { n: 1 << 32 })])
                .class(1, vec![Box::new(Mini { n: 2 << 32 }), Box::new(Mini { n: 3 << 32 })])
                .build()
                .unwrap()
        },
        |mut sys| {
            sys.run_epochs(1);
            std::hint::black_box(sys.now());
        },
    );
}

fn main() {
    bench_pacer();
    bench_arbiter();
    bench_governor();
    bench_cache();
    bench_dram();
    bench_system();
}
