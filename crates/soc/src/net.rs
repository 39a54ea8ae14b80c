//! The on-chip interconnect as a modelled component, driven by
//! [`Topology`]:
//!
//! * **request network** — tile → L3, per-tile delay `l3_lat` plus
//!   `hop_lat` per mesh hop;
//! * **response network** — L3/MC → tile, per-(source, tile) delay
//!   `resp_lat` plus `hop_lat` per hop;
//! * **staging** — per-(MC, class) queues between the L3 miss path and
//!   each controller's ingress port, `hop_lat` per hop away, drained
//!   round-robin across classes (per-source-fair arbitration) with an
//!   optional per-cycle admission bound (`mc_link_bw`).
//!
//! One distance formula serves every machine: under the uniform
//! topology (`hop_lat = 0`, `mc_link_bw = 0`) every delay table
//! collapses to the fixed `l3_lat` / `resp_lat` constants and the
//! staging delay to zero.
//! [`Interconnect::next_event`] feeds the system's horizon min-combine,
//! keeping cycle skipping sound. Its staged part reads the per-controller
//! earliest-head memo the drain keeps; the network part is computed fresh
//! on each probe, which runs only while every tile is parked.

use std::collections::VecDeque;

use pabst_cache::LineAddr;
use pabst_core::qos::QosId;
use pabst_dram::{MemController, MemReq};
use pabst_simkit::queue::VarDelayQueue;
use pabst_simkit::Cycle;

use crate::config::{SystemConfig, Topology};

/// A message travelling from a tile to the shared L3.
#[derive(Debug, Clone, Copy)]
pub(crate) struct L3Req {
    pub(crate) line: LineAddr,
    pub(crate) class: QosId,
    pub(crate) tile: usize,
    pub(crate) store: bool,
    /// Pure L2 writeback into the L3 (no response needed).
    pub(crate) l2_wb: bool,
}

/// A response returning to a tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileResp {
    pub(crate) line: LineAddr,
    pub(crate) tile: usize,
    /// Serviced by the shared cache (pacer refunds one period).
    pub(crate) l3_hit: bool,
    /// The demand fill evicted a dirty L3 line (pacer charges one period).
    pub(crate) wb_flag: bool,
}

/// The modelled network: request/response paths with distance-derived
/// delays and the per-MC staging/arbitration stage.
///
/// Delay tables are precomputed from the [`Topology`] at build time, so
/// the per-message cost is one table lookup regardless of the model.
#[derive(Debug)]
pub struct Interconnect {
    /// Request network: tile → L3 (delivery cycle from `req_lat`).
    pub(crate) req_net: VarDelayQueue<L3Req>,
    /// Response network: L3/MC → tile.
    pub(crate) resp_net: VarDelayQueue<TileResp>,
    /// Per-(MC, class) staging queues: (ready-at-ingress cycle, request).
    /// Within one queue ready times are non-decreasing (same per-MC hop
    /// delay, pushes in time order), so the front is each queue's horizon.
    pub(crate) staged: Vec<Vec<VecDeque<(Cycle, MemReq)>>>,
    /// Round-robin cursor per MC over the class queues.
    staged_rr: Vec<usize>,
    /// Total requests staged per MC across class queues.
    staged_pending: Vec<usize>,
    /// Earliest ready-at-ingress cycle over each MC's class-queue heads
    /// (`Cycle::MAX` with nothing staged): lowered by `stage`, rescanned
    /// over the heads on a pop. The drain skips a controller whose head
    /// is not yet admissible, and the horizon reads it for the staged part.
    staged_head: Vec<Cycle>,
    /// Staged→ingress admissions per MC per cycle (0 = unbounded).
    link_bw: u64,
    /// Tile → L3 request latency, per tile.
    req_lat: Vec<Cycle>,
    /// L3 → tile response latency (shared-cache hits), per tile.
    l3_resp_lat: Vec<Cycle>,
    /// MC → tile response latency (memory fills), `[mc][tile]`.
    mc_resp_lat: Vec<Vec<Cycle>>,
    /// L3 → MC staging hop latency, per MC.
    mc_req_lat: Vec<Cycle>,
    topo: Topology,
    mcs: usize,
}

impl Interconnect {
    /// Builds the interconnect for `cfg` with `classes` QoS classes,
    /// precomputing every delay table from the topology.
    pub fn new(cfg: &SystemConfig, classes: usize) -> Self {
        let t = cfg.topology;
        let l3 = t.l3_pos();
        let req_lat =
            (0..cfg.cores).map(|i| cfg.l3_lat + t.hop_lat * Topology::hops(t.tile_pos(i), l3));
        let l3_resp_lat =
            (0..cfg.cores).map(|i| cfg.resp_lat + t.hop_lat * Topology::hops(l3, t.tile_pos(i)));
        let mc_resp_lat = (0..cfg.mcs).map(|k| {
            let mc = t.mc_pos(k, cfg.mcs);
            (0..cfg.cores)
                .map(|i| cfg.resp_lat + t.hop_lat * Topology::hops(mc, t.tile_pos(i)))
                .collect()
        });
        let mc_req_lat = (0..cfg.mcs).map(|k| t.hop_lat * Topology::hops(l3, t.mc_pos(k, cfg.mcs)));
        Self {
            req_net: VarDelayQueue::new(),
            resp_net: VarDelayQueue::new(),
            staged: (0..cfg.mcs).map(|_| (0..classes).map(|_| VecDeque::new()).collect()).collect(),
            staged_rr: vec![0; cfg.mcs],
            staged_pending: vec![0; cfg.mcs],
            staged_head: vec![Cycle::MAX; cfg.mcs],
            link_bw: t.mc_link_bw,
            req_lat: req_lat.collect(),
            l3_resp_lat: l3_resp_lat.collect(),
            mc_resp_lat: mc_resp_lat.collect(),
            mc_req_lat: mc_req_lat.collect(),
            topo: t,
            mcs: cfg.mcs,
        }
    }

    /// The home memory controller of `line` under the configured channel
    /// map.
    pub fn channel_of(&self, line: LineAddr) -> usize {
        self.topo.channel_map.channel_of(line, self.mcs)
    }

    /// Injects a tile request toward the L3; it arrives after the tile's
    /// distance delay.
    pub(crate) fn send_request(&mut self, now: Cycle, req: L3Req) {
        self.req_net.push(now + self.req_lat[req.tile], req);
    }

    /// Pops the next request that has reached the L3 by `now`.
    pub(crate) fn pop_request(&mut self, now: Cycle) -> Option<L3Req> {
        self.req_net.pop_ready(now)
    }

    /// True when requests are in flight toward the L3.
    pub fn has_requests(&self) -> bool {
        !self.req_net.is_empty()
    }

    /// Sends a shared-cache (L3) response back to its tile.
    pub(crate) fn send_l3_response(&mut self, now: Cycle, resp: TileResp) {
        self.resp_net.push(now + self.l3_resp_lat[resp.tile], resp);
    }

    /// Sends a memory-fill response from controller `mc` back to its tile.
    pub(crate) fn send_mc_response(&mut self, now: Cycle, mc: usize, resp: TileResp) {
        self.resp_net.push(now + self.mc_resp_lat[mc][resp.tile], resp);
    }

    /// True when responses are in flight toward the tiles.
    pub fn has_responses(&self) -> bool {
        !self.resp_net.is_empty()
    }

    /// Pops the next response that has reached its tile by `now`.
    pub(crate) fn pop_response(&mut self, now: Cycle) -> Option<TileResp> {
        self.resp_net.pop_ready(now)
    }

    /// Stages a memory request toward controller `mc`'s ingress; it
    /// becomes admissible after the L3→MC hop delay.
    pub(crate) fn stage(&mut self, now: Cycle, mc: usize, req: MemReq) {
        let ready = now + self.mc_req_lat[mc];
        self.staged[mc][req.class.index()].push_back((ready, req));
        self.staged_pending[mc] += 1;
        self.staged_head[mc] = self.staged_head[mc].min(ready);
    }

    /// The earliest ready cycle over `queues`' heads, `Cycle::MAX` when
    /// all are empty.
    fn earliest_head(queues: &[VecDeque<(Cycle, MemReq)>]) -> Cycle {
        queues.iter().filter_map(|q| q.front()).map(|&(ready, _)| ready).min().unwrap_or(Cycle::MAX)
    }

    /// Drains staged requests into MC ingress ports, round-robin across
    /// class queues (per-source-fair network arbitration), admitting at
    /// most `mc_link_bw` per controller this cycle (unbounded when 0).
    /// This is where requests "queue elsewhere in the system" when a
    /// controller is oversubscribed — FAIR, but not *prioritized* (the
    /// Fig. 1b effect): a flooding class is pinned to its fair share of
    /// admissions, no more, no less, regardless of the arbiter inside the
    /// controller. Bounded in practice by the L2/L3 MSHR budgets.
    pub(crate) fn drain_into(&mut self, now: Cycle, mcs: &mut [MemController]) {
        for (k, queues) in self.staged.iter_mut().enumerate() {
            let mut budget = if self.link_bw == 0 { u64::MAX } else { self.link_bw };
            while budget > 0 && self.staged_head[k] <= now {
                // An admissible head meets a full ingress: the retry is
                // refused, and the round-robin cursor stays where it is.
                if !mcs[k].can_accept() {
                    mcs[k].refuse();
                    break;
                }
                let n = queues.len();
                let c = (0..n)
                    .map(|off| (self.staged_rr[k] + off) % n)
                    .find(|&c| queues[c].front().is_some_and(|&(ready, _)| ready <= now))
                    .expect("the head memo promises an admissible head");
                let (_, req) = queues[c].pop_front().expect("found non-empty");
                mcs[k].push(req).expect("the ingress had room");
                self.staged_pending[k] -= 1;
                self.staged_head[k] = Self::earliest_head(queues);
                self.staged_rr[k] = (c + 1) % n;
                budget -= 1;
            }
        }
    }

    /// Requests staged toward controller `k` (all classes).
    pub fn staged_pending(&self, k: usize) -> usize {
        self.staged_pending[k]
    }

    /// True when any controller has staged requests.
    pub fn any_staged(&self) -> bool {
        self.staged_pending.iter().any(|&p| p > 0)
    }

    /// Iterates `(mc, counted, actual)` staging conservation pairs for the
    /// epoch invariant checker: the pending counter must agree with the
    /// class-queue contents.
    pub fn staged_conservation(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.staged.iter().enumerate().map(|(k, queues)| {
            let actual: usize = queues.iter().map(VecDeque::len).sum();
            (k, self.staged_pending[k] as u64, actual as u64)
        })
    }

    /// Iterates `(mc, memo, actual)` earliest-head pairs for the epoch
    /// invariant checker: the memo that gates the drain must equal the
    /// earliest ready cycle over the class-queue heads (`u64::MAX` when
    /// nothing is staged).
    pub(crate) fn staged_heads(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.staged
            .iter()
            .enumerate()
            .map(|(k, queues)| (k, self.staged_head[k], Self::earliest_head(queues)))
    }

    /// The interconnect's event horizon: the earliest cycle a message can
    /// be delivered or a staged request admitted. A staged head already
    /// past its hop delay acts *every* cycle (each drain attempt can
    /// mutate an ingress reject counter), so it contributes `now`; the
    /// per-controller head memo answers without walking the class queues.
    ///
    /// No `accrue_skip` counterpart exists: every counter here mutates
    /// on queue activity, never once-per-cycle, so a dead window leaves
    /// the interconnect bit-identical (batch-sampling rule satisfied
    /// vacuously — see docs/PERFORMANCE.md).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;
        let mut h = Horizon::new();
        h.merge(self.req_net.next_ready());
        h.merge(self.resp_net.next_ready());
        for &head in &self.staged_head {
            if head != Cycle::MAX {
                h.add(head.max(now));
            }
        }
        h.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelMap;
    use pabst_core::qos::ShareTable;
    use pabst_dram::ArbiterMode;
    use pabst_simkit::rng::SimRng;

    fn req(line: u64, class: usize) -> MemReq {
        MemReq {
            line: LineAddr::new(line),
            class: QosId::new(class as u8),
            is_write: false,
            token: 0,
        }
    }

    fn l3req(tile: usize) -> L3Req {
        L3Req { line: LineAddr::new(1), class: QosId::new(0), tile, store: false, l2_wb: false }
    }

    #[test]
    fn uniform_model_reproduces_the_fixed_latency_pipes() {
        let cfg = SystemConfig::baseline_32core();
        let mut net = Interconnect::new(&cfg, 2);
        net.send_request(100, l3req(0));
        net.send_request(100, l3req(31));
        assert!(net.pop_request(100 + cfg.l3_lat - 1).is_none());
        assert_eq!(net.pop_request(100 + cfg.l3_lat).map(|r| r.tile), Some(0));
        assert_eq!(net.pop_request(100 + cfg.l3_lat).map(|r| r.tile), Some(31));
        let resp = TileResp { line: LineAddr::new(1), tile: 5, l3_hit: true, wb_flag: false };
        net.send_l3_response(200, resp);
        net.send_mc_response(200, 3, TileResp { tile: 9, ..resp });
        assert!(net.pop_response(200 + cfg.resp_lat - 1).is_none());
        assert_eq!(net.pop_response(200 + cfg.resp_lat).map(|r| r.tile), Some(5));
        assert_eq!(net.pop_response(200 + cfg.resp_lat).map(|r| r.tile), Some(9));
        // Staging is free and same-cycle admissible.
        net.stage(7, 0, req(1, 0));
        assert_eq!(net.next_event(7), Some(7));
    }

    #[test]
    fn mesh_model_delays_scale_with_distance() {
        let cfg = SystemConfig::mesh_64();
        let t = cfg.topology;
        let mut net = Interconnect::new(&cfg, 1);
        // Tile 0 (corner) is farther from the center L3 than tile 27
        // (adjacent to it), so its request arrives later.
        let far = Topology::hops(t.tile_pos(0), t.l3_pos());
        let near = Topology::hops(t.tile_pos(27), t.l3_pos());
        assert!(far > near, "corner must be farther than center-adjacent");
        net.send_request(0, l3req(27));
        net.send_request(0, l3req(0));
        let first = net.req_net.next_ready().expect("two in flight");
        assert_eq!(first, cfg.l3_lat + t.hop_lat * near);
        assert_eq!(net.pop_request(first).map(|r| r.tile), Some(27), "nearer tile lands first");
        let second = net.req_net.next_ready().unwrap();
        assert_eq!(second, cfg.l3_lat + t.hop_lat * far);
        assert_eq!(net.pop_request(second).map(|r| r.tile), Some(0));
        // Staging pays the L3→MC hop before it becomes admissible.
        net.stage(0, 0, req(1, 0));
        let hop = t.hop_lat * Topology::hops(t.l3_pos(), t.mc_pos(0, cfg.mcs));
        assert!(hop > 0);
        assert_eq!(net.next_event(0), Some(hop), "staged head waits out its hop");
        assert_eq!(net.next_event(hop), Some(hop), "then acts every cycle");
    }

    #[test]
    fn drain_is_round_robin_fair_and_bandwidth_bounded() {
        let mut cfg = SystemConfig::baseline_32core();
        cfg.mcs = 1;
        cfg.topology.mc_link_bw = 2;
        let mut net = Interconnect::new(&cfg, 2);
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut mcs =
            vec![MemController::new(cfg.dram, ArbiterMode::Fcfs, &shares, cfg.arbiter_slack)];
        // Class 0 floods; class 1 stages two requests.
        for i in 0..6 {
            net.stage(0, 0, req(i, 0));
        }
        for i in 0..2 {
            net.stage(0, 0, req(100 + i, 1));
        }
        net.drain_into(0, &mut mcs);
        // Two admissions (the link bound), alternating classes.
        assert_eq!(net.staged_pending(0), 6, "link admits 2/cycle");
        assert_eq!(mcs[0].pending(), 2);
        net.drain_into(1, &mut mcs);
        assert_eq!(net.staged_pending(0), 4);
        // After two rounds each class got two admissions (fairness), even
        // though class 0 staged three times as many.
        assert_eq!(mcs[0].pending(), 4);
    }

    /// The drain as it was before the head memo, verbatim: every cycle it
    /// walks each controller with staged work round-robin and offers the
    /// first admissible head, so a full ingress refuses (and counts) one
    /// retry per cycle.
    fn retry_every_cycle_drain(net: &mut Interconnect, now: Cycle, mcs: &mut [MemController]) {
        for (k, queues) in net.staged.iter_mut().enumerate() {
            if net.staged_pending[k] == 0 {
                continue;
            }
            let n = queues.len();
            let mut budget = if net.link_bw == 0 { u64::MAX } else { net.link_bw };
            'mc: while budget > 0 {
                let mut progressed = false;
                for off in 0..n {
                    let c = (net.staged_rr[k] + off) % n;
                    if let Some(&(ready, req)) = queues[c].front() {
                        if ready > now {
                            continue; // still on the L3→MC hop
                        }
                        if mcs[k].push(req).is_err() {
                            break 'mc; // ingress full (reject counted)
                        }
                        queues[c].pop_front();
                        net.staged_pending[k] -= 1;
                        net.staged_rr[k] = (c + 1) % n;
                        budget -= 1;
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
    }

    /// Runs the memo drain and the retry-every-cycle drain side by side on
    /// one seeded staging stream and compares the two machines after every
    /// cycle: each controller's snapshot (`ingress_rejects`, accepted and
    /// queue depths) and completions, the staged queues, `staged_rr` and
    /// `staged_pending`, and the head memo against the class heads. Every
    /// eighth cycle the controllers are compared in full, which covers the
    /// ingress contents in admission order and the acceptance number each
    /// queued request was given.
    fn drain_matches_the_retry_oracle(mut cfg: SystemConfig, ingress: usize, link_bw: u64) {
        const CLASSES: usize = 3;
        cfg.mcs = 4;
        cfg.dram.ingress_cap = ingress;
        cfg.topology.mc_link_bw = link_bw;
        let case = format!("hop_lat {} ingress {ingress} link_bw {link_bw}", cfg.topology.hop_lat);
        let shares = ShareTable::from_weights(&[3, 2, 1]).unwrap();
        let build = || -> (Interconnect, Vec<MemController>) {
            let mcs = (0..cfg.mcs)
                .map(|_| MemController::new(cfg.dram, ArbiterMode::Edf, &shares, 128))
                .collect();
            (Interconnect::new(&cfg, CLASSES), mcs)
        };
        let (mut memo, mut memo_mcs) = build();
        let (mut oracle, mut oracle_mcs) = build();
        let mut rng = SimRng::seed_from_u64(0xd2a1_0000 ^ (ingress as u64) << 8 ^ link_bw);
        let (mut done_memo, mut done_oracle) = (Vec::new(), Vec::new());
        let mut token = 0;
        for now in 0..2_000 {
            done_memo.clear();
            done_oracle.clear();
            for (a, b) in memo_mcs.iter_mut().zip(&mut oracle_mcs) {
                a.step_into(now, &mut done_memo);
                b.step_into(now, &mut done_oracle);
            }
            assert_eq!(done_memo, done_oracle, "{case}: completions at cycle {now}");
            memo.drain_into(now, &mut memo_mcs);
            retry_every_cycle_drain(&mut oracle, now, &mut oracle_mcs);
            for (k, (a, b)) in memo_mcs.iter().zip(&oracle_mcs).enumerate() {
                assert_eq!(a.snapshot(), b.snapshot(), "{case}: mc {k} at cycle {now}");
            }
            if now % 8 == 0 {
                assert_eq!(
                    format!("{memo_mcs:?}"),
                    format!("{oracle_mcs:?}"),
                    "{case}: controllers at cycle {now}"
                );
            }
            assert_eq!(format!("{:?}", memo.staged), format!("{:?}", oracle.staged), "{case}");
            assert_eq!(memo.staged_rr, oracle.staged_rr, "{case}: staged_rr at cycle {now}");
            assert_eq!(memo.staged_pending, oracle.staged_pending, "{case}: at cycle {now}");
            for (k, m, head) in memo.staged_heads() {
                assert_eq!(m, head, "{case}: head memo of mc {k} at cycle {now}");
            }
            // Bursty staging: quiet stretches let the ingress drain, bursts
            // overfill it, and a skewed class mix keeps the round-robin
            // cursor moving.
            let burst = if (now / 200) % 3 == 0 { 0 } else { rng.gen_range(0..5) };
            for _ in 0..burst {
                token += 1;
                let class = [0, 0, 0, 1, 2][rng.gen_range(0..5) as usize];
                let req = MemReq {
                    line: LineAddr::new(rng.gen_range(0..1 << 20)),
                    class: QosId::new(class),
                    is_write: rng.gen_bool(0.2),
                    token,
                };
                let mc = rng.gen_range(0..cfg.mcs as u64) as usize;
                memo.stage(now, mc, req);
                oracle.stage(now, mc, req);
            }
        }
        let rejects: u64 = memo_mcs.iter().map(MemController::ingress_rejects).sum();
        assert!(rejects > 0, "{case}: the stream never filled an ingress");
    }

    #[test]
    fn drain_matches_the_retry_every_cycle_oracle() {
        for cfg in [SystemConfig::baseline_32core(), SystemConfig::mesh_64()] {
            for ingress in [1, 4] {
                for link_bw in [0, 1, 2] {
                    drain_matches_the_retry_oracle(cfg, ingress, link_bw);
                }
            }
        }
    }

    #[test]
    fn channel_map_routes_through_the_topology() {
        let mut cfg = SystemConfig::baseline_32core();
        cfg.mcs = 16;
        let legacy = Interconnect::new(&cfg, 1);
        cfg.topology.channel_map = ChannelMap::DoubleFold;
        let spread = Interconnect::new(&cfg, 1);
        let line = LineAddr::new((1 << 21) * 3);
        assert_eq!(legacy.channel_of(line), line.interleave(16));
        assert_eq!(spread.channel_of(line), line.interleave_spread(16));
    }
}
