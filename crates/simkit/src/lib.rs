//! Cycle-stepped simulation utilities shared by every crate in the PABST
//! reproduction.
//!
//! The simulator is deterministic and single-threaded: a system struct owns
//! its components and a `step()` method advances simulated time one cycle at
//! a time. This crate provides the small, well-tested building blocks those
//! components are made of:
//!
//! * [`Cycle`] — the simulated time unit (one CPU clock at 2 GHz by
//!   convention, so 10 µs = 20 000 cycles).
//! * [`queue::BoundedQueue`] — a finite FIFO with explicit backpressure
//!   (the memory controller's ingress port).
//! * [`queue::VarDelayQueue`] — a latency queue whose entries become
//!   visible at per-entry ready cycles, modelling the network paths of a
//!   topology.
//! * [`stats`] — per-epoch averages, exact histograms, per-class epoch
//!   time series and the allocation-error metric behind every figure in
//!   the paper.
//! * [`rng::SimRng`] — a deterministic, explicitly seeded SplitMix64
//!   generator, the only randomness source allowed in the simulator.
//! * [`fault`] — deterministic fault-injection plans: seed-reproducible
//!   injection decisions (SAT drop/delay/corrupt, epoch skew, MC stall,
//!   credit leak) with a JSONL-serializable schema.
//! * [`invariant::InvariantChecker`] — the runtime invariant checker
//!   wired into the SoC epoch loop in every build profile: a
//!   deterministic epoch-boundary law evaluator (credit caps, deadline
//!   monotonicity, queue conservation, liveness) that panics on a
//!   violation by default, or records typed
//!   [`invariant::InvariantViolation`]s for chaos-campaign outcome
//!   classification (docs/RESILIENCE.md).
//! * [`trace`] — epoch-structured observability: typed per-epoch records,
//!   the [`trace::TraceSink`] seam with an in-memory JSONL buffer
//!   ([`trace::MemSink`]), and a dependency-free integer-only serializer.
//! * [`horizon::Horizon`] — min-combining of per-component `next_event`
//!   answers, the primitive behind quiescence-aware cycle skipping
//!   (docs/PERFORMANCE.md).
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::queue::{BoundedQueue, VarDelayQueue};
//!
//! // A 3-cycle link feeding a one-entry port: the port pushes back.
//! let mut link: VarDelayQueue<&'static str> = VarDelayQueue::new();
//! link.push(10 + 3, "a");
//! link.push(11 + 3, "b");
//! let mut port = BoundedQueue::new(1);
//! assert_eq!(link.pop_ready(12), None); // not visible until cycle 13
//! assert_eq!(port.push(link.pop_ready(13).unwrap()), Ok(()));
//! assert_eq!(port.push(link.pop_ready(14).unwrap()), Err("b")); // full
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod horizon;
pub mod invariant;
mod jsonl;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod trace;

/// Simulated time, measured in CPU clock cycles.
///
/// By convention the simulated CPU clock is 2 GHz, so one cycle is 0.5 ns
/// and the paper's 10 µs epoch is 20 000 cycles.
pub type Cycle = u64;

/// Number of bytes in a cache line / DRAM burst throughout the model.
pub const LINE_BYTES: u64 = 64;

/// 64-bit FNV-1a over `bytes`: the one stable, platform-independent hash
/// behind every provenance fingerprint (mechanism hash, fault-plan
/// digest). The empty input hashes to the FNV offset basis.
///
/// # Examples
///
/// ```
/// assert_eq!(pabst_simkit::fnv1a([]), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(pabst_simkit::fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.into_iter().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Converts a byte count over a cycle count into GB/s assuming a 2 GHz clock.
///
/// # Examples
///
/// ```
/// // 64 bytes every 7 cycles at 2 GHz is ~18.3 GB/s.
/// let gbps = pabst_simkit::bytes_per_cycle_to_gbps(64.0 / 7.0);
/// assert!((gbps - 18.28).abs() < 0.1);
/// ```
pub fn bytes_per_cycle_to_gbps(bytes_per_cycle: f64) -> f64 {
    bytes_per_cycle * 2.0 // 2e9 cycles/s * B/cycle = 2e9 B/s = 2 GB/s per B/cycle
}

/// The cases of the former debug-only checker, kept under their original
/// test names and re-expressed against [`invariant::InvariantChecker`]
/// under its default [`invariant::ViolationPolicy::Panic`].
#[cfg(test)]
mod sanitizer {
    mod tests {
        use crate::invariant::{InvariantChecker, InvariantConfig};

        fn checker() -> InvariantChecker {
            InvariantChecker::new(InvariantConfig::default())
        }

        #[test]
        fn le_within_bound_passes() {
            let mut s = checker();
            s.check_le("credit", 3, 10, 10, String::new);
            assert_eq!(s.report().checks_run(), 1);
        }

        #[test]
        #[should_panic(expected = "[bound] credit[0]")]
        fn le_violation_panics() {
            let mut s = checker();
            s.check_le("credit", 0, 11, 10, String::new);
        }

        #[test]
        fn monotone_accepts_nondecreasing() {
            let mut s = checker();
            for v in [1, 1, 2, 5, 5, 9] {
                s.check_monotone("clock", 0, 2, v, String::new);
            }
        }

        #[test]
        fn monotone_lanes_are_independent() {
            let mut s = checker();
            s.check_monotone("clock", 0, 0, 100, String::new);
            s.check_monotone("clock", 0, 1, 5, String::new); // different lane: fine
            s.check_monotone("clock", 1, 0, 5, String::new); // different unit: fine
        }

        #[test]
        #[should_panic(expected = "[monotonicity] clock[0]")]
        fn monotone_regression_panics() {
            let mut s = checker();
            s.check_monotone("clock", 0, 0, 7, String::new);
            s.check_monotone("clock", 0, 0, 6, String::new);
        }

        #[test]
        fn conservation_balances() {
            let mut s = checker();
            s.check_conserved("mc requests", 0, 100, 90, 10, String::new);
        }

        #[test]
        #[should_panic(expected = "[conservation] mc requests[0]")]
        fn conservation_leak_panics() {
            let mut s = checker();
            s.check_conserved("mc requests", 0, 100, 90, 9, String::new);
        }

        #[test]
        #[should_panic(expected = "[bound] sat duty[0]")]
        fn fraction_above_one_panics() {
            let mut s = checker();
            s.check_le("sat duty", 0, 3, 2, String::new);
        }
    }
}
