//! The PABST bandwidth QoS mechanism (Hower, Cain & Waldspurger, HPCA 2017).
//!
//! PABST — *Proportionally Allocated Bandwidth at the Source and Target* —
//! partitions memory bandwidth among QoS classes using two cooperating
//! hardware components:
//!
//! * **Source regulation** — a [`governor::Governor`] feedback loop
//!   computes a system-wide multiplier `M` from a binary memory-controller
//!   saturation signal each epoch; a [`governor::RateGenerator`] scales `M`
//!   by a class's [`qos::Stride`] into a per-source request period; and a
//!   [`pacer::Pacer`] at each private L2 enforces that period, with credit
//!   for bursts and corrections for shared-cache hits and writebacks.
//!   [`governor::GovernorKind`] picks the law the governor applies to a
//!   fresh sample: the paper's SAT ladder or the prediction-driven
//!   [`lms`] alternative (LMS-AR).
//! * **Target regulation** — a [`arbiter::VirtualClocks`] earliest-virtual-
//!   deadline arbiter at each memory controller prioritizes queued reads of
//!   classes that are behind their proportional share, with a bounded slack
//!   so idleness cannot bank unlimited credit.
//!
//! The saturation signal itself comes from a [`satmon::SatMonitor`] that
//! averages front-end read-queue occupancy over each epoch.
//!
//! This crate is *simulator-agnostic*: it contains only the mechanism
//! logic, driven by plain integer inputs, so it can be embedded in any
//! timing model (the `pabst-soc` crate embeds it in a 32-core tiled SoC).
//!
//! # Quick start
//!
//! ```
//! use pabst_core::qos::{QosId, ShareTable};
//! use pabst_core::governor::{
//!     GovernorKind, MonitorConfig, RateGenerator, GOVERNOR_STRIDE_SCALE,
//! };
//! use pabst_core::pacer::Pacer;
//!
//! // Two classes with a 3:1 bandwidth split.
//! let shares = ShareTable::from_weights(&[3, 1])?;
//! let mut monitor = GovernorKind::Sat.build(MonitorConfig::default());
//! let rategen = RateGenerator::default();
//!
//! // One epoch elapses and the memory controllers were saturated:
//! let m = monitor.on_epoch(Some(true));
//! let class0 = QosId::new(0);
//! let stride = shares.scaled_stride(class0, GOVERNOR_STRIDE_SCALE);
//! let period = rategen.source_period(m, stride, 1);
//! let mut pacer = Pacer::new(period);
//! assert!(pacer.try_issue(0)); // first request always free
//! # Ok::<(), pabst_core::qos::ShareError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod governor;
pub mod lms;
pub mod pacer;
pub mod qos;
pub mod satmon;
pub mod threads;

pub use pabst_simkit::Cycle;
