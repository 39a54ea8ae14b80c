//! DDR DRAM and memory-controller model for the PABST reproduction.
//!
//! The controller follows the paper's baseline (§III-C): a **front-end**
//! accepts requests from the SoC network into separate read and write
//! queues; a **back-end** schedules accesses onto DRAM banks. Two PABST
//! additions hook in here:
//!
//! * a *saturation monitor* averaging front-end read-queue occupancy per
//!   epoch ([`pabst_core::satmon::SatMonitor`]), and
//! * a *priority arbiter* ([`arbiter::TargetArbiter`]), applying priority
//!   in both the front-end and the back-end bank queues. The paper's
//!   mechanism ([`arbiter::TargetArbiter::Edf`], built on
//!   [`pabst_core::arbiter::VirtualClocks`]) is the default; competing
//!   mechanisms — FQM cost charging, per-bank regulation, the DPQ
//!   bounded-latency queue — are selected by [`ArbiterMode`].
//!
//! The baseline scheduling policy is FR-FCFS (row hits first, then oldest);
//! with a deadline-carrying arbiter it becomes the paper's "fair variant of
//! First-Ready, First-Come-First-Serve": row hits first, then earliest
//! virtual deadline.
//!
//! Requests enter through a finite **ingress FIFO**. When the front-end
//! queues fill, the ingress blocks head-of-line — and everything upstream
//! (L3 MSHRs, L2 MSHRs, cores) backs up. This explicit backpressure chain
//! is what makes target-only regulation fail under flood (Fig. 1b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod config;
pub mod controller;

pub use arbiter::{ArbiterMode, TargetArbiter};
pub use config::DramConfig;
pub use controller::{Completion, MemController, MemReq};
