//! Full-system assembly for the PABST reproduction: the 32-core tiled SoC
//! of the paper's §III (Fig. 2), with the PABST governor/pacer at each
//! private L2 and the priority arbiter + saturation monitor at each memory
//! controller.
//!
//! ```text
//! tile = core + L1D + private L2 (+ PABST governor/pacer)
//! 32 tiles ──► network ──► shared, way-partitioned L3 ──► 4 memory controllers
//!     ▲                                                    │ SAT (wired-OR)
//!     └───────────── epoch heartbeat + M ◄─────────────────┘
//! ```
//!
//! The [`system::System`] owns every component and advances cycle by
//! cycle; [`system::SystemBuilder`] assembles experiments (QoS classes,
//! weights, workloads, cache partitions, regulation mode). [`metrics`]
//! collects everything the paper's figures report.
//!
//! # Quick start
//!
//! ```
//! use pabst_soc::config::{RegulationMode, SystemConfig};
//! use pabst_soc::system::SystemBuilder;
//! use pabst_cpu::{Op, Workload};
//!
//! // A trivial compute-only workload (real experiments use
//! // `pabst-workloads` generators).
//! struct Idle;
//! impl Workload for Idle {
//!     fn next_op(&mut self) -> Op { Op::Compute(4) }
//!     fn name(&self) -> &str { "idle" }
//! }
//!
//! let cfg = SystemConfig::small_test();
//! let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
//!     .class(1, (0..2).map(|_| Box::new(Idle) as Box<dyn Workload>).collect())
//!     .build()?;
//! sys.run_epochs(2);
//! assert!(sys.now() > 0);
//! # Ok::<(), pabst_soc::config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod net;
pub mod report;
pub mod sched;
pub mod system;
pub mod tile;

pub use config::{ChannelMap, RegulationMode, SystemConfig, Topology, WbAccounting};
pub use metrics::Metrics;
pub use report::SystemReport;
pub use system::{System, SystemBuilder};
