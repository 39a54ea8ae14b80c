//! The seeded per-core workload builders, re-exported from
//! [`pabst_workloads::builders`] under the path external benchmark
//! programs import them from. The experiments themselves live in
//! [`crate::registry`].

pub use pabst_workloads::{read_streamers, region_for, write_streamers};
