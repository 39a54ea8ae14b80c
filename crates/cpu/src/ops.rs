//! The abstract instruction stream a core executes.
//!
//! Workload generators emit [`Op`]s; the core model executes them with real
//! dependence and structural constraints. Addresses and dependences are the
//! only workload properties that matter to the memory system, so this
//! replaces the paper's QEMU functional front-end (see DESIGN.md §2).

use pabst_cache::Addr;

/// Identifies one dynamic load so later loads can depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoadId(pub u64);

/// One unit of abstract work emitted by a workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` independent single-cycle ALU instructions (aggregated).
    Compute(u32),
    /// A load from `addr`. If `dep` is set, the load's address depends on
    /// the value of an earlier load and cannot issue until that load
    /// completes (a pointer chase).
    Load {
        /// Byte address accessed.
        addr: Addr,
        /// Generator-assigned identity of this load.
        id: LoadId,
        /// Earlier load this one's address depends on, if any.
        dep: Option<LoadId>,
    },
    /// A store to `addr`. Stores retire from a store buffer once issued to
    /// the cache (write-allocate); they never stall retirement on the fill.
    Store {
        /// Byte address written.
        addr: Addr,
    },
    /// A zero-cost marker that reports its tag and retirement cycle, used
    /// to timestamp transaction boundaries (memcached service times).
    Marker(u64),
}

impl Op {
    /// The number of program instructions this op represents.
    pub fn insts(&self) -> u32 {
        match self {
            Op::Compute(n) => *n,
            Op::Load { .. } | Op::Store { .. } => 1,
            Op::Marker(_) => 0,
        }
    }
}

/// An infinite abstract instruction stream.
///
/// Implementations are deterministic given their construction parameters
/// and seed; the core pulls ops one at a time as ROB space frees up.
pub trait Workload {
    /// Produces the next op in program order.
    fn next_op(&mut self) -> Op;

    /// Human-readable workload name (for reports).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_inst_counts() {
        assert_eq!(Op::Compute(7).insts(), 7);
        assert_eq!(Op::Load { addr: Addr::new(0), id: LoadId(0), dep: None }.insts(), 1);
        assert_eq!(Op::Store { addr: Addr::new(0) }.insts(), 1);
        assert_eq!(Op::Marker(3).insts(), 0);
    }
}
