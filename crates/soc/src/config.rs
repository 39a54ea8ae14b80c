//! System configuration (the paper's Table III class of machine).

use std::fmt;

use pabst_cache::{CacheConfig, LineAddr};
use pabst_core::governor::{GovernorKind, MonitorConfig, MonitorConfigError};
use pabst_core::qos::ShareError;
use pabst_dram::{ArbiterMode, DramConfig};
use pabst_simkit::invariant::InvariantConfig;
use pabst_simkit::Cycle;

/// How line addresses map to memory-controller channels — the explicit
/// channel map the interconnect and the per-MC pacers share, replacing
/// scattered `line.interleave(mcs)` calls so every component agrees on a
/// request's home controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelMap {
    /// The single xor-fold hash ([`LineAddr::interleave`]). The paper's
    /// 2-/4-controller runs use it and the committed goldens pin its exact
    /// line→channel mapping.
    #[default]
    XorFold,
    /// The double-fold hash ([`LineAddr::interleave_spread`]). Required at
    /// wide channel counts: the single fold stops mixing above bit 17 and
    /// collapses giant power-of-two strides onto one controller at 16
    /// channels (see the skew regression tests in `pabst_cache::addr`).
    DoubleFold,
}

impl ChannelMap {
    /// The home memory controller of `line` among `n` controllers.
    pub fn channel_of(self, line: LineAddr, n: usize) -> usize {
        match self {
            ChannelMap::XorFold => line.interleave(n),
            ChannelMap::DoubleFold => line.interleave_spread(n),
        }
    }
}

/// The machine's physical shape: where tiles, the shared L3, and the
/// memory controllers sit on the on-chip mesh, how lines map to
/// controllers, and how the network derives delay from distance.
///
/// `Copy` on purpose: the topology is a handful of scalars; the derived
/// per-(tile, MC) delay tables are precomputed once at build time by the
/// interconnect, not stored here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Mesh columns (tiles are placed row-major; `cols × rows` must cover
    /// `cores`).
    pub mesh_cols: usize,
    /// Mesh rows.
    pub mesh_rows: usize,
    /// Line→controller channel map.
    pub channel_map: ChannelMap,
    /// Per-hop router delay, cycles, added per Manhattan hop to the base
    /// `l3_lat` / `resp_lat` of every path. 0 makes the network
    /// placement-blind.
    pub hop_lat: Cycle,
    /// Staged→ingress admissions per MC per cycle; 0 means unbounded (the
    /// legacy drain-until-full behavior the goldens pin).
    pub mc_link_bw: u64,
}

impl Topology {
    /// The placement-blind topology the paper's configs use: an 8×4 grid
    /// (the Table III floorplan) with zero-cycle hops, so every tile↔L3
    /// path costs `l3_lat`, every response `resp_lat`, L3→MC staging is
    /// free and MC links are unbounded — the fixed-latency pipes the
    /// committed goldens pin — and the legacy channel map.
    pub fn uniform_8x4() -> Self {
        Self {
            mesh_cols: 8,
            mesh_rows: 4,
            channel_map: ChannelMap::XorFold,
            hop_lat: 0,
            mc_link_bw: 0,
        }
    }

    /// A distance-modelled mesh: one-cycle hops, the double-fold channel
    /// map (safe at wide channel counts), and two staged admissions per
    /// MC per cycle. Pair it with base latencies sized so the *average*
    /// tile sees roughly the baseline's fixed `l3_lat` (the mesh configs
    /// use 18 and 4).
    pub fn mesh(cols: usize, rows: usize) -> Self {
        Self {
            mesh_cols: cols,
            mesh_rows: rows,
            channel_map: ChannelMap::DoubleFold,
            hop_lat: 1,
            mc_link_bw: 2,
        }
    }

    /// Grid position of tile `i` (row-major placement).
    pub fn tile_pos(&self, i: usize) -> (usize, usize) {
        (i / self.mesh_cols, i % self.mesh_cols)
    }

    /// Grid position of the shared L3 slice (mesh center).
    pub fn l3_pos(&self) -> (usize, usize) {
        (self.mesh_rows / 2, self.mesh_cols / 2)
    }

    /// Grid position of memory controller `k` of `mcs`: controllers sit on
    /// the top and bottom mesh edges, spread evenly across the columns —
    /// the usual edge-of-die DDR PHY placement.
    pub fn mc_pos(&self, k: usize, mcs: usize) -> (usize, usize) {
        let top = mcs.div_ceil(2);
        let (row, j, n) = if k < top {
            (0, k, top)
        } else {
            (self.mesh_rows.saturating_sub(1), k - top, mcs - top)
        };
        // Center of the j-th of n equal column spans.
        let col = ((2 * j + 1) * self.mesh_cols / (2 * n)).min(self.mesh_cols - 1);
        (row, col)
    }

    /// Manhattan hop count between two grid positions.
    pub fn hops(a: (usize, usize), b: (usize, usize)) -> u64 {
        (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as u64
    }
}

/// Which PABST components are active — the four configurations the paper
/// compares (Figs. 1, 7, 10, 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulationMode {
    /// No bandwidth QoS at all (the contention baseline).
    None,
    /// Governor + pacer only (source-based regulation).
    SourceOnly,
    /// Priority arbiter only (target-based regulation).
    TargetOnly,
    /// Both — full PABST.
    Pabst,
}

impl RegulationMode {
    /// True when the source governor/pacer is active.
    pub fn source_active(self) -> bool {
        matches!(self, RegulationMode::SourceOnly | RegulationMode::Pabst)
    }

    /// True when the memory-controller priority arbiter is active.
    pub fn target_active(self) -> bool {
        matches!(self, RegulationMode::TargetOnly | RegulationMode::Pabst)
    }

    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RegulationMode::None => "none",
            RegulationMode::SourceOnly => "source-only",
            RegulationMode::TargetOnly => "target-only",
            RegulationMode::Pabst => "pabst",
        }
    }
}

/// Who gets charged for memory writes caused by dirty L3 evictions (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WbAccounting {
    /// Charge the class whose demand fill caused the eviction (the paper's
    /// default, §III-B3): the response carries a writeback flag and the
    /// pacer adds one period.
    #[default]
    ChargeDemand,
    /// Charge the class that owned the evicted line.
    ChargeOwner,
    /// Charge nobody (writeback bandwidth rides free).
    ChargeNone,
}

/// Full system configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Number of tiles (cores).
    pub cores: usize,
    /// Number of memory controllers.
    pub mcs: usize,
    /// Physical shape: mesh placement, channel map, latency model.
    pub topology: Topology,
    /// Epoch length in cycles (10 µs at 2 GHz = 20 000).
    pub epoch_cycles: Cycle,
    /// Core structural parameters.
    pub core: pabst_cpu::CoreConfig,
    /// L1D geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Shared L3 geometry (way-partitioned between classes).
    pub l3: CacheConfig,
    /// L2 MSHR entries per tile.
    pub l2_mshrs: usize,
    /// L3 MSHR entries (global).
    pub l3_mshrs: usize,
    /// L1 hit latency, cycles.
    pub l1_lat: u64,
    /// L2 hit latency, cycles.
    pub l2_lat: u64,
    /// Tile → L3 network + L3 array latency, cycles, before the
    /// per-hop delay ([`Topology::hop_lat`]).
    pub l3_lat: Cycle,
    /// L3/MC → tile response latency, cycles, before the per-hop delay.
    pub resp_lat: Cycle,
    /// DRAM timing/geometry per controller.
    pub dram: DramConfig,
    /// Governor feedback-loop parameters.
    pub monitor: MonitorConfig,
    /// Source-side governor mechanism (the [`GovernorKind`] zoo); only
    /// consulted when the regulation mode activates the source side.
    pub governor: GovernorKind,
    /// Target-side arbiter mechanism (the [`ArbiterMode`] zoo); only
    /// consulted when the regulation mode activates the target side
    /// (otherwise the controller runs priority-blind FR-FCFS).
    pub arbiter: ArbiterMode,
    /// Pacer burst window, requests.
    pub pacer_burst: u64,
    /// Arbiter slack, virtual ticks.
    pub arbiter_slack: u64,
    /// Writeback charging policy.
    pub wb_accounting: WbAccounting,
    /// Per-MC regulation (SIII-C1's alternative): one SAT signal and one
    /// governor per memory controller, and one pacer per (tile, MC). The
    /// paper's default is a single global wired-OR SAT and one governor;
    /// the per-MC variant avoids under-utilizing lightly loaded channels
    /// when traffic is skewed across controllers.
    pub per_mc_regulation: bool,
    /// Runtime invariant checking (conservation/bound/liveness laws
    /// evaluated at epoch boundaries; a violation panics by default).
    /// Observation only: the checker reads state and never mutates it,
    /// so it is excluded from [`SystemConfig::mechanism_hash`] and
    /// checking more laws leaves every golden byte-identical.
    /// Resilience runs set a liveness window (the forward-progress
    /// watchdog); chaos campaigns also switch on the recording policy.
    pub invariants: InvariantConfig,
}

impl SystemConfig {
    /// The paper's 32-core baseline (Table III): 8×4 tiled SoC, 32 KiB
    /// L1D, 256 KiB L2, 16 MiB shared L3 (16-way), 4 DDR channels.
    pub fn baseline_32core() -> Self {
        Self {
            cores: 32,
            mcs: 4,
            topology: Topology::uniform_8x4(),
            epoch_cycles: 20_000,
            core: pabst_cpu::CoreConfig::default(),
            l1: CacheConfig::with_capacity(32 * 1024, 8),
            l2: CacheConfig::with_capacity(256 * 1024, 8),
            l3: CacheConfig::with_capacity(16 * 1024 * 1024, 16),
            // 16 per-core L2 MSHRs: one 16-core streaming class's
            // outstanding requests (256) fit within the four controllers'
            // aggregate queueing (~320), while two classes' (512) do not —
            // the boundary Fig. 1 exercises.
            l2_mshrs: 16,
            l3_mshrs: 512,
            l1_lat: 4,
            l2_lat: 14,
            // Mesh hop + L3 array: low enough that the chaser (4 chains x
            // 16 cores = 64 outstanding) can saturate memory in isolation,
            // as the paper's methodology requires (SIV-A).
            l3_lat: 24,
            resp_lat: 8,
            dram: DramConfig::default(),
            monitor: MonitorConfig::default(),
            governor: GovernorKind::Sat,
            arbiter: ArbiterMode::Edf,
            pacer_burst: 16,
            arbiter_slack: 128,
            wb_accounting: WbAccounting::ChargeDemand,
            per_mc_regulation: false,
            invariants: InvariantConfig::default(),
        }
    }

    /// The paper's memcached machine: everything scaled down 4× from the
    /// 32-core system (8 cores, 1 memory controller, 4 MiB L3). The pacer
    /// burst and arbiter slack rescale with it — they are shape-derived
    /// constants, not universal ones (see [`SystemConfig::derived_pacer_burst`]).
    pub fn scaled_8core() -> Self {
        let mut c = Self::baseline_32core();
        c.cores = 8;
        c.mcs = 1;
        c.topology.mesh_cols = 4;
        c.topology.mesh_rows = 2;
        c.l3 = CacheConfig::with_capacity(4 * 1024 * 1024, 16);
        c.l3_mshrs = 128;
        c.pacer_burst = c.derived_pacer_burst();
        c.arbiter_slack = c.derived_arbiter_slack();
        c
    }

    /// A 64-tile mesh (8×8, 8 controllers): the first scale point past the
    /// paper's machine. Distance-modelled network, double-fold channel
    /// map, shape-derived pacing constants.
    pub fn mesh_64() -> Self {
        let mut c = Self::baseline_32core();
        c.cores = 64;
        c.mcs = 8;
        c.topology = Topology::mesh(8, 8);
        c.l3_lat = 18;
        c.resp_lat = 4;
        c.l3 = CacheConfig::with_capacity(32 * 1024 * 1024, 16);
        c.l3_mshrs = 1024;
        c.pacer_burst = c.derived_pacer_burst();
        c.arbiter_slack = c.derived_arbiter_slack();
        c
    }

    /// The 256-tile/16-controller scale point (16×16 mesh) the scale
    /// experiment probes for SAT-broadcast wobble.
    pub fn mesh_256x16() -> Self {
        let mut c = Self::baseline_32core();
        c.cores = 256;
        c.mcs = 16;
        c.topology = Topology::mesh(16, 16);
        c.l3_lat = 18;
        c.resp_lat = 4;
        c.l3 = CacheConfig::with_capacity(64 * 1024 * 1024, 16);
        c.l3_mshrs = 2048;
        c.pacer_burst = c.derived_pacer_burst();
        c.arbiter_slack = c.derived_arbiter_slack();
        c
    }

    /// The pacer burst window the machine shape implies: the aggregate MC
    /// ingress depth (per-controller ingress FIFO × controllers). A burst
    /// larger than that cannot land anyway — it just queues in the network
    /// — and a smaller one under-uses idle channels. Reproduces the
    /// baseline's hand-tuned 16 (4 × 4) exactly.
    pub fn derived_pacer_burst(&self) -> u64 {
        (self.dram.ingress_cap * self.mcs) as u64
    }

    /// The arbiter slack the machine shape implies: four virtual ticks per
    /// tile, so a full complement of cores can be in flight before the
    /// EDF arbiter's slack window saturates. Reproduces the baseline's
    /// hand-tuned 128 (4 × 32) exactly.
    pub fn derived_arbiter_slack(&self) -> u64 {
        4 * self.cores as u64
    }

    /// A tiny configuration for fast unit tests (4 cores, 1 MC, small
    /// caches). Not used by any experiment.
    pub fn small_test() -> Self {
        let mut c = Self::baseline_32core();
        c.cores = 4;
        c.mcs = 1;
        c.l3 = CacheConfig::with_capacity(256 * 1024, 16);
        c.l3_mshrs = 64;
        c.epoch_cycles = 2_000;
        c
    }

    /// The mechanism pair this config selects, as stable labels
    /// (`governor/arbiter`, e.g. `"sat/edf"`). Report tables and trace
    /// provenance use this form.
    pub fn mechanism_label(&self) -> String {
        format!("{}/{}", self.governor.label(), self.arbiter.label())
    }

    /// A stable FNV-1a hash over the mechanism selection and the
    /// regulation-relevant scalar knobs — the provenance fingerprint
    /// reports and traces carry so a rendered number can always be
    /// traced back to the exact mechanism configuration that produced
    /// it. Deliberately *not* a hash of the whole struct: cache/core
    /// geometry changes show up in the config name, while a silent
    /// mechanism or knob swap is what provenance must catch.
    pub fn mechanism_hash(&self) -> u64 {
        let knobs = [
            u64::from(self.monitor.m_init),
            u64::from(self.monitor.m_min),
            u64::from(self.monitor.m_max),
            u64::from(self.monitor.dm_min),
            u64::from(self.monitor.dm_max),
            u64::from(self.monitor.staleness_k),
            u64::from(self.monitor.degraded_m),
            self.pacer_burst,
            self.arbiter_slack,
        ];
        pabst_simkit::fnv1a(
            self.governor
                .label()
                .bytes()
                .chain(*b"/")
                .chain(self.arbiter.label().bytes())
                .chain(knobs.into_iter().flat_map(u64::to_le_bytes)),
        )
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.mcs == 0 {
            return Err(ConfigError::ZeroMcs);
        }
        if self.epoch_cycles == 0 {
            return Err(ConfigError::ZeroEpochCycles);
        }
        if self.l2_mshrs == 0 || self.l3_mshrs == 0 {
            return Err(ConfigError::ZeroMshrs);
        }
        if self.monitor.staleness_k == 0 {
            // Typed here (not just as a string from the monitor): a zero
            // staleness window is the fail-safe misconfiguration callers
            // most plausibly hit programmatically.
            return Err(ConfigError::ZeroStalenessWindow);
        }
        let cells = self.topology.mesh_cols * self.topology.mesh_rows;
        if cells < self.cores {
            return Err(ConfigError::MeshTooSmall { cells, cores: self.cores });
        }
        self.dram.validate().map_err(ConfigError::Dram)?;
        self.monitor.validate().map_err(ConfigError::Monitor)?;
        Ok(())
    }
}

/// An invalid [`SystemConfig`] or [`crate::system::SystemBuilder`] input,
/// as a typed error — callers can match on the failure instead of
/// string-scraping, and nothing panics deep in `qos::stride`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores` was zero.
    ZeroCores,
    /// `mcs` was zero.
    ZeroMcs,
    /// `epoch_cycles` was zero.
    ZeroEpochCycles,
    /// An MSHR capacity was zero.
    ZeroMshrs,
    /// The governor's staleness window `K` was zero (the fail-safe would
    /// degrade on the very first epoch).
    ZeroStalenessWindow,
    /// The topology's mesh grid has fewer cells than the system has tiles.
    MeshTooSmall {
        /// Grid cells the mesh provides (`cols × rows`).
        cells: usize,
        /// Tiles that need placement.
        cores: usize,
    },
    /// No tile was given a workload.
    NoWorkloads,
    /// The classes' workload lists need more cores than the system has.
    TooManyCores {
        /// Cores consumed by the workload lists.
        requested: usize,
        /// Cores the configuration provides.
        available: usize,
    },
    /// The weight table is invalid (empty class set, zero or overflowing
    /// weights, too many classes).
    Weights(ShareError),
    /// DRAM timing validation failed.
    Dram(String),
    /// Governor configuration validation failed (typed: callers can
    /// match the exact constraint, mirroring the variants here).
    Monitor(MonitorConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system config: ")?;
        match self {
            ConfigError::ZeroCores => write!(f, "cores must be non-zero"),
            ConfigError::ZeroMcs => write!(f, "mcs must be non-zero"),
            ConfigError::ZeroEpochCycles => write!(f, "epoch_cycles must be non-zero"),
            ConfigError::ZeroMshrs => write!(f, "MSHR capacities must be non-zero"),
            ConfigError::ZeroStalenessWindow => {
                write!(f, "monitor staleness window K must be >= 1")
            }
            ConfigError::MeshTooSmall { cells, cores } => {
                write!(f, "mesh has {cells} cells but must place {cores} tiles")
            }
            ConfigError::NoWorkloads => write!(f, "at least one core must run a workload"),
            ConfigError::TooManyCores { requested, available } => {
                write!(f, "classes use {requested} cores but the system has {available}")
            }
            ConfigError::Weights(e) => write!(f, "{e}"),
            ConfigError::Dram(m) => write!(f, "{m}"),
            ConfigError::Monitor(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ShareError> for ConfigError {
    fn from(e: ShareError) -> Self {
        ConfigError::Weights(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert!(SystemConfig::baseline_32core().validate().is_ok());
        assert!(SystemConfig::scaled_8core().validate().is_ok());
        assert!(SystemConfig::small_test().validate().is_ok());
        assert!(SystemConfig::mesh_64().validate().is_ok());
        assert!(SystemConfig::mesh_256x16().validate().is_ok());
    }

    #[test]
    fn scaled_system_is_quarter_size() {
        let big = SystemConfig::baseline_32core();
        let small = SystemConfig::scaled_8core();
        assert_eq!(small.cores * 4, big.cores);
        assert_eq!(small.mcs * 4, big.mcs);
        assert_eq!(small.l3.bytes() * 4, big.l3.bytes());
    }

    #[test]
    fn baseline_pacing_constants_match_their_derivation() {
        // Table III's hand-tuned 16/128 are exactly what the shape
        // derivation produces for the 32-core machine — pinning that here
        // documents their provenance and keeps the literals honest.
        let c = SystemConfig::baseline_32core();
        assert_eq!(c.pacer_burst, c.derived_pacer_burst());
        assert_eq!(c.arbiter_slack, c.derived_arbiter_slack());
    }

    #[test]
    fn scaled_config_rescales_pacing_with_the_shape() {
        // The satellite bug: scaled_8core used to keep the 32-core values
        // (16/128) despite having a quarter of the ingress depth and
        // tiles. Both must now follow the shape.
        let c = SystemConfig::scaled_8core();
        assert_eq!(c.pacer_burst, (c.dram.ingress_cap * c.mcs) as u64);
        assert_eq!(c.arbiter_slack, 4 * c.cores as u64);
        assert!(c.pacer_burst < SystemConfig::baseline_32core().pacer_burst);
        let m = SystemConfig::mesh_256x16();
        assert_eq!(m.pacer_burst, (m.dram.ingress_cap * m.mcs) as u64);
        assert_eq!(m.arbiter_slack, 1024);
    }

    #[test]
    fn mesh_validation_rejects_undersized_grids() {
        let mut c = SystemConfig::mesh_64();
        c.topology.mesh_rows = 4; // 8×4 = 32 cells for 64 tiles
        assert_eq!(c.validate(), Err(ConfigError::MeshTooSmall { cells: 32, cores: 64 }));
        assert!(c.validate().unwrap_err().to_string().contains("64 tiles"));
    }

    #[test]
    fn mesh_placement_stays_on_the_grid() {
        for cfg in [SystemConfig::mesh_64(), SystemConfig::mesh_256x16()] {
            let t = cfg.topology;
            for i in 0..cfg.cores {
                let (r, c) = t.tile_pos(i);
                assert!(r < t.mesh_rows && c < t.mesh_cols, "tile {i} off-grid");
            }
            let mut seen = std::collections::BTreeSet::new();
            for k in 0..cfg.mcs {
                let (r, c) = t.mc_pos(k, cfg.mcs);
                assert!(r < t.mesh_rows && c < t.mesh_cols, "mc {k} off-grid");
                assert!(
                    r == 0 || r == t.mesh_rows - 1,
                    "controllers sit on the top/bottom die edges"
                );
                assert!(seen.insert((r, c)), "mc {k} collides at ({r},{c})");
            }
            let (lr, lc) = t.l3_pos();
            assert!(lr < t.mesh_rows && lc < t.mesh_cols);
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        assert_eq!(Topology::hops((0, 0), (3, 4)), 7);
        assert_eq!(Topology::hops((2, 5), (2, 5)), 0);
        assert_eq!(Topology::hops((5, 1), (1, 2)), 5);
    }

    #[test]
    fn channel_maps_dispatch_to_their_hashes() {
        let line = LineAddr::new(0xdead_beef);
        assert_eq!(ChannelMap::XorFold.channel_of(line, 16), line.interleave(16));
        assert_eq!(ChannelMap::DoubleFold.channel_of(line, 16), line.interleave_spread(16));
        assert_eq!(ChannelMap::default(), ChannelMap::XorFold, "legacy map stays the default");
    }

    #[test]
    fn mode_component_activation() {
        assert!(RegulationMode::Pabst.source_active());
        assert!(RegulationMode::Pabst.target_active());
        assert!(RegulationMode::SourceOnly.source_active());
        assert!(!RegulationMode::SourceOnly.target_active());
        assert!(!RegulationMode::TargetOnly.source_active());
        assert!(RegulationMode::TargetOnly.target_active());
        assert!(!RegulationMode::None.source_active());
        assert!(!RegulationMode::None.target_active());
    }

    #[test]
    fn validation_rejects_zero_cores() {
        let mut c = SystemConfig::baseline_32core();
        c.cores = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCores));
        let mut c = SystemConfig::baseline_32core();
        c.epoch_cycles = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroEpochCycles));
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut c = SystemConfig::baseline_32core();
        c.mcs = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMcs));
        let mut c = SystemConfig::baseline_32core();
        c.l3_mshrs = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMshrs));
        let mut c = SystemConfig::baseline_32core();
        c.monitor.staleness_k = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroStalenessWindow));
        let mut c = SystemConfig::baseline_32core();
        c.monitor.dm_min = 0;
        // The inner error is typed too — matchable down to the exact
        // violated constraint, not a string.
        assert_eq!(c.validate(), Err(ConfigError::Monitor(MonitorConfigError::BadDeltaBounds)));
    }

    #[test]
    fn mechanism_provenance_hash_tracks_the_selection() {
        let base = SystemConfig::baseline_32core();
        assert_eq!(base.mechanism_label(), "sat/edf");
        assert_eq!(base.mechanism_hash(), SystemConfig::baseline_32core().mechanism_hash());
        let mut lms = base;
        lms.governor = GovernorKind::LmsAr;
        assert_ne!(lms.mechanism_hash(), base.mechanism_hash());
        assert_eq!(lms.mechanism_label(), "lms-ar/edf");
        let mut dpq = base;
        dpq.arbiter = ArbiterMode::Dpq;
        assert_ne!(dpq.mechanism_hash(), base.mechanism_hash());
        assert_ne!(dpq.mechanism_hash(), lms.mechanism_hash());
        let mut knob = base;
        knob.arbiter_slack += 1;
        assert_ne!(knob.mechanism_hash(), base.mechanism_hash(), "knobs are provenance too");
    }

    #[test]
    fn config_error_display_keeps_the_invalid_config_prefix() {
        assert!(ConfigError::ZeroCores.to_string().starts_with("invalid system config: "));
        let e = ConfigError::Weights(ShareError::ZeroWeight);
        assert!(e.to_string().contains("non-zero"), "{e}");
    }
}
