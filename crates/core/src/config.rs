//! Configuration of lineage tracing and the reuse cache.

use crate::cache::persist::{PersistOptions, RepairHook};
use crate::faults::FaultInjector;
use std::path::PathBuf;
use std::sync::Arc;

/// Which reuse machinery is active (paper §5.1 "cache configurations":
/// full, partial, hybrid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseMode {
    /// No reuse; tracing only (configuration `LT` in Fig 6).
    None,
    /// Operation-level full reuse only (`LIMA-FR`).
    Full,
    /// Partial-reuse rewrites only.
    Partial,
    /// Full + partial reuse (the default `LIMA` configuration).
    Hybrid,
}

impl ReuseMode {
    /// True if full (operation-level) reuse is enabled.
    pub fn full(self) -> bool {
        matches!(self, ReuseMode::Full | ReuseMode::Hybrid)
    }

    /// True if partial-reuse rewrites are enabled.
    pub fn partial(self) -> bool {
        matches!(self, ReuseMode::Partial | ReuseMode::Hybrid)
    }

    /// True if any reuse is enabled.
    pub fn any(self) -> bool {
        !matches!(self, ReuseMode::None)
    }
}

/// Cache eviction policy (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used: evict minimal last-access timestamp.
    Lru,
    /// DAG-Height: deep lineage traces are assumed to have less reuse
    /// potential; evict maximal height (score `1/h(o)`).
    DagHeight,
    /// Cost & Size (default): evict minimal `(r_h + r_m) · c(o) / s(o)`.
    CostSize,
}

/// Top-level LIMA configuration handed to the runtime and the cache.
#[derive(Debug, Clone)]
pub struct LimaConfig {
    /// Master switch for lineage tracing.
    pub tracing: bool,
    /// Deduplicate lineage for last-level loops and functions.
    pub dedup: bool,
    /// Reuse machinery (requires `tracing`).
    pub reuse: ReuseMode,
    /// Multi-level (function/block) reuse on top of operation reuse.
    pub multilevel: bool,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Cache budget in bytes (the paper defaults to 5% of the heap; here an
    /// absolute budget).
    pub budget_bytes: usize,
    /// Spill evicted entries to disk when recompute cost exceeds I/O cost.
    pub spill: bool,
    /// Compiler assistance: unmarking and reuse-aware rewrites (paper §4.4).
    pub compiler_assist: bool,
    /// Upper bound (milliseconds) a probe blocks on another thread's
    /// placeholder before assuming the fulfiller died and taking over the
    /// computation itself. 0 waits forever (the pre-hardening behaviour).
    pub placeholder_timeout_ms: u64,
    /// Process-wide memory budget governed by the
    /// [`crate::governor::ResourceGovernor`] degradation ladder (resident
    /// cache bytes + session live variables + spill buffers). 0 disables
    /// governance entirely (no governor is constructed).
    pub governor_budget_bytes: usize,
    /// The crash-safe persistent store (directory, disk budget, WAL
    /// compaction, repair hook); reuse-cache entries are durably persisted
    /// iff it is set. A later process reopening the same directory
    /// warm-starts the cache; an unusable directory degrades to an empty
    /// cache, never an error.
    pub persist: Option<PersistOptions>,
    /// Deterministic fault-injection harness; `None` (the default) injects
    /// nothing and is the production configuration.
    pub faults: Option<Arc<FaultInjector>>,
    /// Observability hub (lima-obs): lineage-aware trace events from the
    /// cache, governor, and runtime flow into its per-thread rings. `None`
    /// (the default) removes even the per-event gate check from most paths.
    pub obs: Option<Arc<crate::obs::Obs>>,
}

impl Default for LimaConfig {
    fn default() -> Self {
        LimaConfig {
            tracing: true,
            dedup: false,
            reuse: ReuseMode::Hybrid,
            multilevel: true,
            policy: EvictionPolicy::CostSize,
            budget_bytes: 256 * 1024 * 1024,
            spill: true,
            compiler_assist: true,
            placeholder_timeout_ms: 60_000,
            governor_budget_bytes: 0,
            persist: None,
            faults: None,
            obs: None,
        }
    }
}

impl LimaConfig {
    /// Baseline configuration: no tracing, no reuse (paper's `Base`).
    pub fn base() -> Self {
        LimaConfig {
            tracing: false,
            dedup: false,
            reuse: ReuseMode::None,
            multilevel: false,
            compiler_assist: false,
            ..Self::default()
        }
    }

    /// Tracing only (`LT`).
    pub fn tracing_only() -> Self {
        LimaConfig {
            tracing: true,
            reuse: ReuseMode::None,
            multilevel: false,
            compiler_assist: false,
            ..Self::default()
        }
    }

    /// Tracing + dedup, no reuse (`LTD`).
    pub fn tracing_dedup() -> Self {
        LimaConfig {
            dedup: true,
            ..Self::tracing_only()
        }
    }

    /// The full LIMA configuration (hybrid reuse, multi-level, C&S eviction).
    pub fn lima() -> Self {
        Self::default()
    }

    /// Attaches a fault-injection harness (robustness tests).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an observability hub; runtime and cache events are recorded
    /// into it whenever its gate is open (see [`crate::obs::Obs`]).
    pub fn with_obs(mut self, obs: Arc<crate::obs::Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables the memory-pressure degradation ladder over `budget` bytes
    /// (see [`crate::governor::ResourceGovernor`]).
    pub fn with_governor(mut self, budget_bytes: usize) -> Self {
        self.governor_budget_bytes = budget_bytes;
        self
    }

    /// Enables the crash-safe persistent cache store rooted at `dir`, keeping
    /// any other persistence settings already configured. A later process
    /// pointing at the same directory recovers the surviving entries on
    /// startup.
    pub fn with_persistence(mut self, dir: impl Into<PathBuf>) -> Self {
        let opts = self.persist.take().unwrap_or_default();
        self.persist = Some(PersistOptions {
            dir: dir.into(),
            ..opts
        });
        self
    }

    /// Installs a lineage-driven repair hook for the persistent store; see
    /// [`RepairHook`]. Call it after [`LimaConfig::with_persistence`]: without
    /// persistence there is no store to repair, and it does nothing.
    pub fn with_repair(mut self, hook: RepairHook) -> Self {
        if let Some(opts) = &mut self.persist {
            opts.repair = Some(hook);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_mode_flags() {
        assert!(!ReuseMode::None.any());
        assert!(ReuseMode::Full.full() && !ReuseMode::Full.partial());
        assert!(!ReuseMode::Partial.full() && ReuseMode::Partial.partial());
        assert!(ReuseMode::Hybrid.full() && ReuseMode::Hybrid.partial());
    }

    #[test]
    fn preset_configs() {
        assert!(!LimaConfig::base().tracing);
        assert!(LimaConfig::tracing_only().tracing);
        assert!(!LimaConfig::tracing_only().reuse.any());
        assert!(LimaConfig::tracing_dedup().dedup);
        assert!(LimaConfig::lima().reuse.any());
        assert_eq!(LimaConfig::lima().policy, EvictionPolicy::CostSize);
    }

    #[test]
    fn faults_default_off_and_attach_via_builder() {
        use crate::faults::{FaultInjector, FaultSite};
        assert!(LimaConfig::lima().faults.is_none());
        assert!(LimaConfig::base().faults.is_none());
        let inj = Arc::new(FaultInjector::new(1).fail_at(FaultSite::SpillRead, &[0]));
        let cfg = LimaConfig::lima().with_faults(Arc::clone(&inj));
        assert!(cfg
            .faults
            .as_ref()
            .unwrap()
            .should_fail(FaultSite::SpillRead));
        // The config clones share the injector's counters.
        let cfg2 = cfg.clone();
        assert_eq!(cfg2.faults.unwrap().occurrences(FaultSite::SpillRead), 1);
    }
}
