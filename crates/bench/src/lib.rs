//! Harness utilities of the `figures` binary: LIMA configuration presets
//! matching the paper's experiment labels, timing helpers, and table
//! formatting.

use lima_algos::pipelines::Pipeline;
use lima_algos::runner::{run_script, RunResult};
use lima_core::{EvictionPolicy, LimaConfig, ReuseMode};
use std::time::Duration;

/// Named configurations used across the evaluation (paper §5.1/§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Default SystemDS without lineage (`Base`).
    Base,
    /// Lineage tracing only (`LT`).
    LT,
    /// Tracing + reuse probing, no dedup, no compiler assistance (`LTP`).
    LTP,
    /// Tracing + deduplication, no reuse (`LTD`).
    LTD,
    /// Full LIMA: hybrid reuse, multi-level, compiler assistance, C&S.
    Lima,
    /// LIMA without compiler assistance (runtime-only partial reuse).
    LimaNoCA,
    /// Operation-level full reuse only (`LIMA-FR`).
    LimaFR,
    /// Full + multi-level reuse (`LIMA-MLR`).
    LimaMLR,
    /// LRU eviction.
    LimaLru,
    /// DAG-Height eviction.
    LimaDagHeight,
    /// Cost & Size eviction (the default policy, spelled explicitly).
    LimaCostSize,
    /// Effectively unlimited cache (the hypothetical `Infinite` policy).
    LimaInfinite,
    /// Coarse-grained reuse baseline (HELIX/CO-style): only whole function
    /// calls are memoized.
    Coarse,
    /// Global-graph CSE baseline (TF-G proxy): operation-level full reuse
    /// without partial reuse, multi-level reuse, or compiler assistance.
    CseG,
}

impl Config {
    /// All configuration labels.
    pub const ALL: &'static [Config] = &[
        Config::Base,
        Config::LT,
        Config::LTP,
        Config::LTD,
        Config::Lima,
        Config::LimaNoCA,
        Config::LimaFR,
        Config::LimaMLR,
        Config::LimaLru,
        Config::LimaDagHeight,
        Config::LimaCostSize,
        Config::LimaInfinite,
        Config::Coarse,
        Config::CseG,
    ];

    /// Label as printed in tables.
    pub fn label(self) -> &'static str {
        match self {
            Config::Base => "Base",
            Config::LT => "LT",
            Config::LTP => "LTP",
            Config::LTD => "LTD",
            Config::Lima => "LIMA",
            Config::LimaNoCA => "LIMA-noCA",
            Config::LimaFR => "LIMA-FR",
            Config::LimaMLR => "LIMA-MLR",
            Config::LimaLru => "LRU",
            Config::LimaDagHeight => "DAG-Height",
            Config::LimaCostSize => "C&S",
            Config::LimaInfinite => "Infinite",
            Config::Coarse => "Coarse",
            Config::CseG => "CSE-G",
        }
    }

    /// Materializes the `LimaConfig` for this label with a given budget.
    pub fn to_config(self, budget_bytes: usize) -> LimaConfig {
        let mut cfg = match self {
            Config::Base => LimaConfig::base(),
            Config::LT => LimaConfig::tracing_only(),
            Config::LTP => LimaConfig {
                dedup: false,
                multilevel: false,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LTD => LimaConfig::tracing_dedup(),
            Config::Lima => LimaConfig::lima(),
            Config::LimaNoCA => LimaConfig {
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaFR => LimaConfig {
                reuse: ReuseMode::Full,
                multilevel: false,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaMLR => LimaConfig {
                reuse: ReuseMode::Full,
                multilevel: true,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaLru => LimaConfig {
                policy: EvictionPolicy::Lru,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaDagHeight => LimaConfig {
                policy: EvictionPolicy::DagHeight,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaCostSize => LimaConfig {
                policy: EvictionPolicy::CostSize,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
            Config::LimaInfinite => LimaConfig {
                compiler_assist: false,
                budget_bytes: usize::MAX / 2,
                spill: false,
                ..LimaConfig::lima()
            },
            Config::Coarse => {
                // Only function-call results qualify for caching.
                let fcalls = [
                    "lm",
                    "lmDS",
                    "lmCG",
                    "lmPredict",
                    "l2norm",
                    "l2svm",
                    "msvm",
                    "msvmPredict",
                    "multiLogReg",
                    "pca",
                    "naiveBayes",
                    "nbPredict",
                    "scaleAndShift",
                    "pageRank",
                    "ensScore",
                ]
                .iter()
                .map(|f| format!("fcall:{f}"))
                .collect();
                LimaConfig {
                    reuse: ReuseMode::Full,
                    multilevel: true,
                    compiler_assist: false,
                    cacheable_opcodes: Some(fcalls),
                    ..LimaConfig::lima()
                }
            }
            Config::CseG => LimaConfig {
                reuse: ReuseMode::Full,
                multilevel: false,
                compiler_assist: false,
                ..LimaConfig::lima()
            },
        };
        if self != Config::LimaInfinite {
            cfg.budget_bytes = budget_bytes;
        }
        cfg
    }
}

/// Default cache budget for experiments (a stand-in for "5% of a 110 GB
/// heap" at laptop scale).
pub const DEFAULT_BUDGET: usize = 512 * 1024 * 1024;

/// Runs a pipeline under a configuration `reps` times, returning the
/// per-repetition durations (each repetition uses a fresh cache).
pub fn time_pipeline(p: &Pipeline, config: &LimaConfig, reps: usize) -> Vec<Duration> {
    (0..reps).map(|_| run_pipeline(p, config).elapsed).collect()
}

/// Runs a pipeline once.
pub fn run_pipeline(p: &Pipeline, config: &LimaConfig) -> RunResult {
    run_script(&p.script, config, &p.input_refs())
        .unwrap_or_else(|e| panic!("pipeline {} failed under {:?}: {e}", p.name, config.reuse))
}

/// Median of a set of durations.
pub fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Scale factor for experiment sizes, read from `LIMA_SCALE` (default 1.0).
/// `figures` runs use it to trade fidelity against wall-clock time.
pub fn scale() -> f64 {
    std::env::var("LIMA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Applies the scale factor to a row count (keeping a sane floor).
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(16)
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Speedup string `x.xx×`.
pub fn speedup(base: Duration, other: Duration) -> String {
    format!("{:.2}x", base.as_secs_f64() / other.as_secs_f64().max(1e-9))
}

/// Prints a result table: header row then `rows` of (label, cells).
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    let width = 14;
    let mut line = format!("{:width$}", header[0]);
    for h in &header[1..] {
        line.push_str(&format!("{h:>width$}"));
    }
    println!("{line}");
    for (label, cells) in rows {
        let mut line = format!("{label:width$}");
        for c in cells {
            line.push_str(&format!("{c:>width$}"));
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels_materialize() {
        for c in Config::ALL {
            let cfg = c.to_config(1 << 20);
            match c {
                Config::Base => assert!(!cfg.tracing),
                Config::LT => assert!(cfg.tracing && !cfg.reuse.any()),
                Config::LTD => assert!(cfg.dedup),
                Config::Lima => {
                    assert!(cfg.reuse.partial() && cfg.multilevel && cfg.compiler_assist)
                }
                Config::LimaFR => assert!(cfg.reuse.full() && !cfg.reuse.partial()),
                Config::Coarse => assert!(cfg.cacheable_opcodes.is_some()),
                _ => {}
            }
        }
    }

    #[test]
    fn coarse_config_caches_only_fcalls() {
        let cfg = Config::Coarse.to_config(1 << 20);
        assert!(cfg.is_cacheable("fcall:pca"));
        assert!(!cfg.is_cacheable("ba+*"));
        assert!(!cfg.is_cacheable("tsmm"));
    }

    #[test]
    fn median_of_durations() {
        let d = |ms: u64| Duration::from_millis(ms);
        assert_eq!(median(vec![d(5), d(1), d(9)]), d(5));
        assert_eq!(median(vec![d(4), d(2)]), d(4));
    }

    #[test]
    fn scaled_has_floor() {
        assert!(scaled(100) >= 16);
        assert_eq!(
            speedup(Duration::from_secs(2), Duration::from_secs(1)),
            "2.00x"
        );
    }
}
