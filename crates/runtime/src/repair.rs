//! Lineage-driven repair (self-healing persistence): reconstructs the
//! producing program for a corrupt persisted entry from its serialized
//! lineage and recomputes the value in an isolated, cacheless context.
//!
//! The hook is installed automatically by [`ExecutionContext::new`] and
//! [`SessionPool::new`] when persistence is enabled and the configuration
//! does not already carry a custom hook, so every runtime-driven cache gets
//! repair-on-corruption without explicit wiring. Repairs are bounded by the
//! cache's `RetryPolicy`/`RetryBudget` (see `PersistOptions`), so a
//! pathological entry cannot monopolise a recovery or scrub pass.

use crate::context::{DataRegistry, ExecutionContext};
use crate::reconstruct::recompute;
use lima_core::cache::persist::RepairHook;
use lima_core::config::LimaConfig;
use lima_core::lineage::LinRef;
use lima_matrix::pool::panic_message;
use lima_matrix::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Builds the runtime's standard repair hook: recompute-from-lineage in a
/// fresh cacheless context. Panics inside kernels are contained and surfaced
/// as repair errors so a poisoned entry is quarantined instead of taking the
/// scrubber (or recovery) down with it.
///
/// Entries whose lineage is closed (literals, `rand` with captured seeds)
/// always repair; entries with `read` leaves additionally need the serving
/// [`DataRegistry`] — see [`registry_repairer`].
pub fn lineage_repairer() -> RepairHook {
    registry_repairer(Arc::new(DataRegistry::new()))
}

/// Like [`lineage_repairer`], but `read` leaves in the reconstructed program
/// are served from `data`. This is the hook contexts and session pools
/// install: they pass their own registry, so anything registered before a
/// scrub- or fetch-time repair is available to the recomputation.
pub fn registry_repairer(data: Arc<DataRegistry>) -> RepairHook {
    RepairHook::new(move |root: &LinRef| repair_once(root, &data))
}

fn repair_once(root: &LinRef, data: &Arc<DataRegistry>) -> Result<Value, String> {
    let root = root.clone();
    let data = Arc::clone(data);
    let out = catch_unwind(AssertUnwindSafe(move || {
        let mut ctx = ExecutionContext::with_cache(LimaConfig::base(), None);
        ctx.data = data;
        recompute(&root, &mut ctx).map_err(|e| e.to_string())
    }));
    match out {
        Ok(r) => r,
        Err(panic) => Err(format!(
            "repair panicked: {}",
            panic_message(panic.as_ref())
        )),
    }
}

/// Installs [`registry_repairer`] over `data` into a config when persistence
/// is enabled and no hook was set explicitly. Returns the (possibly updated)
/// config.
pub fn with_default_repair(config: LimaConfig, data: &Arc<DataRegistry>) -> LimaConfig {
    if config.persist.as_ref().is_some_and(|p| p.repair.is_none()) {
        config.with_repair(registry_repairer(Arc::clone(data)))
    } else {
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_core::lineage::LineageItem;

    #[test]
    fn repairer_recomputes_scalar_expression() {
        let a = LineageItem::literal("f:4");
        let b = LineageItem::literal("f:2.5");
        let root = LineageItem::op("+", vec![a, b]);
        let hook = lineage_repairer();
        let got = hook.repair(&root).unwrap();
        assert_eq!(got.as_f64().unwrap(), 6.5);
    }

    #[test]
    fn repairer_reports_unreconstructible_lineage_as_error() {
        // A bare placeholder has no producing operation to replay.
        let ph = LineageItem::placeholder(7);
        let hook = lineage_repairer();
        assert!(hook.repair(&ph).is_err());
    }

    #[test]
    fn default_repair_installs_only_with_persistence() {
        let data = Arc::new(DataRegistry::new());
        let plain = with_default_repair(LimaConfig::lima(), &data);
        assert!(plain.persist.is_none());
        let dir = std::env::temp_dir().join(format!("lima-repair-{}", std::process::id()));
        let persisted = with_default_repair(LimaConfig::lima().with_persistence(&dir), &data);
        assert!(persisted.persist.unwrap().repair.is_some());
    }

    #[test]
    fn registry_repairer_serves_read_leaves_from_shared_registry() {
        let data = Arc::new(DataRegistry::new());
        let hook = registry_repairer(Arc::clone(&data));
        let root = LineageItem::op(
            "+",
            vec![
                LineageItem::op_with_data("read", "ds", vec![]),
                LineageItem::literal("f:1.5"),
            ],
        );
        // Before the dataset is registered the repair fails cleanly...
        assert!(hook.repair(&root).is_err());
        // ...and succeeds once the live registry can serve the leaf.
        data.register("ds", Value::f64(2.0));
        let got = hook.repair(&root).unwrap();
        assert_eq!(got.as_f64().unwrap(), 3.5);
    }
}
