//! Disk spilling of evicted cache entries (paper §4.3): the lifecycle of a
//! per-process scratch directory, plus the fault sites around its I/O.
//!
//! Only matrices are spilled (scalars are too small to matter; lists are
//! dropped and recomputed). Files are in the checksummed file form of
//! [`lima_matrix::codec`] — the same bytes the persistent store writes — so
//! a damaged spill file always restores to a clean error, never to a
//! silently wrong matrix.
//!
//! A [`crate::faults::FaultInjector`] can be attached to exercise write
//! failures, read failures, and on-disk corruption deterministically.

use crate::faults::{FaultInjector, FaultSite};
use lima_matrix::{codec, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Manages the spill directory lifecycle; files are removed on drop.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    faults: Option<Arc<FaultInjector>>,
}

impl SpillStore {
    /// Creates a per-process spill directory under the system temp dir.
    pub fn new() -> std::io::Result<Self> {
        Self::with_faults(None)
    }

    /// [`Self::new`] with an optional fault-injection harness attached.
    pub fn with_faults(faults: Option<Arc<FaultInjector>>) -> std::io::Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "lima-spill-{}-{}",
            std::process::id(),
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        Ok(SpillStore { dir, faults })
    }

    /// The scratch directory spill files are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Spills a matrix value; returns the file path and bytes written.
    /// Returns `None` for non-matrix values (they are not spillable).
    pub fn spill(&self, value: &Value) -> std::io::Result<Option<(PathBuf, usize)>> {
        let (Value::Matrix(_), Some(encoded)) = (value, codec::encode_file(value)) else {
            return Ok(None);
        };
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SlowSpill) {
                // Latency (not failure) injection: a degraded disk that still
                // completes writes, exercising deadline checks around I/O.
                std::thread::sleep(std::time::Duration::from_millis(
                    crate::faults::SLOW_SPILL_DELAY_MS,
                ));
            }
            if f.should_fail(FaultSite::SpillWrite) {
                return Err(FaultInjector::io_error(FaultSite::SpillWrite));
            }
        }
        let path = self.dir.join(format!(
            "e{}.bin",
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&path, &encoded)?;
        #[cfg(any(test, feature = "faults"))]
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SpillCorrupt) {
                // Flip one byte at a position derived from the injection
                // count; the damage is found at restore time, not now.
                corrupt_file(&path, f.injected(FaultSite::SpillCorrupt))?;
            }
        }
        Ok(Some((path, encoded.len())))
    }

    /// Restores a previously spilled matrix and deletes the file.
    pub fn restore(&self, path: &Path) -> std::io::Result<Value> {
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SpillRead) {
                return Err(FaultInjector::io_error(FaultSite::SpillRead));
            }
        }
        let value = codec::read_file(path)?;
        let _ = fs::remove_file(path);
        Ok(value)
    }

    /// Removes a spill file without restoring (entry deleted while spilled).
    /// A file already removed by external cleanup (tmpwatch, a parallel
    /// clear) is not a failure; only genuinely failed removals report
    /// `false`.
    pub fn discard(&self, path: &Path) -> bool {
        match fs::remove_file(path) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(_) => false,
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // The directory may already be gone (external temp cleanup); that is
        // the desired end state, not a failure worth surfacing.
        if let Err(e) = fs::remove_dir_all(&self.dir) {
            debug_assert!(
                e.kind() == std::io::ErrorKind::NotFound,
                "spill cleanup failed: {e}"
            );
        }
    }
}

/// XORs a deterministic position of the file with a nonzero mask (fault
/// injection and corruption tests). Compiled only for tests and the
/// `faults` feature: production builds carry no file-corruption helper.
#[cfg(any(test, feature = "faults"))]
pub fn corrupt_file(path: &Path, salt: u64) -> std::io::Result<()> {
    let mut raw = fs::read(path)?;
    if raw.is_empty() {
        return Ok(());
    }
    let pos = (salt as usize).wrapping_mul(0x9E37_79B9) % raw.len();
    raw[pos] ^= 0x01 | (salt as u8 & 0xFE);
    fs::write(path, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_matrix::DenseMatrix;

    #[test]
    fn spill_and_restore_round_trips() {
        let store = SpillStore::new().unwrap();
        let m = DenseMatrix::from_fn(13, 7, |i, j| (i * 7 + j) as f64 * 0.5 - 3.0);
        let v = Value::matrix(m.clone());
        let (path, bytes) = store.spill(&v).unwrap().unwrap();
        assert_eq!(bytes as u64, fs::metadata(&path).unwrap().len());
        let back = store.restore(&path).unwrap();
        assert!(back.as_matrix().unwrap().approx_eq(&m, 0.0));
        assert!(!path.exists(), "restore deletes the spill file");
    }

    #[test]
    fn non_matrix_values_are_not_spilled() {
        let store = SpillStore::new().unwrap();
        assert!(store.spill(&Value::f64(1.0)).unwrap().is_none());
        assert!(store.spill(&Value::list(vec![])).unwrap().is_none());
    }

    #[test]
    fn discard_removes_file() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.discard(&path));
        assert!(!path.exists());
    }

    #[test]
    fn discard_tolerates_already_missing_files() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        fs::remove_file(&path).unwrap(); // external cleanup beat us to it
        assert!(store.discard(&path), "missing file is not a failure");
        assert!(store.discard(Path::new("/nonexistent/lima/spill.bin")));
    }

    #[test]
    fn drop_tolerates_externally_removed_directory() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        store.spill(&v).unwrap();
        fs::remove_dir_all(&store.dir).unwrap();
        drop(store); // must not panic (debug_assert accepts NotFound)
    }

    #[test]
    fn injected_write_and_read_faults_surface_as_errors() {
        let inj = Arc::new(
            FaultInjector::new(0)
                .fail_at(FaultSite::SpillWrite, &[0])
                .fail_at(FaultSite::SpillRead, &[1]),
        );
        let store = SpillStore::with_faults(Some(Arc::clone(&inj))).unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        assert!(store.spill(&v).is_err(), "first write fails");
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.restore(&path).is_ok(), "first read passes");
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.restore(&path).is_err(), "second read fails");
        assert_eq!(inj.injected(FaultSite::SpillWrite), 1);
        assert_eq!(inj.injected(FaultSite::SpillRead), 1);
    }

    #[test]
    fn injected_corruption_is_caught_at_restore() {
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillCorrupt, 1));
        let store = SpillStore::with_faults(Some(inj)).unwrap();
        let v = Value::matrix(DenseMatrix::from_fn(5, 5, |i, j| (i * j) as f64));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        let err = store.restore(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn drop_cleans_directory() {
        let dir;
        {
            let store = SpillStore::new().unwrap();
            dir = store.dir.clone();
            let v = Value::matrix(DenseMatrix::zeros(2, 2));
            store.spill(&v).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
