//! The I/O world: the simulated parallel filesystem file operations run
//! against, plus cross-rank shared state (shared file pointers).

use beff_pfs::Pfs;
use beff_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shared I/O state for all ranks (create once, capture in the rank
/// closure).
pub struct IoWorld {
    pfs: Arc<Pfs>,
    shared_ptrs: Mutex<BTreeMap<String, Arc<Mutex<u64>>>>,
}

impl IoWorld {
    pub fn sim(pfs: Arc<Pfs>) -> Arc<Self> {
        Arc::new(Self { pfs, shared_ptrs: Mutex::new(BTreeMap::new()) })
    }

    /// The filesystem behind this world.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// The shared file pointer cell for `path` (created on demand).
    pub(crate) fn shared_ptr(&self, path: &str) -> Arc<Mutex<u64>> {
        Arc::clone(
            self.shared_ptrs
                .lock()
                .entry(path.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(0))),
        )
    }

    /// Remove a file from the filesystem (used by delete-on-close and
    /// benchmark cleanup between patterns).
    pub fn unlink(&self, path: &str) {
        self.shared_ptrs.lock().remove(path);
        self.pfs.unlink(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_pfs::PfsConfig;

    #[test]
    fn shared_ptr_is_per_path_and_stable() {
        let w = IoWorld::sim(Arc::new(Pfs::new(PfsConfig::default())));
        let a = w.shared_ptr("f1");
        let b = w.shared_ptr("f1");
        let c = w.shared_ptr("f2");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        *a.lock() = 42;
        assert_eq!(*b.lock(), 42);
    }

    #[test]
    fn unlink_resets_shared_ptr() {
        let w = IoWorld::sim(Arc::new(Pfs::new(PfsConfig::default())));
        *w.shared_ptr("f").lock() = 7;
        w.unlink("f");
        assert_eq!(*w.shared_ptr("f").lock(), 0);
    }
}
