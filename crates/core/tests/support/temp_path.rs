//! Self-removing spill-file paths. Std only, so the store's unit tests
//! (`crates/core/src/store/tests.rs`) include this file by path as well
//! as the suites that include `support`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A spill-file path in the temp dir, named by `tag`, the process id and
/// a count of the paths made before it in the process (tests of one
/// binary run at once): removed if it is there when made, and again when
/// dropped.
pub struct TempPath(PathBuf);

impl TempPath {
    pub fn new(tag: &str) -> TempPath {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let name = format!("cc-test-{tag}-{}-{n}.bin", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        TempPath(path)
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
