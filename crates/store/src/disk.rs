//! The on-disk artifact store: one validated record file per
//! `(stage, key)` pair under a root directory.
//!
//! `DiskStore` is the persistent tier behind the in-memory
//! `ArtifactCache` (see [`onoc_ctx::ArtifactStore`]): lookups fall
//! through memory → disk → compute, inserts write through. The store is
//! deliberately *lossy under failure*: a record that cannot be read and
//! validated — missing, truncated, checksum-mismatched, version-skewed or
//! misfiled — yields `None` and ticks the matching [`StoreStats`]
//! counter, and a failed write ticks `write_errors`; neither ever fails
//! the pipeline, which simply recomputes.
//!
//! # Layout on disk
//!
//! ```text
//! <root>/<stage>/<key-as-32-hex-chars>.onoc   one record per artifact
//! ```
//!
//! Writes are atomic: the record is written to a unique temporary file in
//! the same directory and `rename`d into place, so a concurrent reader
//! (or a crash mid-write) sees either the whole valid record or nothing.

use crate::record::{decode_record, encode_record, RecordError};
use onoc_ctx::{ArtifactStore, ContentKey, StoreStats};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File extension of record files.
const RECORD_EXT: &str = "onoc";

/// A persistent artifact store rooted at a directory.
pub struct DiskStore {
    root: PathBuf,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    version_skips: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Maps a stage name to a directory name: stage names are `'static`
/// identifiers today, but the mapping stays total for robustness —
/// anything outside `[A-Za-z0-9_-]` becomes `_`. The true stage name is
/// recorded *inside* each record and verified on load, so two stages
/// colliding on a sanitized directory name can never alias artifacts.
fn stage_dir_name(stage: &str) -> String {
    let mapped: String = stage
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if mapped.is_empty() {
        "_".to_string()
    } else {
        mapped
    }
}

impl DiskStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            version_skips: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The root directory of the store.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The record file path for `(stage, key)`.
    #[must_use]
    pub fn record_path(&self, stage: &str, key: ContentKey) -> PathBuf {
        self.root
            .join(stage_dir_name(stage))
            .join(format!("{key}.{RECORD_EXT}"))
    }

    /// Writes `record_bytes` (an already-framed record) for `(stage,
    /// key)` atomically: unique temp file in the target directory, then
    /// rename.
    fn write_record(&self, stage: &str, key: ContentKey, record_bytes: &[u8]) -> io::Result<()> {
        let path = self.record_path(stage, key);
        let dir = path.parent().unwrap_or(&self.root);
        std::fs::create_dir_all(dir)?;
        let unique = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{key}-{}-{unique}", std::process::id()));
        std::fs::write(&tmp, record_bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Leave no temp litter behind a failed rename.
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Adopts one already-framed record (used by archive import): the
    /// record is validated, then written verbatim under its own
    /// `(stage, key)` address.
    ///
    /// # Errors
    ///
    /// [`RecordError`] when the bytes do not form one valid record;
    /// [`io::Error`] (stringified into [`RecordError::Malformed`]) never
    /// occurs — I/O failures are counted as `write_errors` instead, in
    /// keeping with the best-effort write contract.
    pub fn adopt_record(&self, record_bytes: &[u8]) -> Result<(), RecordError> {
        let (record, consumed) = decode_record(record_bytes)?;
        if consumed != record_bytes.len() {
            return Err(RecordError::Malformed(
                "trailing bytes after record".to_string(),
            ));
        }
        match self.write_record(&record.stage, record.key, record_bytes) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

impl ArtifactStore for DiskStore {
    fn load(&self, stage: &str, key: ContentKey) -> Option<Vec<u8>> {
        let path = self.record_path(stage, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Unreadable is indistinguishable from damaged for the
                // caller; count it as corruption, not a plain miss.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_record(&bytes) {
            Ok((record, consumed))
                if consumed == bytes.len() && record.stage == stage && record.key == key =>
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record.payload)
            }
            Ok(_) => {
                // A valid record filed under the wrong name (renamed or
                // copied by hand): never trust it for this address.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(RecordError::UnsupportedVersion(_)) => {
                self.version_skips.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn save(&self, stage: &str, key: ContentKey, payload: &[u8]) {
        let record_bytes = encode_record(stage, key, payload);
        match self.write_record(stage, key, &record_bytes) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            version_skips: self.version_skips.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A store in a fresh per-process directory under the temp dir. The
    /// directory goes when the guard drops, a panicking test included.
    pub(crate) struct Scratch {
        pub(crate) store: DiskStore,
    }

    impl Scratch {
        pub(crate) fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch {
                store: DiskStore::open(dir).unwrap(),
            }
        }
    }

    impl std::ops::Deref for Scratch {
        type Target = DiskStore;
        fn deref(&self) -> &DiskStore {
            &self.store
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.store.root());
        }
    }

    fn scratch(name: &str) -> Scratch {
        Scratch::new(&format!("onoc-store-test-{name}"))
    }

    #[test]
    fn save_load_round_trip_with_counters() {
        let store = scratch("roundtrip");
        let key = ContentKey([7, 9]);
        assert_eq!(store.load("cluster", key), None);
        store.save("cluster", key, b"artifact");
        assert_eq!(
            store.load("cluster", key).as_deref(),
            Some(&b"artifact"[..])
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
        assert_eq!((s.corrupt, s.version_skips, s.write_errors), (0, 0, 0));
    }

    #[test]
    fn stages_namespace_files() {
        let store = scratch("namespace");
        let key = ContentKey([1, 1]);
        store.save("cluster", key, b"a");
        assert_eq!(store.load("route", key), None);
        assert_eq!(store.load("cluster", key).as_deref(), Some(&b"a"[..]));
    }

    #[test]
    fn corrupt_file_is_skipped_and_counted() {
        let store = scratch("corrupt");
        let key = ContentKey([2, 2]);
        store.save("assign", key, b"precious");
        let path = store.record_path("assign", key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load("assign", key),
            None,
            "corruption must not be trusted"
        );
        assert_eq!(store.stats().corrupt, 1);
        // A re-save repairs the slot.
        store.save("assign", key, b"precious");
        assert_eq!(store.load("assign", key).as_deref(), Some(&b"precious"[..]));
    }

    #[test]
    fn truncated_file_is_skipped_and_counted() {
        let store = scratch("truncated");
        let key = ContentKey([3, 3]);
        store.save("route", key, b"some payload");
        let path = store.record_path("route", key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load("route", key), None);
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn misfiled_record_is_never_trusted() {
        let store = scratch("misfiled");
        let a = ContentKey([4, 4]);
        let b = ContentKey([5, 5]);
        store.save("layout", a, b"for key a");
        // Copy a's (internally valid) record into b's slot.
        std::fs::create_dir_all(store.record_path("layout", b).parent().unwrap()).unwrap();
        std::fs::copy(
            store.record_path("layout", a),
            store.record_path("layout", b),
        )
        .unwrap();
        assert_eq!(store.load("layout", b), None);
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn future_version_is_counted_separately() {
        use crate::record::{encode_record, FORMAT_VERSION};
        let store = scratch("future");
        let key = ContentKey([6, 6]);
        let mut bytes = encode_record("pdn", key, b"from the future");
        bytes[4] = (FORMAT_VERSION + 1) as u8;
        // Re-stamp the checksum so only the version is "wrong".
        let end = bytes.len() - 16;
        let mut hasher = onoc_ctx::ContentHasher::new();
        hasher.write_bytes(&bytes[..end]);
        let digest = hasher.finish();
        bytes[end..end + 8].copy_from_slice(&digest.0[0].to_le_bytes());
        bytes[end + 8..].copy_from_slice(&digest.0[1].to_le_bytes());
        let path = store.record_path("pdn", key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("pdn", key), None);
        let s = store.stats();
        assert_eq!(s.version_skips, 1);
        assert_eq!(s.corrupt, 0);
    }

    #[test]
    fn stage_dir_names_are_sanitized() {
        assert_eq!(stage_dir_name("cluster"), "cluster");
        assert_eq!(stage_dir_name("a/b..c"), "a_b__c");
        assert_eq!(stage_dir_name(""), "_");
    }
}
