//! Portable archives: a whole store (or a selection of stages) in one
//! file, for moving warm caches between machines or check-pointing runs.
//!
//! An archive is a small header followed by a plain concatenation of
//! [record](crate::record)s:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ONOA"
//! 4       4     format version (u32 LE, currently 1)
//! 8       8     record count (u64 LE)
//! 16      ..    records, back to back, each self-checksummed
//! ```
//!
//! There is no archive-level checksum: every record already carries its
//! own, so damage is localised — import walks the concatenation, adopts
//! every record that validates, and *skips and counts* the rest. A
//! corrupted record usually desynchronises the walk (record framing has
//! no resync marker), in which case the remaining bytes are counted as
//! skipped too; the summary reports exactly how much survived.

use crate::disk::DiskStore;
use crate::record::{decode_record, RecordError, FORMAT_VERSION};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// The four magic bytes opening every archive.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"ONOA";

/// What an export or import actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchiveSummary {
    /// Records successfully exported or imported.
    pub records: u64,
    /// Records present but skipped: corrupt, truncated, or
    /// version-skewed. On import a skipped record may hide the rest of
    /// the archive behind it (no resync marker), and those are counted
    /// here too.
    pub skipped: u64,
    /// Total payload bytes moved (excluding framing).
    pub payload_bytes: u64,
}

impl fmt::Display for ArchiveSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s), {} skipped, {} payload byte(s)",
            self.records, self.skipped, self.payload_bytes
        )
    }
}

/// Why an archive could not be processed at all.
///
/// Per-record damage is *not* an error — it is skip-and-count, reported
/// through [`ArchiveSummary::skipped`]. This type covers only failures
/// that prevent interpreting the archive in the first place.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArchiveError {
    /// The file does not start with [`ARCHIVE_MAGIC`].
    BadMagic,
    /// The archive was written by an unknown (future) format version.
    UnsupportedVersion(u32),
    /// The archive header is incomplete.
    TruncatedHeader,
    /// An underlying I/O failure (reading or writing the archive file).
    Io(io::Error),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::BadMagic => write!(f, "not an ONOC archive (bad magic)"),
            ArchiveError::UnsupportedVersion(v) => write!(
                f,
                "archive format version {v} is newer than the supported {FORMAT_VERSION}"
            ),
            ArchiveError::TruncatedHeader => write!(f, "archive header is truncated"),
            ArchiveError::Io(e) => write!(f, "archive i/o error: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

/// Collects the record files of a store in deterministic (sorted) order.
fn record_files(root: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut files = Vec::new();
    for stage_entry in std::fs::read_dir(root)? {
        let stage_dir = stage_entry?.path();
        if !stage_dir.is_dir() {
            continue;
        }
        for file_entry in std::fs::read_dir(&stage_dir)? {
            let path = file_entry?.path();
            let is_record = path.extension().is_some_and(|ext| ext == "onoc") && path.is_file();
            if is_record {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Exports every valid record under `store`'s root into one archive
/// written to `writer`. Records that fail validation on the way out are
/// skipped and counted — an export never launders corruption into a
/// "clean" archive.
///
/// # Errors
///
/// [`ArchiveError::Io`] when the store cannot be listed or the writer
/// fails; per-record damage is reported via the summary instead.
pub fn export_archive(
    store: &DiskStore,
    writer: &mut dyn Write,
) -> Result<ArchiveSummary, ArchiveError> {
    let files = record_files(store.root())?;
    let mut summary = ArchiveSummary::default();
    let mut body: Vec<u8> = Vec::new();
    for path in files {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                summary.skipped += 1;
                continue;
            }
        };
        match decode_record(&bytes) {
            Ok((record, consumed)) if consumed == bytes.len() => {
                summary.records += 1;
                summary.payload_bytes += record.payload.len() as u64;
                body.extend_from_slice(&bytes);
            }
            _ => {
                summary.skipped += 1;
            }
        }
    }
    writer.write_all(&ARCHIVE_MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&summary.records.to_le_bytes())?;
    writer.write_all(&body)?;
    writer.flush()?;
    Ok(summary)
}

/// Exports the store into an archive file at `path` (written atomically
/// via a sibling temp file).
///
/// # Errors
///
/// See [`export_archive`].
pub fn export_to_path(store: &DiskStore, path: &Path) -> Result<ArchiveSummary, ArchiveError> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    let summary = match export_archive(store, &mut file) {
        Ok(s) => s,
        Err(e) => {
            drop(file);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(summary)
}

/// Imports an archive from `reader` into `store`, adopting every record
/// that validates and skipping-and-counting the rest.
///
/// # Errors
///
/// [`ArchiveError`] when the archive itself cannot be interpreted (bad
/// magic, future version, truncated header, I/O failure). Per-record
/// damage is never an error.
pub fn import_archive(
    store: &DiskStore,
    reader: &mut dyn Read,
) -> Result<ArchiveSummary, ArchiveError> {
    let mut header = [0u8; 16];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    if filled < 8 {
        return Err(ArchiveError::TruncatedHeader);
    }
    if header[..4] != ARCHIVE_MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version > FORMAT_VERSION {
        return Err(ArchiveError::UnsupportedVersion(version));
    }
    if filled < header.len() {
        return Err(ArchiveError::TruncatedHeader);
    }
    let declared = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);

    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;

    let mut summary = ArchiveSummary::default();
    let mut offset = 0usize;
    while offset < body.len() {
        match decode_record(&body[offset..]) {
            Ok((record, consumed)) => {
                match store.adopt_record(&body[offset..offset + consumed]) {
                    Ok(()) => {
                        summary.records += 1;
                        summary.payload_bytes += record.payload.len() as u64;
                    }
                    Err(_) => summary.skipped += 1,
                }
                offset += consumed;
            }
            Err(RecordError::BadMagic) => {
                // Desynchronised (or trailing garbage): without a resync
                // marker everything from here on is unrecoverable. Count
                // what the header promised but we could not deliver.
                summary.skipped += declared
                    .saturating_sub(summary.records + summary.skipped)
                    .max(1);
                break;
            }
            Err(_) => {
                // A damaged record at a known boundary. Its framing is
                // untrustworthy, so the walk cannot reliably continue.
                summary.skipped += declared
                    .saturating_sub(summary.records + summary.skipped)
                    .max(1);
                break;
            }
        }
    }
    Ok(summary)
}

/// Imports an archive file at `path` into `store`.
///
/// # Errors
///
/// See [`import_archive`].
pub fn import_from_path(store: &DiskStore, path: &Path) -> Result<ArchiveSummary, ArchiveError> {
    let mut file = std::fs::File::open(path)?;
    import_archive(store, &mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::Scratch;
    use onoc_ctx::{ArtifactStore, ContentKey};

    fn scratch(name: &str) -> Scratch {
        Scratch::new(&format!("onoc-archive-test-{name}"))
    }

    fn seeded_store(name: &str) -> Scratch {
        let store = scratch(name);
        store.save("cluster", ContentKey([1, 2]), b"cluster payload");
        store.save("route", ContentKey([3, 4]), b"route payload, longer");
        store.save("assign", ContentKey([5, 6]), b"a");
        store
    }

    #[test]
    fn export_import_round_trips() {
        let src = seeded_store("rt-src");
        let mut archive = Vec::new();
        let exported = export_archive(&src, &mut archive).unwrap();
        assert_eq!(exported.records, 3);
        assert_eq!(exported.skipped, 0);

        let dst = scratch("rt-dst");
        let imported = import_archive(&dst, &mut archive.as_slice()).unwrap();
        assert_eq!(imported.records, 3);
        assert_eq!(imported.skipped, 0);
        assert_eq!(imported.payload_bytes, exported.payload_bytes);
        assert_eq!(
            dst.load("cluster", ContentKey([1, 2])).as_deref(),
            Some(&b"cluster payload"[..])
        );
        assert_eq!(
            dst.load("route", ContentKey([3, 4])).as_deref(),
            Some(&b"route payload, longer"[..])
        );
        assert_eq!(
            dst.load("assign", ContentKey([5, 6])).as_deref(),
            Some(&b"a"[..])
        );
    }

    #[test]
    fn corrupt_archive_byte_is_skipped_and_counted() {
        let src = seeded_store("corrupt-src");
        let mut archive = Vec::new();
        export_archive(&src, &mut archive).unwrap();
        // Damage the *last* byte: the trailing checksum of the final
        // record, so earlier records still import.
        let last = archive.len() - 1;
        archive[last] ^= 0xff;

        let dst = scratch("corrupt-dst");
        let imported = import_archive(&dst, &mut archive.as_slice()).unwrap();
        assert_eq!(imported.records, 2);
        assert!(imported.skipped >= 1);
    }

    #[test]
    fn export_skips_corrupt_store_files() {
        let src = seeded_store("dirty-src");
        // Corrupt one record on disk before exporting.
        let path = src.record_path("route", ContentKey([3, 4]));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut archive = Vec::new();
        let exported = export_archive(&src, &mut archive).unwrap();
        assert_eq!(exported.records, 2);
        assert_eq!(exported.skipped, 1);

        let dst = scratch("dirty-dst");
        let imported = import_archive(&dst, &mut archive.as_slice()).unwrap();
        assert_eq!(imported.records, 2);
        assert_eq!(imported.skipped, 0);
    }

    #[test]
    fn bad_magic_and_future_version_are_fatal() {
        let dst = scratch("fatal-dst");
        let mut bogus = b"NOPE".to_vec();
        bogus.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            import_archive(&dst, &mut bogus.as_slice()),
            Err(ArchiveError::BadMagic)
        ));

        let mut future = ARCHIVE_MAGIC.to_vec();
        future.extend_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        future.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            import_archive(&dst, &mut future.as_slice()),
            Err(ArchiveError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 7
        ));

        assert!(matches!(
            import_archive(&dst, &mut &b"ON"[..]),
            Err(ArchiveError::TruncatedHeader)
        ));
    }

    #[test]
    fn path_helpers_round_trip() {
        let src = seeded_store("path-src");
        let dir = scratch("path-archive");
        let file = dir.root().join("cache.onoca");
        let exported = export_to_path(&src, &file).unwrap();
        let dst = scratch("path-dst");
        let imported = import_from_path(&dst, &file).unwrap();
        assert_eq!(exported.records, imported.records);
        assert_eq!(dst.stats().writes, 3);
    }
}
