//! `onoc-store`: the persistent artifact tier of the synthesis pipeline.
//!
//! Three layers, bottom up:
//!
//! - [`codec`] — the byte-level encoding ([`Encoder`]/[`Decoder`]) and
//!   the [`Persist`] trait that artifact types implement. Little-endian,
//!   length-prefixed, floats by exact bit pattern; hand-rolled because
//!   the build environment is fully offline (no `serde`).
//! - [`record`] — the versioned, checksummed framing that addresses one
//!   payload by `(stage, `[`ContentKey`]`)` and makes every record
//!   self-validating.
//! - [`disk`] / [`archive`] — [`DiskStore`], the on-disk cache tier
//!   behind the in-memory `ArtifactCache` (lookups fall through memory →
//!   disk → compute; inserts write through), and portable single-file
//!   archives for `export`/`import`.
//!
//! The store is *advisory by construction*: a damaged, truncated, or
//! version-skewed record is skipped and counted, never trusted and never
//! fatal — the pipeline falls back to recomputation and the counters
//! surface through `publish_cache_stats` as `cache/disk_*` gauges.
//!
//! ```
//! use onoc_ctx::{ArtifactStore, ContentKey};
//! use onoc_store::DiskStore;
//!
//! let root = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let store = DiskStore::open(&root).unwrap();
//! let key = ContentKey([1, 2]);
//! store.save("cluster", key, b"payload");
//! assert_eq!(store.load("cluster", key).as_deref(), Some(&b"payload"[..]));
//! std::fs::remove_dir_all(&root).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod archive;
pub mod codec;
pub mod disk;
pub mod record;

pub use archive::{
    export_archive, export_to_path, import_archive, import_from_path, ArchiveError, ArchiveSummary,
    ARCHIVE_MAGIC,
};
pub use codec::{DecodeError, Decoder, Encoder, Persist};
pub use disk::DiskStore;
pub use record::{decode_record, encode_record, Record, RecordError, FORMAT_VERSION, RECORD_MAGIC};

use onoc_ctx::ContentKey;
use onoc_trace::TraceReport;

/// Trace reports persist as their canonical JSON sink text: the JSON
/// codec already round-trips reports exactly (durations as integer
/// nanoseconds), and reusing it keeps one source of truth for the
/// report schema.
impl Persist for PersistedReport {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_str(&self.0.to_json());
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let start = dec.position();
        let text = dec.take_str()?;
        TraceReport::from_json(text)
            .map(PersistedReport)
            .map_err(|e| DecodeError {
                message: format!("invalid trace report json: {e}"),
                offset: start,
            })
    }
}

/// A [`TraceReport`] wrapped for persistence.
///
/// The wrapper (rather than a direct `impl Persist for TraceReport`)
/// keeps the orphan rule satisfied without `onoc-trace` having to know
/// about the store.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedReport(pub TraceReport);

/// Encodes a trace report into one framed record under `stage`/`key`.
#[must_use]
pub fn encode_report_record(stage: &str, key: ContentKey, report: &TraceReport) -> Vec<u8> {
    encode_record(
        stage,
        key,
        &PersistedReport(report.clone()).to_store_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_reports_persist_exactly() {
        let mut report = TraceReport::default();
        report.counters.insert("cache/hits".to_string(), 41);
        report.gauges.insert("power/total_db".to_string(), 3.125);
        report.phases.insert(
            "synth/assign".to_string(),
            onoc_trace::PhaseStat {
                calls: 3,
                total: Duration::new(1, 234_567_891),
                max: Duration::from_nanos(999_999_999),
            },
        );
        let bytes = PersistedReport(report.clone()).to_store_bytes();
        let back = PersistedReport::from_store_bytes(&bytes).unwrap();
        assert_eq!(back.0, report);
    }

    #[test]
    fn report_records_frame_and_validate() {
        let mut report = TraceReport::default();
        report.counters.insert("c".to_string(), 1);
        let key = ContentKey([9, 9]);
        let bytes = encode_report_record("report", key, &report);
        let (record, consumed) = decode_record(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(record.stage, "report");
        let back = PersistedReport::from_store_bytes(&record.payload).unwrap();
        assert_eq!(back.0, report);
    }
}
