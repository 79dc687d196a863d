//! The versioned record framing of the interchange format.
//!
//! One record carries one artifact payload, self-described and
//! self-validating:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ONOC"
//! 4       4     format version (u32 LE, [`FORMAT_VERSION`])
//! 8       8+s   stage name (u64 LE length prefix + UTF-8 bytes)
//! ..      16    content key (2 × u64 LE)
//! ..      8     payload length (u64 LE)
//! ..      n     payload (a `Persist` encoding; opaque at this layer)
//! ..      16    checksum (2 × u64 LE)
//! ```
//!
//! The checksum is the 128-bit [`ContentHasher`] digest over **everything
//! before it** — header and payload — so any flipped bit anywhere in the
//! record is detected, not just payload damage. Records are gated by the
//! version field: a record written by any *other* format version — newer
//! or older — is reported as [`RecordError::UnsupportedVersion`] (skipped
//! and counted by the store tier), never guessed at. Payload layouts are
//! not self-describing, so an older record is just as undecodable as a
//! future one; the store treats both as misses and rewrites fresh.
//!
//! Version history: 1 = initial layout; 2 = `SolveStats` payloads gained
//! the presolve column-elimination and sparse-LU factorization counters;
//! 3 = `SolveStats` payloads gained the canonical-pass node and pivot
//! counters; 4 = `SolveStats` payloads gained the reused-LP counter;
//! 5 = `SolveStats` payloads dropped the canonical-pass counters.

use crate::codec::{Decoder, Encoder};
use onoc_ctx::{ContentHasher, ContentKey};
use std::fmt;

/// The four magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"ONOC";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 5;

/// One decoded record: the `(stage, key)` address and the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The stage namespace the payload belongs to.
    pub stage: String,
    /// The content key of the artifact.
    pub key: ContentKey,
    /// The artifact payload (a `Persist` encoding; opaque at this layer).
    pub payload: Vec<u8>,
}

/// Why a record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordError {
    /// Fewer bytes than the framing requires.
    Truncated {
        /// Byte offset at which the input ran out.
        offset: usize,
    },
    /// The first four bytes are not [`RECORD_MAGIC`].
    BadMagic,
    /// The record was written by a different format version (older layouts
    /// are not payload-compatible, future ones are unknown).
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the record contents.
    ChecksumMismatch,
    /// Structurally invalid framing (bad stage string, impossible
    /// length, ...).
    Malformed(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { offset } => {
                write!(f, "record truncated at byte {offset}")
            }
            RecordError::BadMagic => write!(f, "not an ONOC record (bad magic)"),
            RecordError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "record format version {v} is not the supported {FORMAT_VERSION}"
                )
            }
            RecordError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            RecordError::Malformed(m) => write!(f, "malformed record: {m}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn checksum_of(bytes: &[u8]) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// Encodes one record with the current [`FORMAT_VERSION`].
#[must_use]
pub fn encode_record(stage: &str, key: ContentKey, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(&RECORD_MAGIC);
    enc.put_u32(FORMAT_VERSION);
    enc.put_str(stage);
    enc.put_u64(key.0[0]);
    enc.put_u64(key.0[1]);
    enc.put_bytes(payload);
    let digest = checksum_of(enc.as_bytes());
    enc.put_u64(digest.0[0]);
    enc.put_u64(digest.0[1]);
    enc.into_bytes()
}

/// Decodes and validates one record from the front of `bytes`, returning
/// it together with the number of bytes it occupied (so archives can
/// walk a concatenation of records).
///
/// # Errors
///
/// [`RecordError`] on truncation, wrong magic, a mismatched format
/// version, checksum mismatch, or malformed framing. Validation order
/// matters for the caller's counters: magic and version are checked
/// *before* the checksum, so a valid record of another format version is
/// reported as [`RecordError::UnsupportedVersion`] rather than as
/// corruption.
pub fn decode_record(bytes: &[u8]) -> Result<(Record, usize), RecordError> {
    let mut dec = Decoder::new(bytes);
    let truncated = |d: &Decoder<'_>| RecordError::Truncated {
        offset: d.position(),
    };
    let magic = dec.take_raw(4).map_err(|_| truncated(&dec))?;
    if magic != RECORD_MAGIC {
        return Err(RecordError::BadMagic);
    }
    let version = dec.take_u32().map_err(|_| truncated(&dec))?;
    if version == 0 {
        return Err(RecordError::Malformed("format version 0".to_string()));
    }
    // Older versions are as unreadable as future ones: payload layouts
    // are not self-describing, so anything but an exact match is skipped.
    if version != FORMAT_VERSION {
        return Err(RecordError::UnsupportedVersion(version));
    }
    let stage = dec
        .take_str()
        .map_err(|e| {
            if e.message.contains("truncated") || e.message.contains("implies") {
                truncated(&dec)
            } else {
                RecordError::Malformed(e.to_string())
            }
        })?
        .to_string();
    let k0 = dec.take_u64().map_err(|_| truncated(&dec))?;
    let k1 = dec.take_u64().map_err(|_| truncated(&dec))?;
    let payload_start = dec.position();
    let payload = dec
        .take_bytes()
        .map_err(|_| RecordError::Truncated {
            offset: payload_start,
        })?
        .to_vec();
    let checksummed_end = dec.position();
    let c0 = dec.take_u64().map_err(|_| truncated(&dec))?;
    let c1 = dec.take_u64().map_err(|_| truncated(&dec))?;
    let digest = checksum_of(&bytes[..checksummed_end]);
    if digest != ContentKey([c0, c1]) {
        return Err(RecordError::ChecksumMismatch);
    }
    Ok((
        Record {
            stage,
            key: ContentKey([k0, k1]),
            payload,
        },
        dec.position(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_record("assign", ContentKey([0xdead, 0xbeef]), b"payload bytes")
    }

    #[test]
    fn record_round_trips() {
        let bytes = sample();
        let (record, consumed) = decode_record(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(record.stage, "assign");
        assert_eq!(record.key, ContentKey([0xdead, 0xbeef]));
        assert_eq!(record.payload, b"payload bytes");
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Exhaustive single-bit-flip sweep: any damaged byte must fail
        // validation (the checksum covers header *and* payload) — flipping
        // can surface as any error variant, but never as silent success
        // with altered content.
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match decode_record(&bad) {
                Err(_) => {}
                Ok((record, _)) => {
                    panic!("flip at byte {i} decoded successfully: {:?}", record.stage);
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let bytes = sample();
        for len in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn future_versions_are_skipped_not_trusted() {
        // A newer version, and the previous one — what a disk cache
        // written before the last bump holds — are both rejected.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
            let mut bytes = sample();
            // Set the version field (bytes 4..8) and re-stamp the checksum
            // so *only* the version is wrong.
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let end = bytes.len() - 16;
            let digest = checksum_of(&bytes[..end]);
            bytes[end..end + 8].copy_from_slice(&digest.0[0].to_le_bytes());
            bytes[end + 8..].copy_from_slice(&digest.0[1].to_le_bytes());
            assert_eq!(
                decode_record(&bytes),
                Err(RecordError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn bad_magic_is_its_own_error() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(decode_record(&bytes), Err(RecordError::BadMagic));
    }

    #[test]
    fn concatenated_records_walk_cleanly() {
        let a = encode_record("cluster", ContentKey([1, 2]), b"aa");
        let b = encode_record("route", ContentKey([3, 4]), b"bbbb");
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let (first, consumed) = decode_record(&joined).unwrap();
        assert_eq!(first.stage, "cluster");
        let (second, rest) = decode_record(&joined[consumed..]).unwrap();
        assert_eq!(second.stage, "route");
        assert_eq!(consumed + rest, joined.len());
    }
}
