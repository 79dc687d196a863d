//! The byte-level codec of the interchange format: a little-endian,
//! length-prefixed binary encoding with no self-description beyond what
//! [`Persist`] implementations write themselves.
//!
//! The build environment is fully offline, so — like `trace/json.rs` for
//! JSON — this is hand-rolled rather than `serde`-derived. The encoding
//! is deliberately boring: fixed-width little-endian integers, floats by
//! exact bit pattern (the codec never canonicalizes; artifacts must
//! round-trip bit-identically), and `u64` length prefixes for strings and
//! sequences. [`Decoder`] reports failures with the byte offset they were
//! detected at and bounds every length it reads against the bytes that
//! remain, so a hostile or corrupted payload cannot trigger an outsized
//! allocation.

use std::fmt;
use std::time::Duration;

/// A decode failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the payload where the error was detected.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// An append-only encoder producing the canonical byte form.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes encoded so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a pointer-sized integer as a `u64`, so the encoding is
    /// identical across platforms.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a float by its exact bit pattern (no canonicalization:
    /// persisted artifacts must round-trip bit-identically).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A cursor over an encoded payload.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// The current byte offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`DecodeError`] anchored at the current offset — for semantic
    /// failures discovered by [`Persist`] implementations (an invariant
    /// the decoded value must satisfy, not a framing problem).
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.error(format!(
                "truncated: needed {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the input is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when fewer than four bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(b);
        Ok(u32::from_le_bytes(le))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when fewer than eight bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or when the value does not fit a
    /// `usize` on this platform.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.error(format!("{v} does not fit a usize")))
    }

    /// Reads a sequence length and sanity-bounds it: each element of a
    /// well-formed sequence occupies at least `min_element_size` bytes,
    /// so a length implying more bytes than remain is corruption — it is
    /// rejected *before* any allocation of that size.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or an impossible length.
    pub fn take_len(&mut self, min_element_size: usize) -> Result<usize, DecodeError> {
        let len = self.take_usize()?;
        let implied = len.saturating_mul(min_element_size.max(1));
        if implied > self.remaining() {
            return Err(self.error(format!(
                "length {len} implies {implied} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a float from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when fewer than eight bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a boolean; anything other than `0` or `1` is corruption.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or a malformed byte.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.error(format!("invalid boolean byte {b:#04x}"))),
        }
    }

    /// Reads `n` raw bytes (no length prefix).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when fewer than `n` bytes remain.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or an impossible length.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, an impossible length or invalid
    /// UTF-8.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        let start = self.pos;
        let bytes = self.take_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError {
            message: "invalid utf-8 in string".to_string(),
            offset: start,
        })
    }
}

/// Types with a canonical binary form in the interchange format.
///
/// Implementations must be *total inverses*: `restore(persist(x)) == x`
/// for every value, bit-for-bit (floats included — see
/// [`Encoder::put_f64`]), and must be deterministic (no address- or
/// iteration-order dependence), because persisted artifacts are replayed
/// into pipelines that promise bit-identical reports.
pub trait Persist: Sized {
    /// Appends the canonical encoding of `self`.
    fn persist(&self, enc: &mut Encoder);

    /// Decodes a value previously written by [`persist`](Self::persist).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the bytes are truncated, malformed, or decode
    /// to a value violating the type's invariants.
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// The canonical encoding as a standalone byte vector.
    #[must_use]
    fn to_store_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.persist(&mut enc);
        enc.into_bytes()
    }

    /// Decodes a standalone byte vector; trailing garbage is corruption.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformation, including unconsumed bytes.
    fn from_store_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::restore(&mut dec)?;
        if !dec.is_empty() {
            return Err(dec.error(format!("{} trailing bytes after value", dec.remaining())));
        }
        Ok(value)
    }
}

impl Persist for u32 {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_u64()
    }
}

impl Persist for usize {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_usize(*self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_usize()
    }
}

impl Persist for f64 {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_f64()
    }
}

impl Persist for bool {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_bool()
    }
}

impl Persist for String {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(dec.take_str()?.to_string())
    }
}

impl Persist for Duration {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(self.as_secs());
        enc.put_u32(self.subsec_nanos());
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let secs = dec.take_u64()?;
        let nanos = dec.take_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(dec.error(format!("subsecond nanos {nanos} out of range")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.persist(enc);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(dec)?)),
            b => Err(dec.error(format!("invalid option tag {b:#04x}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for v in self {
            v.persist(enc);
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.take_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(dec)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, enc: &mut Encoder) {
        self.0.persist(enc);
        self.1.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::restore(dec)?, B::restore(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `decode(encode(x)) == x`, and re-encoding gives the same bytes.
    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_store_bytes();
        let back = T::from_store_bytes(&bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            back.to_store_bytes(),
            bytes,
            "re-encoding must be identical"
        );
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.25f64);
        roundtrip("ünïcode strings".to_string());
        roundtrip(Duration::new(7, 123_456_789));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [0u64, (-0.0f64).to_bits(), f64::NAN.to_bits() | 1, u64::MAX] {
            let v = f64::from_bits(bits);
            let back = f64::from_store_bytes(&v.to_store_bytes()).unwrap();
            assert_eq!(back.to_bits(), bits, "codec must not canonicalize floats");
        }
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(5usize));
        roundtrip(None::<usize>);
        roundtrip(vec![(1usize, 2usize), (3, 4)]);
        roundtrip(vec![Some("a".to_string()), None]);
    }

    #[test]
    fn truncation_is_detected_at_an_offset() {
        let bytes = vec![1u64, 2, 3].to_store_bytes();
        let err = Vec::<u64>::from_store_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut bytes = 7u64.to_store_bytes();
        bytes.push(0);
        assert!(u64::from_store_bytes(&bytes).is_err());
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        // A sequence claiming u64::MAX elements in an 8-byte payload.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let err = Vec::<u64>::from_store_bytes(enc.as_bytes()).unwrap_err();
        assert!(err.message.contains("implies"), "{err}");
    }

    #[test]
    fn malformed_scalars_are_rejected() {
        assert!(bool::from_store_bytes(&[2]).is_err());
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_u32(2_000_000_000); // nanos out of range
        assert!(Duration::from_store_bytes(enc.as_bytes()).is_err());
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        assert!(String::from_store_bytes(enc.as_bytes()).is_err());
    }
}
