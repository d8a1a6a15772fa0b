//! Hand-rolled compact binary codec.
//!
//! The build environment is offline (no serde), so every artifact that can
//! live in the on-disk store tier implements [`Codec`] against the little
//! [`Enc`]/[`Dec`] writer/reader pair here. The format is deliberately
//! boring: fixed-width little-endian integers, `f64` as raw IEEE-754 bits
//! (bit-exact round-trips, `NaN` included), `u32` length prefixes for
//! strings and sequences, `u8` tags for enums. [`FORMAT_VERSION`] is stamped
//! into every on-disk entry header; bump it whenever any `Codec` impl in the
//! workspace changes shape so stale cache entries read as misses instead of
//! garbage.

use std::sync::Arc;

/// On-disk format version. Part of every disk-entry header: entries written
/// under a different version are treated as cache misses.
///
/// v2: `Netlist` gained module-instance scope tables (provenance for the
/// module-granular cache keys).
///
/// v3: tier payloads are [`crate::compress`] frames (mode-tagged, possibly
/// compressed) rather than bare codec bytes.
pub const FORMAT_VERSION: u32 = 3;

/// Decode failure — a truncated, corrupted, or differently-versioned byte
/// stream. The store maps every decode failure to "recompute the artifact".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
}

impl CodecError {
    /// Creates an error tagged with the decoding context.
    pub fn new(context: &'static str) -> CodecError {
        CodecError { context }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error while decoding {}", self.context)
    }
}

impl std::error::Error for CodecError {}

/// Byte-stream encoder (append-only writer over a `Vec<u8>`).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finishes encoding, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw IEEE-754 bits (bit-exact, `NaN` safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes without a length prefix (caller knows the length).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a sequence length prefix.
    pub fn seq_len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Byte-stream decoder (cursor over a byte slice).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, starting at the first byte.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed (decoders must end here —
    /// trailing bytes mean a corrupt or mismatched entry).
    pub fn is_finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(context));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `usize` written as `u64`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::new("usize overflow"))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::new("bool")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let b = self.take(n, "str bytes")?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::new("str utf-8"))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n, "raw bytes")
    }

    /// Reads a sequence length prefix, rejecting lengths that cannot fit in
    /// the remaining input (`min_elem_bytes` is the smallest possible
    /// encoding of one element — guards against bogus giant allocations
    /// from corrupt prefixes).
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::new("sequence length"));
        }
        Ok(n)
    }
}

/// Binary round-trip: `decode(encode(x)) == x`.
///
/// Implementations must consume exactly what they wrote, so containers of
/// `Codec` values concatenate without framing.
pub trait Codec: Sized {
    /// Appends this value's encoding to `e`.
    fn encode(&self, e: &mut Enc);

    /// Decodes one value from `d`.
    ///
    /// # Errors
    ///
    /// Any truncation, tag mismatch, or malformed payload.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// Encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Decodes from a byte slice, requiring the whole slice be consumed.
    ///
    /// # Errors
    ///
    /// Decode failures, or trailing bytes after the value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let v = Self::decode(&mut d)?;
        if !d.is_finished() {
            return Err(CodecError::new("trailing bytes"));
        }
        Ok(v)
    }
}

impl Codec for u8 {
    fn encode(&self, e: &mut Enc) {
        e.u8(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Enc) {
        e.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.usize()
    }
}

impl Codec for f64 {
    fn encode(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.f64()
    }
}

impl Codec for bool {
    fn encode(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.bool()
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.seq_len(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            _ => Err(CodecError::new("Option tag")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<T: Codec> Codec for Arc<[T]> {
    fn encode(&self, e: &mut Enc) {
        e.seq_len(self.len());
        for v in self.iter() {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<T>::decode(d)?.into())
    }
}

impl Codec for Arc<str> {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(d.str()?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).expect("round trip"), v);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        round_trip(true);
        round_trip(String::from("héllo ∞"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(7u64));
        round_trip((String::from("a"), 4u32));
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let bytes = f64::NAN.to_bytes();
        let back = f64::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = vec![9u64, 10, 11].to_bytes();
        for cut in 0..bytes.len() {
            assert!(Vec::<u64>::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bogus_sequence_length_rejected_without_alloc() {
        // A corrupt length prefix claiming 4 billion elements must fail
        // fast, not try to allocate.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        assert!(Vec::<u64>::from_bytes(&e.into_bytes()).is_err());
    }

    #[test]
    fn arc_variants_round_trip() {
        let s: Arc<str> = "shared".into();
        assert_eq!(Arc::<str>::from_bytes(&s.to_bytes()).unwrap(), s);
        let v: Arc<[f64]> = vec![1.0, f64::NEG_INFINITY].into();
        let back = Arc::<[f64]>::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(&back[..], &v[..]);
    }
}
