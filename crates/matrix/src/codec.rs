//! The one place that knows how a [`Value`] becomes bytes.
//!
//! Two forms share one layout, all integers and floats big-endian:
//!
//! * the **tagged body**, embedded in `limad` wire frames and replication
//!   records — tag `0` matrix (`u64` rows, `u64` cols, row-major `f64`s),
//!   tag `1` scalar (`u32` length + the
//!   [`ScalarValue::lineage_literal`] text), tag `2` list/absent (wire only:
//!   lists do not travel, a response can still say "no value");
//! * the **file form**, written by the persistent cache store and the spill
//!   store — [`VALUE_MAGIC`], [`VALUE_VERSION`], one body, and a trailing
//!   FNV-1a-64 checksum over everything before it. Each FNV step is
//!   injective in both operands modulo 2^64, so every single-byte corruption
//!   is detected: a damaged file decodes to a clean error, never to a
//!   silently wrong value.

use crate::dense::DenseMatrix;
use crate::value::{ScalarValue, Value};
use bytes::{Buf, BufMut};
use std::path::Path;

/// File-form magic: `"LIMV"`.
pub const VALUE_MAGIC: u32 = 0x4C49_4D56;
/// File-form version.
pub const VALUE_VERSION: u32 = 1;

const TAG_MATRIX: u8 = 0;
const TAG_SCALAR: u8 = 1;
const TAG_ABSENT: u8 = 2;
/// Trailing checksum of the file form.
const TRAILER_BYTES: usize = 8;

/// FNV-1a 64-bit hash: the checksum of value files, WAL records and wire
/// frames, and the script-routing hash of `limad`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The next byte, or `None` at the end of `buf`. With [`read_u32`],
/// [`read_u64`] and [`read_bytes`], the checked reads of every decoder: a
/// truncated or forged input yields `None`, never a panic.
pub fn read_u8(buf: &mut &[u8]) -> Option<u8> {
    (!buf.is_empty()).then(|| buf.get_u8())
}

/// The next big-endian `u32`, or `None` when fewer than 4 bytes remain.
pub fn read_u32(buf: &mut &[u8]) -> Option<u32> {
    (buf.len() >= 4).then(|| buf.get_u32())
}

/// The next big-endian `u64`, or `None` when fewer than 8 bytes remain.
pub fn read_u64(buf: &mut &[u8]) -> Option<u64> {
    (buf.len() >= 8).then(|| buf.get_u64())
}

/// The next `len` bytes, or `None` when fewer remain.
pub fn read_bytes<'a>(buf: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(head)
}

/// Appends `value` as a tagged body. Lists encode as the bare absent tag.
pub fn encode_body(buf: &mut impl BufMut, value: &Value) {
    match value {
        Value::Matrix(m) => {
            buf.put_u8(TAG_MATRIX);
            buf.put_u64(m.rows() as u64);
            buf.put_u64(m.cols() as u64);
            for &v in m.data() {
                buf.put_f64(v);
            }
        }
        Value::Scalar(s) => {
            buf.put_u8(TAG_SCALAR);
            let lit = s.lineage_literal();
            buf.put_u32(lit.len() as u32);
            buf.put_slice(lit.as_bytes());
        }
        Value::List(_) => buf.put_u8(TAG_ABSENT),
    }
}

/// Consumes one tagged body from the front of `buf`. `Some(None)` is the
/// absent tag; `None` is a malformed or truncated body (lengths are checked
/// against the bytes present before anything is allocated).
pub fn decode_body(buf: &mut &[u8]) -> Option<Option<Value>> {
    match read_u8(buf)? {
        TAG_MATRIX => {
            let rows = usize::try_from(read_u64(buf)?).ok()?;
            let cols = usize::try_from(read_u64(buf)?).ok()?;
            let n = rows.checked_mul(cols)?;
            if buf.remaining() < n.checked_mul(8)? {
                return None;
            }
            let data = (0..n).map(|_| buf.get_f64()).collect();
            let m = DenseMatrix::new(rows, cols, data).ok()?;
            Some(Some(Value::matrix(m)))
        }
        TAG_SCALAR => {
            let len = read_u32(buf)? as usize;
            let lit = std::str::from_utf8(read_bytes(buf, len)?).ok()?;
            ScalarValue::from_lineage_literal(lit).map(|s| Some(Value::Scalar(s)))
        }
        TAG_ABSENT => Some(None),
        _ => None,
    }
}

/// Serializes `value` into the checksummed file form. Lists have no file
/// form (`None`).
pub fn encode_file(value: &Value) -> Option<Vec<u8>> {
    if matches!(value, Value::List(_)) {
        return None;
    }
    let mut buf = Vec::with_capacity(value.size_in_bytes() + 64);
    buf.put_u32(VALUE_MAGIC);
    buf.put_u32(VALUE_VERSION);
    encode_body(&mut buf, value);
    let checksum = fnv1a(&buf);
    buf.put_u64(checksum);
    Some(buf)
}

/// Verifies and decodes a file image written by [`encode_file`].
pub fn decode_file(raw: &[u8]) -> std::io::Result<Value> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if raw.len() < 8 + 1 + TRAILER_BYTES {
        return Err(bad("value file too short"));
    }
    let (mut buf, mut trailer) = raw.split_at(raw.len() - TRAILER_BYTES);
    if fnv1a(buf) != trailer.get_u64() {
        return Err(bad("value file checksum mismatch"));
    }
    if buf.get_u32() != VALUE_MAGIC {
        return Err(bad("bad value file magic"));
    }
    let version = buf.get_u32();
    if version != VALUE_VERSION {
        return Err(bad(&format!("unsupported value format version {version}")));
    }
    match decode_body(&mut buf) {
        Some(Some(value)) if buf.is_empty() => Ok(value),
        _ => Err(bad("malformed value file body")),
    }
}

/// Reads and verifies the value file at `path`.
pub fn read_file(path: &Path) -> std::io::Result<Value> {
    decode_file(&std::fs::read(path)?)
}
