//! The one place that knows how a [`Value`] becomes bytes, and the
//! checksums that guard them.
//!
//! Two forms share one layout, all integers and floats big-endian:
//!
//! * the **tagged body**, embedded in `limad` wire frames and replication
//!   records — tag `0` matrix (`u64` rows, `u64` cols, row-major `f64`s,
//!   converted 512 at a time), tag `1` scalar (`u32` length + the
//!   [`ScalarValue::lineage_literal`] text), tag `2` list/absent (wire only:
//!   lists do not travel, a response can still say "no value");
//! * the **file form**, written by the persistent cache store and the spill
//!   store — [`VALUE_MAGIC`], [`VALUE_VERSION`], one body, and a trailing
//!   [`fnv1a`] over everything before it.
//!
//! [`checksum`] ([`Checksum`] to stream) guards every wire byte: `limad`
//! frames (`LMD2`) and replication records. [`fnv1a`] guards the bytes on
//! disk (value, spill and WAL files keep the layout earlier builds wrote)
//! and routes scripts to `limad` shards. Each step of either is a bijection
//! in each operand, so a change within one byte (FNV-1a) or one aligned
//! 8-byte word ([`checksum`]) is always detected: damaged bytes decode to
//! a clean error, never to a silently wrong value.

use crate::dense::DenseMatrix;
use crate::value::{ScalarValue, Value};
use bytes::{Buf, BufMut};
use std::path::Path;

/// File-form magic: `"LIMV"`.
pub const VALUE_MAGIC: u32 = 0x4C49_4D56;
/// File-form version.
pub const VALUE_VERSION: u32 = 1;
const BULK_CELLS: usize = 512; // per 4 KiB stack block

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const TAG_MATRIX: u8 = 0;
const TAG_SCALAR: u8 = 1;
const TAG_ABSENT: u8 = 2;
/// Trailing checksum of the file form.
const TRAILER_BYTES: usize = 8;

/// FNV-1a 64-bit hash, one byte per step: the checksum of value files,
/// spill files and WAL records, and the script-routing hash of `limad`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Lanes of [`Checksum`]: sixteen keep two 8-wide vector multiplies in
/// flight where `target-cpu=native` packs them into SIMD, and the scalar
/// multiplier busy where it does not (≈ 0.05 ns/B either way).
const LANES: usize = 16;
const BLOCK: usize = LANES * 8;

/// One FNV-style step (xor, odd multiply, rotate): a bijection of either
/// operand when the other is fixed.
fn mix(state: u64, word: u64) -> u64 {
    const ODD: u64 = 0x9E37_79B9_7F4A_7C15;
    (state ^ word).wrapping_mul(ODD).rotate_left(27)
}

/// The wire checksum, fed through [`BufMut`] in any pieces (`a` then `b`
/// sums like `a ∥ b`). Each 128-byte block mixes one little-endian `u64`
/// word into each lane; [`Checksum::finish`] folds the lanes, the zero-padded
/// tail words and the length, then avalanches. Every step is a bijection in
/// the word or lane it takes, so a change inside one aligned 8-byte word is
/// always detected. Safe Rust without intrinsics: the same bits on any host.
#[derive(Default)]
pub struct Checksum {
    lanes: [u64; LANES],
    pending: [[u8; 8]; LANES],
    filled: usize,
    len: u64,
}

impl BufMut for Checksum {
    fn put_slice(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (BLOCK - self.filled).min(data.len());
            self.pending.as_flattened_mut()[self.filled..][..take].copy_from_slice(&data[..take]);
            (self.filled, data) = (self.filled + take, &data[take..]);
            if self.filled < BLOCK {
                return;
            }
            self.block(&self.pending.clone());
        }
        let blocks = data.as_chunks::<8>().0.as_chunks::<LANES>().0;
        blocks.iter().for_each(|b| self.block(b));
        let rest = &data[blocks.len() * BLOCK..];
        self.pending.as_flattened_mut()[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }
}

impl Checksum {
    fn block(&mut self, words: &[[u8; 8]; LANES]) {
        for (lane, word) in self.lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }

    /// The checksum of everything fed.
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(FNV_BASIS, |h, &l| mix(h, l));
        for tail in self.pending.as_flattened()[..self.filled].chunks(8) {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix(h, u64::from_le_bytes(word));
        }
        // The murmur3 finalizer: each shift-xor and odd multiply inverts.
        h = mix(h, self.len);
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// [`Checksum`] of one slice.
pub fn checksum(data: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.put_slice(data);
    sum.finish()
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
            let mut block = [0u8; 8 * BULK_CELLS];
            for cells in m.data().chunks(BULK_CELLS) {
                let (words, _) = block.as_chunks_mut::<8>();
                words
                    .iter_mut()
                    .zip(cells)
                    .for_each(|(w, v)| *w = v.to_be_bytes());
                buf.put_slice(&block[..8 * cells.len()]);
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
            let cells = read_bytes(buf, rows.checked_mul(cols)?.checked_mul(8)?)?
                .as_chunks()
                .0;
            let data = cells.iter().map(|w| f64::from_be_bytes(*w)).collect();
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
