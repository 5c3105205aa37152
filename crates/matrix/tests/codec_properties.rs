//! Properties of the one value codec (`lima_matrix::codec`): the tagged body
//! shared by the `limad` wire and the file form shared by the persistent
//! store and the spill store, and the word-parallel wire checksum.
//!
//! The golden byte strings were produced by the three hand-written encoders
//! this module replaced (`persist.rs::encode_value`, `proto.rs::put_value`)
//! on the commit before it; they pin the layout so that persist directories
//! and wire peers of either side of that commit keep understanding each
//! other.

use bytes::BufMut;
use lima_matrix::codec::{
    checksum, decode_body, decode_file, encode_body, encode_file, fnv1a, Checksum, VALUE_MAGIC,
    VALUE_VERSION,
};
use lima_matrix::{DenseMatrix, ScalarValue, Value};
use proptest::collection::vec;
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn body(value: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_body(&mut buf, value);
    buf
}

/// Bit-exact equality: NaN payloads and signed zeros must survive.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Matrix(x), Value::Matrix(y)) => {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::Scalar(ScalarValue::F64(x)), Value::Scalar(ScalarValue::F64(y))) => {
            x.to_bits() == y.to_bits()
        }
        (Value::Scalar(x), Value::Scalar(y)) => x == y,
        _ => false,
    }
}

/// A matrix of arbitrary bit patterns (NaNs with payloads, infinities,
/// subnormals); either dimension may be zero.
fn arb_matrix() -> impl Strategy<Value = Value> {
    (0usize..6, 0usize..6, vec(any::<u64>(), 25)).prop_map(|(rows, cols, bits)| {
        Value::matrix(DenseMatrix::from_fn(rows, cols, |i, j| {
            f64::from_bits(bits[i * cols + j])
        }))
    })
}

/// Every scalar kind. Scalars travel as their lineage literal (text), which
/// keeps every finite float and both infinities exactly.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(|b| {
            let v = f64::from_bits(b);
            Value::f64(if v.is_nan() { 0.5 } else { v })
        }),
        any::<i64>().prop_map(Value::i64),
        any::<bool>().prop_map(Value::bool),
        "\\PC{0,24}".prop_map(|s| Value::str(&s)),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![arb_matrix(), arb_scalar()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn body_and_file_forms_round_trip(value in arb_value(), tail in vec(any::<u8>(), 0..8)) {
        // The body decodes as a prefix and leaves what follows it untouched.
        let mut wire = body(&value);
        wire.extend_from_slice(&tail);
        let mut rest: &[u8] = &wire;
        let back = decode_body(&mut rest).flatten().expect("body decodes");
        prop_assert!(same(&back, &value));
        prop_assert_eq!(rest, &tail[..]);

        let file = encode_file(&value).expect("matrices and scalars have a file form");
        prop_assert!(same(&decode_file(&file).expect("file decodes"), &value));
        // File form = magic, version, the same body, checksum of all that.
        let mut want = VALUE_MAGIC.to_be_bytes().to_vec();
        want.extend_from_slice(&VALUE_VERSION.to_be_bytes());
        want.extend_from_slice(&body(&value));
        let sum = fnv1a(&want);
        want.extend_from_slice(&sum.to_be_bytes());
        prop_assert_eq!(file, want);
    }

    #[test]
    fn every_single_byte_flip_of_the_file_form_is_rejected(
        value in arb_value(),
        mask in 1u8..=255,
    ) {
        let clean = encode_file(&value).unwrap();
        for pos in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[pos] ^= mask;
            prop_assert!(
                decode_file(&damaged).is_err(),
                "flip of byte {} by {:#04x} went undetected", pos, mask
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected(value in arb_value()) {
        let file = encode_file(&value).unwrap();
        for len in 0..file.len() {
            prop_assert!(decode_file(&file[..len]).is_err(), "file cut to {} bytes", len);
        }
        let wire = body(&value);
        for len in 0..wire.len() {
            let mut cut = &wire[..len];
            prop_assert!(decode_body(&mut cut).is_none(), "body cut to {} bytes", len);
        }
    }
}

/// Wraps `body` in a valid header and checksum, so only the body is at fault.
fn framed(version: u32, body: &[u8]) -> Vec<u8> {
    let mut raw = VALUE_MAGIC.to_be_bytes().to_vec();
    raw.extend_from_slice(&version.to_be_bytes());
    raw.extend_from_slice(body);
    let sum = fnv1a(&raw);
    raw.extend_from_slice(&sum.to_be_bytes());
    raw
}

#[test]
fn golden_bytes_match_the_replaced_encoders() {
    let m = Value::matrix(DenseMatrix::from_fn(2, 3, |i, j| {
        (i * 3 + j) as f64 * 0.5 - 1.0
    }));
    let s = Value::f64(2.5);
    let m_body = concat!(
        "00",               // tag: matrix
        "0000000000000002", // rows
        "0000000000000003", // cols
        "bff0000000000000", // -1.0
        "bfe0000000000000", // -0.5
        "0000000000000000", //  0.0
        "3fe0000000000000", //  0.5
        "3ff0000000000000", //  1.0
        "3ff8000000000000", //  1.5
    );
    assert_eq!(hex(&body(&m)), m_body);
    assert_eq!(hex(&body(&s)), "0100000005663a322e35");
    assert_eq!(hex(&body(&Value::list(vec![s.clone()]))), "02");
    assert_eq!(
        hex(&encode_file(&m).unwrap()),
        format!("4c494d5600000001{m_body}bfa654a80cf70f8e")
    );
    assert_eq!(
        hex(&encode_file(&s).unwrap()),
        "4c494d56000000010100000005663a322e35292378aee6f1255d"
    );
    assert!(encode_file(&Value::list(vec![])).is_none());
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn well_checksummed_but_malformed_files_are_rejected() {
    assert!(decode_file(b"garbage").is_err());
    assert!(decode_file(&[]).is_err());
    // A 10x10 header over a single element.
    let mut short = vec![0u8];
    short.extend_from_slice(&10u64.to_be_bytes());
    short.extend_from_slice(&10u64.to_be_bytes());
    short.extend_from_slice(&1.0f64.to_be_bytes());
    assert!(decode_file(&framed(VALUE_VERSION, &short)).is_err());
    // Dimensions whose product overflows.
    let mut huge = vec![0u8];
    huge.extend_from_slice(&u64::MAX.to_be_bytes());
    huge.extend_from_slice(&u64::MAX.to_be_bytes());
    assert!(decode_file(&framed(VALUE_VERSION, &huge)).is_err());
    // Bytes after the body, the wire-only absent tag, an unknown tag.
    let good = body(&Value::f64(1.0));
    assert!(decode_file(&framed(VALUE_VERSION, &good)).is_ok());
    assert!(decode_file(&framed(VALUE_VERSION, &[&good[..], &[0]].concat())).is_err());
    assert!(decode_file(&framed(VALUE_VERSION, &[2])).is_err());
    assert!(decode_file(&framed(VALUE_VERSION, &[9])).is_err());
    // A scalar that is not UTF-8, and one that is not a lineage literal.
    assert!(decode_file(&framed(VALUE_VERSION, &[1, 0, 0, 0, 1, 0xff])).is_err());
    assert!(decode_file(&framed(VALUE_VERSION, &[1, 0, 0, 0, 1, b'x'])).is_err());
    // Another format version names itself in the error.
    let err = decode_file(&framed(VALUE_VERSION + 1, &good)).unwrap_err();
    assert!(err.to_string().contains("version"), "got: {err}");
}

/// `len` bytes of a fixed pseudo-random stream.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn checksum_catches_every_single_byte_change() {
    // 0..=300 crosses the 128-byte block boundary twice and every tail length.
    for len in 0..=300 {
        let clean = noise(len, len as u64);
        let sum = checksum(&clean);
        for pos in 0..len {
            let mut bent = clean.clone();
            for mask in 1..=255u8 {
                bent[pos] = clean[pos] ^ mask;
                assert_ne!(
                    checksum(&bent),
                    sum,
                    "len {len}, byte {pos}, mask {mask:#04x}"
                );
            }
        }
    }
}

#[test]
fn checksum_bits_are_pinned() {
    // The same bits on every host: frames written here verify anywhere.
    assert_eq!(checksum(b""), 0x9497_44d1_8fdd_c9b5);
    assert_eq!(checksum(b"a"), 0x79b7_e2c2_cbff_a789);
    assert_eq!(checksum(&noise(300, 1)), 0xca2e_32a1_58bb_7195);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checksum_catches_any_change_to_one_aligned_word(
        len in 1usize..=300,
        seed in any::<u64>(),
        word in any::<usize>(),
        mask in any::<u64>(),
    ) {
        let clean = noise(len, seed);
        // The word's bytes that exist (the last word of a tail may be short).
        let start = (word % len.div_ceil(8)) * 8;
        let mut bent = clean.clone();
        for (b, m) in bent[start..].iter_mut().zip(mask.to_le_bytes()) {
            *b ^= m;
        }
        if bent == clean {
            bent[start] ^= 1;
        }
        prop_assert_ne!(checksum(&bent), checksum(&clean));
    }

    #[test]
    fn streamed_pieces_sum_like_one_slice_and_catch_a_change_on_either_side(
        head_len in 0usize..=40,
        len in 0usize..=300,
        seed in any::<u64>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let data = noise(head_len + len, seed);
        let (head, payload) = data.split_at(head_len);
        let streamed = |head: &[u8], payload: &[u8]| {
            let mut sum = Checksum::default();
            sum.put_slice(head);
            sum.put_slice(payload);
            sum.finish()
        };
        prop_assert_eq!(streamed(head, payload), checksum(&data));
        if !data.is_empty() {
            let mut bent = data.clone();
            bent[at % data.len()] ^= mask;
            let (bent_head, bent_payload) = bent.split_at(head_len);
            prop_assert_ne!(streamed(bent_head, bent_payload), checksum(&data));
        }
    }
}

/// The per-element encoder the bulk one replaced: the reference layout.
fn body_cell_by_cell(m: &DenseMatrix) -> Vec<u8> {
    let mut want = vec![0u8];
    want.extend_from_slice(&(m.rows() as u64).to_be_bytes());
    want.extend_from_slice(&(m.cols() as u64).to_be_bytes());
    for v in m.data() {
        want.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    want
}

#[test]
fn bulk_bodies_match_the_per_element_encoder() {
    for (rows, cols) in [(0, 0), (1, 1), (1, 511), (1, 512), (1, 513), (400, 50)] {
        let raw = noise(rows * cols * 8, (rows * 1000 + cols) as u64);
        let m = DenseMatrix::from_fn(rows, cols, |i, j| {
            let k = (i * cols + j) * 8;
            f64::from_bits(u64::from_le_bytes(raw[k..k + 8].try_into().unwrap()))
        });
        let value = Value::matrix(m.clone());
        let wire = body(&value);
        assert_eq!(wire, body_cell_by_cell(&m), "{rows}x{cols}");
        let mut rest = &wire[..];
        let back = decode_body(&mut rest).flatten().expect("decodes");
        assert!(same(&back, &value) && rest.is_empty(), "{rows}x{cols}");
        // Cut anywhere inside the cells, the body is refused.
        for cut in (17..wire.len()).step_by(509) {
            assert!(
                decode_body(&mut &wire[..cut]).is_none(),
                "{rows}x{cols} cut at {cut}"
            );
        }
    }
}

#[test]
fn forged_matrix_headers_decode_to_none() {
    let forged = |rows: u64, cols: u64, cells: usize| {
        let mut b = vec![0u8];
        b.extend_from_slice(&rows.to_be_bytes());
        b.extend_from_slice(&cols.to_be_bytes());
        b.extend(std::iter::repeat_n(0x3f, cells * 8));
        decode_body(&mut &b[..])
    };
    assert!(forged(2, 3, 6).is_some());
    assert!(forged(2, 3, 5).is_none());
    assert!(forged(1, 1 << 61, 4).is_none()); // 8 × cells overflows
    assert!(forged(u64::MAX, 2, 0).is_none());
    assert!(forged(1 << 32, 1 << 32, 0).is_none());
}
