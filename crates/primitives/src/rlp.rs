//! Recursive Length Prefix (RLP) encoding.
//!
//! RLP is the serialization Ethereum uses for transactions; the chain
//! simulator hashes RLP-encoded transactions to form transaction ids, exactly
//! as the paper's prototype environment (geth) does.

use crate::{Address, Bytes, U256};

/// An RLP item: either a byte string or a list of items.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Item {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A list of nested items.
    List(Vec<Item>),
}

/// Encode an item to its RLP byte representation.
pub fn encode(item: &Item) -> Vec<u8> {
    match item {
        Item::Bytes(bytes) => {
            let mut out = Vec::with_capacity(bytes.len() + 9);
            append_bytes(&mut out, bytes);
            out
        }
        Item::List(items) => {
            let payload: Vec<u8> = items.iter().flat_map(encode).collect();
            let mut out = Vec::with_capacity(payload.len() + 9);
            append_list_header(&mut out, payload.len());
            out.extend_from_slice(&payload);
            out
        }
    }
}

/// Append the RLP encoding of the byte string `bytes` to `out`.
pub fn append_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.len() == 1 && bytes[0] < 0x80 {
        out.push(bytes[0]);
        return;
    }
    append_header(out, bytes.len(), 0x80);
    out.extend_from_slice(bytes);
}

/// Append the RLP encoding of the unsigned integer `value`: its
/// big-endian bytes without leading zeros, so zero is the empty string.
pub fn append_uint(out: &mut Vec<u8>, value: u128) {
    let bytes = value.to_be_bytes();
    append_bytes(out, &bytes[value.leading_zeros() as usize / 8..]);
}

/// Append the header of a list whose items encode to `payload_len` bytes
/// in all; the items follow it.
pub fn append_list_header(out: &mut Vec<u8>, payload_len: usize) {
    append_header(out, payload_len, 0xc0);
}

fn append_header(out: &mut Vec<u8>, len: usize, offset: u8) {
    if len <= 55 {
        out.push(offset + len as u8);
    } else {
        let len_bytes = len.to_be_bytes();
        let first = len.leading_zeros() as usize / 8;
        out.push(offset + 55 + (len_bytes.len() - first) as u8);
        out.extend_from_slice(&len_bytes[first..]);
    }
}

/// Convenience conversions for composing [`Item`] lists.
pub trait ToRlp {
    /// Convert to an RLP item.
    fn to_rlp(&self) -> Item;
}

impl ToRlp for U256 {
    fn to_rlp(&self) -> Item {
        Item::Bytes(self.to_be_bytes_trimmed())
    }
}

impl ToRlp for u64 {
    fn to_rlp(&self) -> Item {
        U256::from_u64(*self).to_rlp()
    }
}

impl ToRlp for u128 {
    fn to_rlp(&self) -> Item {
        U256::from_u128(*self).to_rlp()
    }
}

impl ToRlp for Address {
    fn to_rlp(&self) -> Item {
        Item::Bytes(self.0.to_vec())
    }
}

impl ToRlp for Bytes {
    fn to_rlp(&self) -> Item {
        Item::Bytes(self.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Canonical vectors from the Ethereum wiki.
    #[test]
    fn known_vectors() {
        assert_eq!(
            encode(&Item::Bytes(b"dog".to_vec())),
            vec![0x83, b'd', b'o', b'g']
        );
        assert_eq!(
            encode(&Item::List(vec![
                Item::Bytes(b"cat".to_vec()),
                Item::Bytes(b"dog".to_vec())
            ])),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode(&Item::Bytes(vec![])), vec![0x80]);
        assert_eq!(encode(&Item::Bytes(vec![0x00])), vec![0x00]);
        assert_eq!(encode(&Item::Bytes(vec![0x0f])), vec![0x0f]);
        assert_eq!(
            encode(&Item::Bytes(vec![0x04, 0x00])),
            vec![0x82, 0x04, 0x00]
        );
        assert_eq!(encode(&Item::List(vec![])), vec![0xc0]);
    }

    #[test]
    fn long_string() {
        let s = vec![b'a'; 56];
        let enc = encode(&Item::Bytes(s.clone()));
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], 56);
        assert_eq!(&enc[2..], &s[..]);
    }

    /// The appending encoders write what `encode` writes for the same
    /// value, across every header size.
    #[test]
    fn appenders_match_encode() {
        for value in [
            0u128,
            1,
            0x7f,
            0x80,
            0xff,
            0x100,
            u64::MAX as u128,
            u128::MAX,
        ] {
            let mut out = Vec::new();
            append_uint(&mut out, value);
            assert_eq!(out, encode(&value.to_rlp()), "{value}");
        }
        for len in [0, 1, 55, 56, 255, 256, 70_000] {
            for byte in [0x00, 0x80] {
                let bytes = vec![byte; len];
                let mut out = Vec::new();
                append_bytes(&mut out, &bytes);
                assert_eq!(out, encode(&Item::Bytes(bytes.clone())), "{len}");
                let list = Item::List(vec![Item::Bytes(bytes)]);
                let payload = out.len();
                let mut header = Vec::new();
                append_list_header(&mut header, payload);
                header.extend_from_slice(&out);
                assert_eq!(header, encode(&list), "{len}");
            }
        }
    }

    #[test]
    fn nested_lists() {
        // [ [], [[]], [ [], [[]] ] ] — the canonical "set theoretic" vector.
        let item = Item::List(vec![
            Item::List(vec![]),
            Item::List(vec![Item::List(vec![])]),
            Item::List(vec![
                Item::List(vec![]),
                Item::List(vec![Item::List(vec![])]),
            ]),
        ]);
        let enc = encode(&item);
        assert_eq!(enc, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
    }

    #[test]
    fn u256_trimming() {
        assert_eq!(encode(&U256::ZERO.to_rlp()), vec![0x80]);
        assert_eq!(encode(&U256::from_u64(15).to_rlp()), vec![0x0f]);
        assert_eq!(
            encode(&U256::from_u64(1024).to_rlp()),
            vec![0x82, 0x04, 0x00]
        );
    }

    fn arb_item() -> impl Strategy<Value = Item> {
        let leaf = prop::collection::vec(any::<u8>(), 0..64).prop_map(Item::Bytes);
        leaf.prop_recursive(3, 32, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Item::List)
        })
    }

    /// Reference decoder for the round-trip property: reads one item off
    /// the front of well-formed input and returns it with the rest.
    fn reference_decode(input: &[u8]) -> (Item, &[u8]) {
        let (first, rest) = (input[0], &input[1..]);
        let big_endian = |b: &[u8]| b.iter().fold(0usize, |n, &d| n << 8 | d as usize);
        let (is_list, len, rest) = match first {
            0x00..=0x7f => return (Item::Bytes(vec![first]), rest),
            0x80..=0xb7 => (false, (first - 0x80) as usize, rest),
            0xb8..=0xbf => {
                let n = (first - 0xb7) as usize;
                (false, big_endian(&rest[..n]), &rest[n..])
            }
            0xc0..=0xf7 => (true, (first - 0xc0) as usize, rest),
            0xf8..=0xff => {
                let n = (first - 0xf7) as usize;
                (true, big_endian(&rest[..n]), &rest[n..])
            }
        };
        let (mut payload, rest) = rest.split_at(len);
        if !is_list {
            return (Item::Bytes(payload.to_vec()), rest);
        }
        let mut items = Vec::new();
        while !payload.is_empty() {
            let (item, tail) = reference_decode(payload);
            items.push(item);
            payload = tail;
        }
        (Item::List(items), rest)
    }

    proptest! {
        #[test]
        fn prop_round_trip(item in arb_item()) {
            let enc = encode(&item);
            let (back, rest) = reference_decode(&enc);
            prop_assert!(rest.is_empty());
            prop_assert_eq!(back, item);
        }
    }
}
