//! Contract ABI: 4-byte method selectors and argument encoding.
//!
//! Method selectors are computed exactly as Solidity does: the first four
//! bytes of `keccak256("name(type1,type2,…)")` — this is the `msg.sig`
//! context object the paper's Alg. 1 binds method tokens to. Argument
//! encoding follows the Solidity ABI's head/tail scheme for the value kinds
//! the workspace uses (uint256, address, bool, bytes, string).

use smacs_crypto::keccak256;
use smacs_primitives::{Address, U256};
use std::fmt;

/// A 4-byte method identifier (`msg.sig`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Selector(pub [u8; 4]);

impl Selector {
    /// Parse the selector from the first four bytes of calldata; `None` for
    /// calldata shorter than four bytes (which triggers the fallback method).
    pub fn from_calldata(data: &[u8]) -> Option<Selector> {
        if data.len() < 4 {
            return None;
        }
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&data[..4]);
        Some(Selector(buf))
    }

    /// Render as hex, e.g. `0xa9059cbb`.
    pub fn to_hex(&self) -> String {
        format!("0x{}", hex::encode(self.0))
    }
}

impl fmt::Debug for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Selector({})", self.to_hex())
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Compute the Solidity selector for a canonical signature string such as
/// `"transfer(address,uint256)"`.
pub fn selector(signature: &str) -> Selector {
    let hash = keccak256(signature.as_bytes());
    Selector([hash.0[0], hash.0[1], hash.0[2], hash.0[3]])
}

/// A dynamically typed ABI value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AbiValue {
    /// `uint256`.
    Uint(U256),
    /// `address`.
    Address(Address),
    /// `bool`.
    Bool(bool),
    /// `bytes` (dynamic).
    Bytes(Vec<u8>),
    /// `string` (dynamic).
    String(String),
}

impl AbiValue {
    /// The canonical Solidity type name, as used in signature strings.
    pub fn type_name(&self) -> &'static str {
        match self {
            AbiValue::Uint(_) => "uint256",
            AbiValue::Address(_) => "address",
            AbiValue::Bool(_) => "bool",
            AbiValue::Bytes(_) => "bytes",
            AbiValue::String(_) => "string",
        }
    }

    /// Extract a `uint256`, if that is the variant.
    pub fn as_uint(&self) -> Option<U256> {
        match self {
            AbiValue::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an address, if that is the variant.
    pub fn as_address(&self) -> Option<Address> {
        match self {
            AbiValue::Address(a) => Some(*a),
            _ => None,
        }
    }

    /// Extract a bool, if that is the variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AbiValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract dynamic bytes, if that is the variant.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            AbiValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

/// ABI decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbiError {
    /// Calldata shorter than the static head requires.
    ShortInput,
    /// A dynamic offset or length pointed outside the payload.
    BadOffset,
    /// A word that must be a left-padded small value had garbage in the
    /// padding (e.g. an address word with non-zero high bytes).
    BadPadding,
}

impl fmt::Display for AbiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbiError::ShortInput => write!(f, "abi: input shorter than static head"),
            AbiError::BadOffset => write!(f, "abi: dynamic offset/length out of bounds"),
            AbiError::BadPadding => write!(f, "abi: invalid padding in word"),
        }
    }
}

impl std::error::Error for AbiError {}

/// Encode values using the Solidity head/tail scheme (no selector).
pub fn encode(values: &[AbiValue]) -> Vec<u8> {
    let head_size = values.len() * 32;
    let mut head: Vec<u8> = Vec::with_capacity(head_size);
    let mut tail: Vec<u8> = Vec::new();
    for value in values {
        match value {
            AbiValue::Uint(v) => head.extend_from_slice(&v.to_be_bytes()),
            AbiValue::Address(a) => {
                let mut word = [0u8; 32];
                word[12..].copy_from_slice(a.as_bytes());
                head.extend_from_slice(&word);
            }
            AbiValue::Bool(b) => {
                let mut word = [0u8; 32];
                word[31] = *b as u8;
                head.extend_from_slice(&word);
            }
            AbiValue::Bytes(bytes) => {
                let offset = head_size + tail.len();
                head.extend_from_slice(&U256::from(offset).to_be_bytes());
                extend_dynamic(&mut tail, bytes);
            }
            AbiValue::String(s) => {
                let offset = head_size + tail.len();
                head.extend_from_slice(&U256::from(offset).to_be_bytes());
                extend_dynamic(&mut tail, s.as_bytes());
            }
        }
    }
    head.extend_from_slice(&tail);
    head
}

fn extend_dynamic(tail: &mut Vec<u8>, data: &[u8]) {
    tail.extend_from_slice(&U256::from(data.len()).to_be_bytes());
    tail.extend_from_slice(data);
    let pad = (32 - data.len() % 32) % 32;
    tail.extend(std::iter::repeat_n(0u8, pad));
}

/// A type tag for decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbiType {
    /// `uint256`
    Uint,
    /// `address`
    Address,
    /// `bool`
    Bool,
    /// `bytes`
    Bytes,
    /// `string`
    String,
}

/// Decode `data` (without selector) against an expected type list.
pub fn decode(data: &[u8], types: &[AbiType]) -> Result<Vec<AbiValue>, AbiError> {
    let mut out = Vec::with_capacity(types.len());
    for (i, ty) in types.iter().enumerate() {
        let word = data.get(i * 32..(i + 1) * 32).ok_or(AbiError::ShortInput)?;
        match ty {
            AbiType::Uint => {
                out.push(AbiValue::Uint(U256::from_be_slice(word).expect("32 bytes")));
            }
            AbiType::Address => {
                if word[..12].iter().any(|&b| b != 0) {
                    return Err(AbiError::BadPadding);
                }
                out.push(AbiValue::Address(
                    Address::from_slice(&word[12..]).expect("20 bytes"),
                ));
            }
            AbiType::Bool => {
                if word[..31].iter().any(|&b| b != 0) || word[31] > 1 {
                    return Err(AbiError::BadPadding);
                }
                out.push(AbiValue::Bool(word[31] == 1));
            }
            AbiType::Bytes | AbiType::String => {
                let offset = U256::from_be_slice(word)
                    .expect("32 bytes")
                    .to_u64()
                    .ok_or(AbiError::BadOffset)? as usize;
                // Offsets and lengths come from the calldata: checked sums,
                // so a huge one is an error rather than an overflow.
                let start = offset.checked_add(32).ok_or(AbiError::BadOffset)?;
                let len_word = data.get(offset..start).ok_or(AbiError::BadOffset)?;
                let len = U256::from_be_slice(len_word)
                    .expect("32 bytes")
                    .to_u64()
                    .ok_or(AbiError::BadOffset)? as usize;
                let end = start.checked_add(len).ok_or(AbiError::BadOffset)?;
                let payload = data.get(start..end).ok_or(AbiError::BadOffset)?;
                match ty {
                    AbiType::Bytes => out.push(AbiValue::Bytes(payload.to_vec())),
                    AbiType::String => out.push(AbiValue::String(
                        String::from_utf8_lossy(payload).into_owned(),
                    )),
                    _ => unreachable!(),
                }
            }
        }
    }
    Ok(out)
}

/// Build full calldata: selector followed by encoded arguments.
pub fn encode_call(signature: &str, args: &[AbiValue]) -> Vec<u8> {
    let mut out = selector(signature).0.to_vec();
    out.extend_from_slice(&encode(args));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn erc20_transfer_selector() {
        assert_eq!(selector("transfer(address,uint256)").to_hex(), "0xa9059cbb");
    }

    #[test]
    fn selector_from_short_calldata_is_none() {
        assert_eq!(Selector::from_calldata(&[1, 2, 3]), None);
        assert!(Selector::from_calldata(&[1, 2, 3, 4]).is_some());
    }

    #[test]
    fn static_encoding_layout() {
        let enc = encode(&[
            AbiValue::Uint(U256::from_u64(1)),
            AbiValue::Address(Address::from_low_u64(2)),
            AbiValue::Bool(true),
        ]);
        assert_eq!(enc.len(), 96);
        assert_eq!(enc[31], 1);
        assert_eq!(enc[63], 2);
        assert_eq!(enc[95], 1);
    }

    #[test]
    fn dynamic_encoding_layout() {
        // Solidity reference: encode("ab") after one static word.
        let enc = encode(&[
            AbiValue::Uint(U256::from_u64(5)),
            AbiValue::Bytes(vec![0xaa, 0xbb]),
        ]);
        // head: uint word + offset word (0x40), tail: len word + padded data
        assert_eq!(enc.len(), 32 + 32 + 32 + 32);
        assert_eq!(enc[63], 0x40);
        assert_eq!(enc[95], 2);
        assert_eq!(&enc[96..98], &[0xaa, 0xbb]);
        assert!(enc[98..].iter().all(|&b| b == 0));
    }

    #[test]
    fn decode_rejects_bad_padding() {
        let mut enc = encode(&[AbiValue::Address(Address::from_low_u64(1))]);
        enc[0] = 0xff;
        assert_eq!(decode(&enc, &[AbiType::Address]), Err(AbiError::BadPadding));

        let mut enc = encode(&[AbiValue::Bool(true)]);
        enc[31] = 2;
        assert_eq!(decode(&enc, &[AbiType::Bool]), Err(AbiError::BadPadding));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = encode(&[AbiValue::Uint(U256::ONE)]);
        assert_eq!(
            decode(&enc[..16], &[AbiType::Uint]),
            Err(AbiError::ShortInput)
        );
        // Dynamic offset beyond payload.
        let enc = U256::from_u64(1000).to_be_bytes().to_vec();
        assert_eq!(decode(&enc, &[AbiType::Bytes]), Err(AbiError::BadOffset));
        // An offset or a length near the top of the range.
        let enc = U256::from_u64(u64::MAX).to_be_bytes().to_vec();
        assert_eq!(decode(&enc, &[AbiType::Bytes]), Err(AbiError::BadOffset));
        let mut enc = encode(&[AbiValue::Bytes(vec![1])]);
        enc[32..64].copy_from_slice(&U256::from_u64(u64::MAX).to_be_bytes());
        assert_eq!(decode(&enc, &[AbiType::Bytes]), Err(AbiError::BadOffset));
    }

    #[test]
    fn encode_call_prepends_selector() {
        let call = encode_call("foo(uint256)", &[AbiValue::Uint(U256::from_u64(3))]);
        assert_eq!(call.len(), 36);
        assert_eq!(&call[..4], &selector("foo(uint256)").0);
    }

    fn arb_value() -> impl Strategy<Value = AbiValue> {
        prop_oneof![
            any::<u64>().prop_map(|v| AbiValue::Uint(U256::from_u64(v))),
            any::<u64>().prop_map(|v| AbiValue::Address(Address::from_low_u64(v))),
            any::<bool>().prop_map(AbiValue::Bool),
            prop::collection::vec(any::<u8>(), 0..96).prop_map(AbiValue::Bytes),
            "[a-z0-9 ]{0,48}".prop_map(AbiValue::String),
        ]
    }

    fn type_of(v: &AbiValue) -> AbiType {
        match v {
            AbiValue::Uint(_) => AbiType::Uint,
            AbiValue::Address(_) => AbiType::Address,
            AbiValue::Bool(_) => AbiType::Bool,
            AbiValue::Bytes(_) => AbiType::Bytes,
            AbiValue::String(_) => AbiType::String,
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(values in prop::collection::vec(arb_value(), 0..6)) {
            let types: Vec<AbiType> = values.iter().map(type_of).collect();
            let enc = encode(&values);
            let dec = decode(&enc, &types).unwrap();
            prop_assert_eq!(dec, values);
        }

        #[test]
        fn prop_decode_never_panics(
            data in prop::collection::vec(any::<u8>(), 0..256),
            types in prop::collection::vec(
                prop_oneof![
                    Just(AbiType::Uint), Just(AbiType::Address), Just(AbiType::Bool),
                    Just(AbiType::Bytes), Just(AbiType::String)
                ],
                0..5
            )
        ) {
            let _ = decode(&data, &types);
        }
    }
}
