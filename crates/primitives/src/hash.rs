//! 32-byte hash values (keccak digests, storage keys, transaction ids).

use std::fmt;

use crate::U256;

/// A 32-byte hash, as produced by keccak256 and used for storage keys,
/// transaction hashes, and block hashes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero hash.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// View as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Construct from a slice; `None` unless exactly 32 bytes.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        if slice.len() != 32 {
            return None;
        }
        let mut buf = [0u8; 32];
        buf.copy_from_slice(slice);
        Some(H256(buf))
    }

    /// Interpret the bytes as a big-endian [`U256`].
    pub fn to_u256(&self) -> U256 {
        U256::from_be_bytes(self.0)
    }

    /// Store a [`U256`] as its big-endian byte representation.
    pub fn from_u256(v: U256) -> Self {
        H256(v.to_be_bytes())
    }

    /// True iff every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Render as a lowercase `0x…` hex string (one allocation).
    pub fn to_hex(&self) -> String {
        crate::hexutil::encode_prefixed(&self.0)
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H256({})", self.to_hex())
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for H256 {
    fn from(bytes: [u8; 32]) -> Self {
        H256(bytes)
    }
}

impl From<U256> for H256 {
    fn from(v: U256) -> Self {
        H256::from_u256(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_round_trip() {
        let h = H256([7u8; 32]);
        assert_eq!(H256::from_slice(h.as_bytes()), Some(h));
        assert_eq!(H256::from_slice(&[1, 2, 3]), None);
    }

    #[test]
    fn u256_round_trip() {
        let v = U256::from_u64(0xdeadbeef);
        assert_eq!(H256::from_u256(v).to_u256(), v);
    }

    #[test]
    fn hex_rendering() {
        let h = H256([0xab; 32]);
        assert_eq!(h.to_hex(), format!("0x{}", "ab".repeat(32)));
    }

    #[test]
    fn zero_check() {
        assert!(H256::ZERO.is_zero());
        assert!(!H256([1u8; 32]).is_zero());
    }
}
