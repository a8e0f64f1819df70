//! Ethereum-style 20-byte account addresses.

use std::fmt;

/// A 20-byte account address. Both externally owned accounts and contract
/// instances are uniformly identified by addresses (paper §II-C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (used as the "no address" sentinel, e.g. for
    /// contract-creation transactions).
    pub const ZERO: Address = Address([0u8; 20]);

    /// View as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Construct from a slice; `None` unless exactly 20 bytes.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        if slice.len() != 20 {
            return None;
        }
        let mut buf = [0u8; 20];
        buf.copy_from_slice(slice);
        Some(Address(buf))
    }

    /// Derive a deterministic address from a low-entropy integer — handy in
    /// tests and synthetic workloads.
    pub fn from_low_u64(v: u64) -> Self {
        let mut buf = [0u8; 20];
        buf[12..].copy_from_slice(&v.to_be_bytes());
        Address(buf)
    }

    /// True iff this is the zero address.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }

    /// Render as a lowercase `0x…` hex string (one allocation).
    pub fn to_hex(&self) -> String {
        crate::hexutil::encode_prefixed(&self.0)
    }

    /// Parse from a hex string with optional `0x` prefix, decoding straight
    /// into the fixed-size array.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = [0u8; 20];
        hex::decode_to_slice(s.strip_prefix("0x").unwrap_or(s), &mut bytes).ok()?;
        Some(Self(bytes))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", self.to_hex())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 20]> for Address {
    fn from(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let a = Address([0x42; 20]);
        assert_eq!(Address::from_hex(&a.to_hex()), Some(a));
        assert_eq!(a.to_hex(), format!("0x{}", "42".repeat(20)));
    }

    #[test]
    fn from_slice_validates_length() {
        assert_eq!(Address::from_slice(&[0u8; 19]), None);
        assert_eq!(Address::from_slice(&[0u8; 21]), None);
        assert!(Address::from_slice(&[0u8; 20]).is_some());
    }

    #[test]
    fn low_u64_is_injective_for_small_values() {
        assert_ne!(Address::from_low_u64(1), Address::from_low_u64(2));
        assert!(Address::from_low_u64(0).is_zero());
    }
}
