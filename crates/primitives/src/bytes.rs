//! A cheaply cloneable, immutable byte buffer with hex-oriented formatting.
//!
//! `Bytes` is reference-counted: cloning is an `Arc` refcount bump, never a
//! buffer copy. This is what makes the execution hot path zero-copy — the
//! same calldata buffer is shared by the transaction, every nested call
//! frame's `msg.data`, the receipt, and the trace, instead of being
//! re-cloned per frame as the previous `Vec<u8>`-backed version did.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Immutable shared byte buffer used for calldata, return data, and token
/// wire images. Cloning is O(1).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<Vec<u8>>);

fn empty() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

impl Bytes {
    /// The empty buffer (shared, allocation-free).
    pub fn new() -> Self {
        Bytes(Arc::clone(empty()))
    }

    /// Wrap an owned vector without copying.
    pub fn from_vec(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes(Arc::new(v))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Render as a lowercase `0x…` hex string.
    pub fn to_hex(&self) -> String {
        format!("0x{}", hex::encode(self.as_slice()))
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from_vec(v.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes::from_vec(v.to_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({})", self.to_hex())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering() {
        let b = Bytes::from(vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(b.to_hex(), "0xdeadbeef");
    }

    #[test]
    fn deref_gives_slice_ops() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&b[1..], &[2, 3]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn clone_shares_the_buffer() {
        let a = Bytes::from(vec![9u8; 64]);
        let b = a.clone();
        // Same allocation, not a copy.
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
    }

    #[test]
    fn empty_is_shared() {
        let a = Bytes::new();
        let b = Bytes::default();
        assert!(std::ptr::eq(Arc::as_ptr(&a.0), Arc::as_ptr(&b.0)));
    }
}
