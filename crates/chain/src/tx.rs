//! Transactions: signed data packages originated by externally owned
//! accounts (§II-C of the paper).
//!
//! A transaction carries a nonce (Ethereum's replay protection — validated
//! by the network but *not* visible to contracts, which is why SMACS needs
//! its own in-contract one-time token mechanism, §IV-C), a gas limit and
//! price, an optional target, a wei value, and calldata. The signing digest
//! is the keccak256 of the RLP-encoded body, and the sender is recovered
//! from the signature — the `tx.origin` seen by every frame of the call
//! chain.

use smacs_crypto::{keccak256, recover_address, Keypair, Signature};
use smacs_primitives::rlp::{self, Item, ToRlp};
use smacs_primitives::{Address, Bytes, H256};
use std::fmt;
use std::sync::Mutex;

/// An unsigned transaction body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender's account nonce — must equal the account's current nonce.
    pub nonce: u64,
    /// Gas price in wei per gas unit.
    pub gas_price: u128,
    /// Gas limit for the whole transaction.
    pub gas_limit: u64,
    /// Callee; `None` denotes a contract-creation transaction.
    pub to: Option<Address>,
    /// Transferred value in wei.
    pub value: u128,
    /// Calldata (method selector + ABI-encoded arguments, possibly with a
    /// SMACS token array embedded).
    pub data: Bytes,
}

impl Transaction {
    /// A plain call with sensible defaults for gas (callers override as
    /// needed).
    pub fn call(nonce: u64, to: Address, value: u128, data: impl Into<Bytes>) -> Self {
        Transaction {
            nonce,
            gas_price: 1_000_000_000, // 1 gwei — the paper-era default
            gas_limit: 8_000_000,
            to: Some(to),
            value,
            data: data.into(),
        }
    }

    fn rlp_body(&self) -> Item {
        Item::List(vec![
            self.nonce.to_rlp(),
            self.gas_price.to_rlp(),
            self.gas_limit.to_rlp(),
            match self.to {
                Some(addr) => addr.to_rlp(),
                None => Item::Bytes(vec![]),
            },
            self.value.to_rlp(),
            self.data.to_rlp(),
        ])
    }

    /// The digest an EOA signs: `keccak256(rlp(body))`.
    pub fn signing_digest(&self) -> H256 {
        keccak256(&rlp::encode(&self.rlp_body()))
    }

    /// Sign with `keypair`, producing a [`SignedTransaction`]. The signer's
    /// address is pre-seeded into the sender cache, so the common path
    /// (sign locally, submit, execute) never runs `ecrecover` at all.
    pub fn sign(self, keypair: &Keypair) -> SignedTransaction {
        let signature = keypair.sign_digest(&self.signing_digest());
        let signed = SignedTransaction {
            tx: self,
            signature,
            hash_cache: Mutex::new(None),
            sender_cache: Mutex::new(None),
        };
        *signed.sender_cache.lock().expect("fresh lock") =
            Some((signed.hash(), Some(keypair.address())));
        signed
    }
}

/// Cheap identity of a signed transaction's contents: every scalar field
/// by value, the calldata by buffer address. The fingerprint keeps its own
/// handle on the [`Bytes`] buffer, which both guarantees the address stays
/// valid for comparison and rules out ABA reuse: while a cached
/// fingerprint is alive the allocator cannot hand the same address to a
/// *different* buffer, so equal addresses imply the very same immutable
/// contents. A replaced buffer merely misses the cache and recomputes.
#[derive(Clone)]
struct TxFingerprint {
    nonce: u64,
    gas_price: u128,
    gas_limit: u64,
    to: Option<Address>,
    value: u128,
    data: Bytes,
    signature: Signature,
}

impl PartialEq for TxFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.nonce == other.nonce
            && self.gas_price == other.gas_price
            && self.gas_limit == other.gas_limit
            && self.to == other.to
            && self.value == other.value
            && std::ptr::eq(
                self.data.as_slice().as_ptr(),
                other.data.as_slice().as_ptr(),
            )
            && self.data.len() == other.data.len()
            && self.signature == other.signature
    }
}

impl TxFingerprint {
    fn of(signed: &SignedTransaction) -> TxFingerprint {
        TxFingerprint {
            nonce: signed.tx.nonce,
            gas_price: signed.tx.gas_price,
            gas_limit: signed.tx.gas_limit,
            to: signed.tx.to,
            value: signed.tx.value,
            data: signed.tx.data.clone(),
            signature: signed.signature,
        }
    }
}

/// A signed transaction ready for submission.
pub struct SignedTransaction {
    /// The signed body.
    pub tx: Transaction,
    /// 65-byte recoverable signature over [`Transaction::signing_digest`].
    pub signature: Signature,
    /// Memoized transaction hash, keyed by a cheap field fingerprint so any
    /// mutation of the body or signature invalidates it. `hash()` otherwise
    /// re-RLP-encodes (an allocation plus a keccak) on every access — and
    /// the sender cache below consults it on every `sender()` call.
    hash_cache: Mutex<Option<(TxFingerprint, H256)>>,
    /// Memoized recovered sender, keyed by the transaction hash so any
    /// mutation of the body or signature invalidates it. `ecrecover` is by
    /// far the most expensive step of transaction intake; this runs it once
    /// per transaction instead of once per access.
    sender_cache: Mutex<Option<(H256, Option<Address>)>>,
}

impl Clone for SignedTransaction {
    fn clone(&self) -> Self {
        SignedTransaction {
            tx: self.tx.clone(),
            signature: self.signature,
            hash_cache: Mutex::new(self.hash_cache.lock().expect("cache lock").clone()),
            sender_cache: Mutex::new(*self.sender_cache.lock().expect("cache lock")),
        }
    }
}

impl PartialEq for SignedTransaction {
    fn eq(&self, other: &Self) -> bool {
        self.tx == other.tx && self.signature == other.signature
    }
}

impl Eq for SignedTransaction {}

impl SignedTransaction {
    /// Assemble from parts (e.g. parsed off the wire) with a cold sender
    /// cache.
    pub fn from_parts(tx: Transaction, signature: Signature) -> Self {
        SignedTransaction {
            tx,
            signature,
            hash_cache: Mutex::new(None),
            sender_cache: Mutex::new(None),
        }
    }

    /// Recover the sender address; `None` if the signature is invalid.
    /// Before processing a transaction, "their authenticity is validated by
    /// the Ethereum network" (§II-C) — the chain rejects `None`.
    ///
    /// Memoized: the first call runs `ecrecover` and caches the result
    /// under the current transaction hash; later calls re-derive only the
    /// (cheap) hash and reuse the recovery while it matches.
    pub fn sender(&self) -> Option<Address> {
        let hash = self.hash();
        let mut cache = self.sender_cache.lock().expect("cache lock");
        if let Some((cached_hash, cached_sender)) = *cache {
            if cached_hash == hash {
                return cached_sender;
            }
        }
        let sender = recover_address(&self.tx.signing_digest(), &self.signature);
        *cache = Some((hash, sender));
        sender
    }

    /// The transaction hash (id): keccak over the RLP body plus signature.
    ///
    /// Memoized under a `TxFingerprint` of the fields, so repeated access
    /// (every `sender()` call, receipts, logging) skips the RLP encode and
    /// keccak while the transaction is unchanged.
    pub fn hash(&self) -> H256 {
        let fingerprint = TxFingerprint::of(self);
        let mut cache = self.hash_cache.lock().expect("cache lock");
        if let Some((cached_fp, cached_hash)) = cache.as_ref() {
            if *cached_fp == fingerprint {
                return *cached_hash;
            }
        }
        let item = Item::List(vec![
            self.tx.rlp_body(),
            Item::Bytes(self.signature.to_bytes().to_vec()),
        ]);
        let hash = keccak256(&rlp::encode(&item));
        *cache = Some((fingerprint, hash));
        hash
    }
}

impl fmt::Debug for SignedTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SignedTransaction(hash={}, nonce={}, to={:?})",
            self.hash(),
            self.tx.nonce,
            self.tx.to
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_primitives::U256;

    fn sample_tx(nonce: u64) -> Transaction {
        Transaction::call(nonce, Address::from_low_u64(9), 42, vec![1, 2, 3])
    }

    #[test]
    fn sender_recovery_round_trip() {
        let kp = Keypair::from_seed(100);
        let signed = sample_tx(0).sign(&kp);
        assert_eq!(signed.sender(), Some(kp.address()));
    }

    #[test]
    fn tampering_changes_recovered_sender() {
        let kp = Keypair::from_seed(101);
        let mut signed = sample_tx(0).sign(&kp);
        // Warm the memoized sender, then tamper: the cache is keyed by the
        // transaction hash, so the stale recovery must not be served.
        assert_eq!(signed.sender(), Some(kp.address()));
        signed.tx.value = 43;
        assert_ne!(signed.sender(), Some(kp.address()));
    }

    #[test]
    fn cold_cache_recovers_and_memoizes() {
        let kp = Keypair::from_seed(104);
        let signed = sample_tx(0).sign(&kp);
        // Rebuild from parts to discard the pre-seeded cache.
        let parsed = SignedTransaction::from_parts(signed.tx.clone(), signed.signature);
        assert_eq!(parsed.sender(), Some(kp.address()));
        assert_eq!(parsed.sender(), Some(kp.address()));
        assert_eq!(parsed, signed);
    }

    #[test]
    fn nonce_affects_digest_and_hash() {
        let kp = Keypair::from_seed(102);
        let a = sample_tx(0).sign(&kp);
        let b = sample_tx(1).sign(&kp);
        assert_ne!(a.tx.signing_digest(), b.tx.signing_digest());
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn creation_tx_has_empty_to() {
        let tx = Transaction {
            nonce: 0,
            gas_price: 1,
            gas_limit: 100_000,
            to: None,
            value: 0,
            data: Bytes::new(),
        };
        // Digest must differ from a call to the zero address.
        let call = Transaction {
            to: Some(Address::ZERO),
            ..tx.clone()
        };
        assert_ne!(tx.signing_digest(), call.signing_digest());
    }

    #[test]
    fn hash_cache_invalidates_on_any_mutation() {
        let kp = Keypair::from_seed(105);
        let mut signed = sample_tx(0).sign(&kp);
        let warm = signed.hash();
        assert_eq!(signed.hash(), warm);
        // Scalar field mutation.
        signed.tx.gas_limit += 1;
        let after_gas = signed.hash();
        assert_ne!(after_gas, warm);
        // Calldata replacement (new buffer, new pointer).
        signed.tx.data = Bytes::from(vec![9, 9, 9]);
        let after_data = signed.hash();
        assert_ne!(after_data, after_gas);
        // Signature mutation.
        signed.signature.s[0] ^= 1;
        assert_ne!(signed.hash(), after_data);
    }

    #[test]
    fn hash_is_stable() {
        let kp = Keypair::from_seed(103);
        let signed = sample_tx(5).sign(&kp);
        assert_eq!(signed.hash(), signed.hash());
        // And sensitive to data.
        let mut other = signed.clone();
        other.tx.data = Bytes::from(U256::from_u64(7).to_be_bytes());
        assert_ne!(signed.hash(), other.hash());
    }
}
