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

use smacs_crypto::{recover_batch, Keccak256, Keypair, Signature};
use smacs_primitives::rlp;
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

    /// The RLP encodings of the body's six fields, concatenated: the
    /// payload of the body list, which the signing digest hashes and the
    /// transaction hash nests.
    fn rlp_fields(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.data.len());
        rlp::append_uint(&mut out, self.nonce.into());
        rlp::append_uint(&mut out, self.gas_price);
        rlp::append_uint(&mut out, self.gas_limit.into());
        rlp::append_bytes(&mut out, self.to.as_ref().map_or(&[], |to| to.as_bytes()));
        rlp::append_uint(&mut out, self.value);
        rlp::append_bytes(&mut out, &self.data);
        out
    }

    /// The digest an EOA signs: `keccak256(rlp(body))`.
    pub fn signing_digest(&self) -> H256 {
        keccak_list(&[&self.rlp_fields()])
    }

    /// Sign with `keypair`, producing a [`SignedTransaction`]. The memo is
    /// seeded with the digest signed, the hash (both from one encoding of
    /// the body) and the signer's address, so the common path (sign
    /// locally, submit, execute) never runs `ecrecover` at all.
    pub fn sign(self, keypair: &Keypair) -> SignedTransaction {
        let fields = self.rlp_fields();
        let digest = keccak_list(&[&fields]);
        let signature = keypair.sign_digest(&digest);
        let memo = Memo {
            hash: tx_hash(&fields, &signature),
            digest,
            sender: Some(Some(keypair.address())),
            tx: self.clone(),
            signature,
        };
        SignedTransaction {
            tx: self,
            signature,
            memo: Mutex::new(Some(memo)),
        }
    }
}

/// `keccak256` of the RLP list whose payload is `parts`, concatenated.
fn keccak_list(parts: &[&[u8]]) -> H256 {
    let mut header = Vec::with_capacity(9);
    rlp::append_list_header(&mut header, parts.iter().map(|part| part.len()).sum());
    let mut hasher = Keccak256::new();
    hasher.update(&header);
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// The transaction hash, `keccak256(rlp([body, signature]))`, from the
/// body's [`Transaction::rlp_fields`].
fn tx_hash(fields: &[u8], signature: &Signature) -> H256 {
    let mut body_header = Vec::with_capacity(9);
    rlp::append_list_header(&mut body_header, fields.len());
    let mut signature_item = Vec::with_capacity(Signature::SIZE + 2);
    rlp::append_bytes(&mut signature_item, &signature.to_bytes());
    keccak_list(&[&body_header, fields, &signature_item])
}

/// A signed transaction ready for submission.
pub struct SignedTransaction {
    /// The signed body.
    pub tx: Transaction,
    /// 65-byte recoverable signature over [`Transaction::signing_digest`].
    pub signature: Signature,
    /// What was derived from the fields above, and from which values of
    /// them: a changed field makes it stale, so no answer outlives the
    /// transaction it belongs to.
    memo: Mutex<Option<Memo>>,
}

/// The signing digest, hash and sender of one `(tx, signature)` pair.
#[derive(Clone)]
struct Memo {
    tx: Transaction,
    signature: Signature,
    digest: H256,
    hash: H256,
    /// `None` until recovered (`ecrecover` is by far the most expensive
    /// step of transaction intake).
    sender: Option<Option<Address>>,
}

impl Clone for SignedTransaction {
    fn clone(&self) -> Self {
        SignedTransaction {
            tx: self.tx.clone(),
            signature: self.signature,
            memo: Mutex::new(self.memo.lock().expect("memo lock").clone()),
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
    /// Assemble from parts (e.g. parsed off the wire) with nothing
    /// memoized.
    pub fn from_parts(tx: Transaction, signature: Signature) -> Self {
        SignedTransaction {
            tx,
            signature,
            memo: Mutex::new(None),
        }
    }

    /// Recover the sender address; `None` if the signature is invalid.
    /// Before processing a transaction, "their authenticity is validated by
    /// the Ethereum network" (§II-C) — the chain rejects `None`.
    ///
    /// Memoized: the first call runs `ecrecover`, and later calls reuse it
    /// while the fields are unchanged. The one-item case of `senders`, the
    /// block prepass's batch.
    pub fn sender(&self) -> Option<Address> {
        Self::senders(std::slice::from_ref(self))[0]
    }

    /// [`SignedTransaction::sender`] of every transaction, recovering all
    /// the cold ones in one [`recover_batch`], which shares one scalar and
    /// one field inversion among them. Every transaction's hash is derived
    /// here too, so the block prepass computes it on the pool rather than
    /// in the sequential loop that needs it (for the receipt and
    /// `Block::hash`).
    pub(crate) fn senders(txs: &[SignedTransaction]) -> Vec<Option<Address>> {
        let known: Vec<(Option<Option<Address>>, H256)> = txs
            .iter()
            .map(|signed| signed.with_memo(|memo| (memo.sender, memo.digest)))
            .collect();
        let queries: Vec<_> = txs
            .iter()
            .zip(&known)
            .filter(|(_, (sender, _))| sender.is_none())
            .map(|(signed, &(_, digest))| (digest, signed.signature, None))
            .collect();
        let mut recovered = recover_batch(&queries).into_iter();
        txs.iter()
            .zip(known)
            .map(|(signed, (known, _))| {
                known.unwrap_or_else(|| {
                    let sender = recovered.next().expect("one per cold memo");
                    signed.with_memo(|memo| memo.sender = Some(sender));
                    sender
                })
            })
            .collect()
    }

    /// The transaction hash (id): keccak over the RLP body plus signature.
    /// Memoized, so repeated access (every `sender()` call, receipts,
    /// logging) skips the RLP encode and keccak while the fields are
    /// unchanged.
    pub fn hash(&self) -> H256 {
        self.with_memo(|memo| memo.hash)
    }

    /// `f` of the memo of the current fields, made afresh (digest and
    /// hash derived from one encoding of the body, sender not yet
    /// recovered) if any of them changed since the last one. `Bytes`
    /// compares by pointer before content, so an unchanged transaction
    /// costs a few scalar comparisons.
    fn with_memo<T>(&self, f: impl FnOnce(&mut Memo) -> T) -> T {
        let mut memo = self.memo.lock().expect("memo lock");
        let memo = match &mut *memo {
            Some(memo) if memo.tx == self.tx && memo.signature == self.signature => memo,
            stale => {
                let fields = self.tx.rlp_fields();
                stale.insert(Memo {
                    tx: self.tx.clone(),
                    signature: self.signature,
                    digest: keccak_list(&[&fields]),
                    hash: tx_hash(&fields, &self.signature),
                    sender: None,
                })
            }
        };
        f(memo)
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

    type Mutation = fn(&mut SignedTransaction);

    /// One change to each field the memo depends on: every scalar of the
    /// body, the calldata (a new buffer of the same length with one byte
    /// flipped) and each part of the signature.
    const MUTATIONS: [(&str, Mutation); 9] = [
        ("nonce", |signed| signed.tx.nonce += 1),
        ("gas_price", |signed| signed.tx.gas_price += 1),
        ("gas_limit", |signed| signed.tx.gas_limit += 1),
        ("to", |signed| {
            signed.tx.to = Some(Address::from_low_u64(10))
        }),
        ("value", |signed| signed.tx.value += 1),
        ("data", |signed| {
            let mut data = signed.tx.data.to_vec();
            data[1] ^= 1;
            signed.tx.data = Bytes::from(data);
        }),
        ("r", |signed| signed.signature.r[31] ^= 1),
        ("s", |signed| signed.signature.s[31] ^= 1),
        ("v", |signed| signed.signature.v ^= 27 ^ 28),
    ];

    /// Sign with `kp`, read both memoized answers, clone, and apply
    /// `mutate`. Afterwards both answers equal those of a transaction
    /// assembled fresh from the mutated parts, and the clone keeps the old
    /// ones. Returns the `(hash, sender)` before and after.
    fn answers_around(kp: &Keypair, name: &str, mutate: Mutation) -> [(H256, Option<Address>); 2] {
        let mut signed = sample_tx(0).sign(kp);
        let before = (signed.hash(), signed.sender());
        let clone = signed.clone();
        mutate(&mut signed);
        let fresh = SignedTransaction::from_parts(signed.tx.clone(), signed.signature);
        let after = (signed.hash(), signed.sender());
        assert_eq!(after, (fresh.hash(), fresh.sender()), "{name}");
        assert_eq!((clone.hash(), clone.sender()), before, "{name}");
        [before, after]
    }

    #[test]
    fn tampering_changes_recovered_sender() {
        let kp = Keypair::from_seed(101);
        // A warm sender is never served for changed fields.
        for (name, mutate) in MUTATIONS {
            let [(_, before), (_, after)] = answers_around(&kp, name, mutate);
            assert_eq!(before, Some(kp.address()), "{name}");
            assert_ne!(after, before, "{name}");
        }
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
        for (name, mutate) in MUTATIONS {
            let [(before, _), (after, _)] = answers_around(&kp, name, mutate);
            assert_ne!(after, before, "{name}");
        }
    }

    /// The digest and hash, from one encoding of the body, equal those of
    /// the `Item`-tree encoding, `keccak256(rlp(body))` and
    /// `keccak256(rlp([body, signature]))`, across zero and full-width
    /// scalars, a creation, and calldata on both sides of every header
    /// size; whether signed here or assembled from parts.
    #[test]
    fn digest_and_hash_match_the_item_tree_encoding() {
        use smacs_crypto::keccak256;
        use smacs_primitives::rlp::{Item, ToRlp};
        let reference = |tx: &Transaction, signature: &Signature| {
            let body = Item::List(vec![
                tx.nonce.to_rlp(),
                tx.gas_price.to_rlp(),
                tx.gas_limit.to_rlp(),
                tx.to.map_or(Item::Bytes(vec![]), |to| to.to_rlp()),
                tx.value.to_rlp(),
                tx.data.to_rlp(),
            ]);
            let digest = keccak256(&rlp::encode(&body));
            let signed = Item::List(vec![body, Item::Bytes(signature.to_bytes().to_vec())]);
            (digest, keccak256(&rlp::encode(&signed)))
        };
        let kp = Keypair::from_seed(106);
        for len in [0, 1, 2, 54, 55, 56, 114, 255, 256, 70_000] {
            for (nonce, to, value) in [
                (0, Some(Address::from_low_u64(9)), 0),
                (u64::MAX, None, u128::MAX),
                (0x7f, Some(Address::ZERO), 0x80),
            ] {
                let tx = Transaction {
                    nonce,
                    gas_price: 1 << 70,
                    gas_limit: 21_000,
                    to,
                    value,
                    data: Bytes::from(vec![0x80; len]),
                };
                let signed = tx.clone().sign(&kp);
                let (digest, hash) = reference(&tx, &signed.signature);
                assert_eq!(tx.signing_digest(), digest, "{len}");
                assert_eq!(signed.hash(), hash, "{len}");
                let parsed = SignedTransaction::from_parts(tx, signed.signature);
                assert_eq!(parsed.hash(), hash, "{len}");
                assert_eq!(parsed.sender(), Some(kp.address()), "{len}");
            }
        }
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
