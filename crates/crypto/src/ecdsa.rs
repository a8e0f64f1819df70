//! secp256k1 ECDSA with public-key recovery, Ethereum style.
//!
//! Signatures are the 65-byte `(r ‖ s ‖ v)` layout with the recovery id `v`
//! in the trailing byte (encoded as 27/28 as Ethereum's `ecrecover` expects).
//! Addresses are the last 20 bytes of `keccak256(uncompressed_pubkey[1..])`.
//!
//! The curve math lives in [`crate::secp256k1`], written from scratch since
//! the build environment has no external crates. Nonces are derived by a
//! deterministic keccak stretch over `(secret ‖ digest)` rather than
//! RFC 6979's HMAC-SHA256 (same determinism property, different bytes).

use smacs_primitives::{Address, H256};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use crate::keccak256;
use crate::secp256k1 as curve;

/// A secp256k1 public key (uncompressed SEC1 form, 64 bytes sans the 0x04
/// tag).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(pub [u8; 64]);

impl PublicKey {
    /// The Ethereum address for this key: the last 20 bytes of
    /// `keccak256(pubkey)`.
    pub fn address(&self) -> Address {
        let hash = keccak256(&self.0);
        Address::from_slice(&hash.0[12..]).expect("20-byte suffix of a 32-byte hash")
    }

    fn from_affine(point: &curve::Affine) -> Self {
        PublicKey(point.to_bytes64())
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.address())
    }
}

/// A 65-byte recoverable ECDSA signature: `r` (32) ‖ `s` (32) ‖ `v` (1).
///
/// This is the `signature` field of the paper's 86-byte token (Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The 32-byte `r` component.
    pub r: [u8; 32],
    /// The 32-byte `s` component (low-s normalized).
    pub s: [u8; 32],
    /// The recovery id, Ethereum-encoded as 27 or 28.
    pub v: u8,
}

/// Errors produced when parsing or recovering signatures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignatureError {
    /// Wire image was not exactly 65 bytes.
    BadLength,
    /// The `v` byte was not 27 or 28.
    BadRecoveryId,
    /// The `(r, s)` pair is not a valid curve signature.
    Malformed,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::BadLength => write!(f, "signature must be exactly 65 bytes"),
            SignatureError::BadRecoveryId => write!(f, "recovery id must be 27 or 28"),
            SignatureError::Malformed => write!(f, "malformed (r, s) signature components"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl Signature {
    /// Total wire size: 65 bytes, as in the paper's Fig. 3.
    pub const SIZE: usize = 65;

    /// Serialize to the 65-byte `(r ‖ s ‖ v)` wire image.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r);
        out[32..64].copy_from_slice(&self.s);
        out[64] = self.v;
        out
    }

    /// Parse from the 65-byte wire image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SignatureError> {
        if bytes.len() != Self::SIZE {
            return Err(SignatureError::BadLength);
        }
        let v = bytes[64];
        if v != 27 && v != 28 {
            return Err(SignatureError::BadRecoveryId);
        }
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..64]);
        Ok(Signature { r, s, v })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(r=0x{}, s=0x{}, v={})",
            hex::encode(&self.r[..4]),
            hex::encode(&self.s[..4]),
            self.v
        )
    }
}

/// A secp256k1 keypair. The TS holds one of these as `(pk_TS, sk_TS)`; every
/// externally owned account holds one for transaction signing.
#[derive(Clone)]
pub struct Keypair {
    secret: curve::U256L,
    public: PublicKey,
}

impl Keypair {
    /// Generate a fresh keypair from process-local entropy (address of a
    /// heap allocation, monotonic time, and a counter, stretched through
    /// keccak). Not for production key material — like everything in this
    /// simulator.
    pub fn random() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = Box::new(0u8);
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&(&*unique as *const u8 as usize as u64).to_be_bytes());
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        seed[8..16].copy_from_slice(&nanos.to_be_bytes());
        seed[16..24].copy_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_be_bytes());
        let mut candidate = keccak256(&seed).0;
        loop {
            if let Some(kp) = Self::from_secret_bytes(&candidate) {
                return kp;
            }
            candidate = keccak256(&candidate).0;
        }
    }

    /// Deterministic keypair from a seed — for tests and reproducible
    /// experiments. Not for production key material.
    pub fn from_seed(seed: u64) -> Self {
        // Stretch the seed through keccak until it lands in the field.
        let mut candidate = keccak256(&seed.to_be_bytes()).0;
        loop {
            if let Some(kp) = Self::from_secret_bytes(&candidate) {
                return kp;
            }
            candidate = keccak256(&candidate).0;
        }
    }

    /// Construct from raw 32-byte private scalar.
    pub fn from_secret_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let secret = curve::from_be_bytes(bytes);
        if !curve::scalar_is_valid(&secret) {
            return None;
        }
        let public = PublicKey::from_affine(&curve::pubkey(&secret));
        Some(Keypair { secret, public })
    }

    /// The raw 32-byte private scalar — needed by persistence layers.
    /// Handle with the care private key material deserves.
    pub fn secret_bytes(&self) -> [u8; 32] {
        curve::to_be_bytes(&self.secret)
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The Ethereum address controlled by this keypair.
    pub fn address(&self) -> Address {
        self.public.address()
    }

    /// Sign a 32-byte digest, producing a recoverable 65-byte signature.
    ///
    /// Deterministic: the nonce is a keccak stretch over
    /// `(secret ‖ digest ‖ counter)`, so equal inputs yield equal
    /// signatures. The one-item case of [`Keypair::sign_digests`].
    pub fn sign_digest(&self, digest: &H256) -> Signature {
        self.sign_digests(std::slice::from_ref(digest))[0]
    }

    /// Sign many digests at once; `sign_digests(ds)[i]` equals
    /// `sign_digest(&ds[i])` byte for byte. The batch shares one field and
    /// one scalar inversion per nonce round (`secp256k1::sign_batch`), so
    /// in a batch of dozens each signature costs about 0.7× a lone one.
    pub fn sign_digests(&self, digests: &[H256]) -> Vec<Signature> {
        let zs: Vec<_> = digests
            .iter()
            .map(|digest| curve::reduce_bytes(&digest.0, &curve::N))
            .collect();
        let secret_bytes = self.secret_bytes();
        curve::sign_batch(&zs, &self.secret, |i, counter| {
            crate::keccak256_concat(&[&secret_bytes, &digests[i].0, &counter.to_be_bytes()]).0
        })
        .into_iter()
        .map(|sig| Signature {
            r: curve::to_be_bytes(&sig.r),
            s: curve::to_be_bytes(&sig.s),
            v: 27 + sig.y_odd as u8,
        })
        .collect()
    }

    /// Sign an arbitrary message by hashing it with keccak256 first.
    pub fn sign_message(&self, message: &[u8]) -> Signature {
        self.sign_digest(&keccak256(message))
    }
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Keypair({})", self.address())
    }
}

/// The `ecrecover` inputs as curve values `(z, (r, s, y_odd))`, or `None`
/// for a `v` other than 27 or 28.
fn scalars(digest: &H256, signature: &Signature) -> Option<(curve::U256L, curve::RawSignature)> {
    if signature.v != 27 && signature.v != 28 {
        return None;
    }
    let sig = curve::RawSignature {
        r: curve::from_be_bytes(&signature.r),
        s: curve::from_be_bytes(&signature.s),
        y_odd: signature.v == 28,
    };
    Some((curve::reduce_bytes(&digest.0, &curve::N), sig))
}

/// `ecrecover`: recover the signer's address from a digest and a recoverable
/// signature. Returns `None` for invalid signatures — the caller treats that
/// as a failed verification, exactly like Solidity's `ecrecover` returning
/// the zero address. The one-item case of [`recover_batch`].
pub fn recover_address(digest: &H256, signature: &Signature) -> Option<Address> {
    recover_batch(&[(*digest, *signature, None)])
        .pop()
        .flatten()
}

/// [`recover_address`] for a caller that expects one signer — Alg. 1's
/// `SigVerify_pkTS`, where the shield knows the TS address. Always returns
/// exactly `recover_address(digest, signature)`; only the cost differs.
/// The one-item case of [`recover_batch`].
pub fn recover_expecting(
    digest: &H256,
    signature: &Signature,
    expected: Address,
) -> Option<Address> {
    recover_batch(&[(*digest, *signature, Some(expected))])
        .pop()
        .flatten()
}

/// `recover_batch(qs)[i]` is `recover_address(digest, signature)` for every
/// query `(digest, signature, expected)` of `qs`; the expected signer, if
/// any, changes only the cost.
///
/// Once a full recovery has produced an expected signer's key, its comb is
/// kept (for at most `KNOWN_SIGNERS_CAP` signers per process), and later
/// queries expecting it are checked against the comb with
/// `secp256k1::verify_known_batch` (≈ 0.45× a recovery). A failed check, or
/// a signer never seen, takes the full recovery (`secp256k1::recover_batch`).
/// Each of the two curve batches shares one scalar and one field inversion
/// among its items.
pub fn recover_batch(queries: &[(H256, Signature, Option<Address>)]) -> Vec<Option<Address>> {
    static KNOWN: OnceLock<KnownSigners> = OnceLock::new();
    KNOWN
        .get_or_init(KnownSigners::default)
        .recover_batch(queries)
}

/// Learned combs of at most this many signers (≈ 61 KB each) per process.
/// Past the cap, new signers simply stay on the full recovery.
const KNOWN_SIGNERS_CAP: usize = 16;

/// The process-wide cache behind [`recover_batch`]: signer address → the
/// comb of its public key. It holds only public data, but the curve code
/// is not constant-time (see [`crate::secp256k1`]): like everything in
/// this simulator, it is not for production key material.
#[derive(Default)]
struct KnownSigners {
    combs: RwLock<HashMap<Address, Arc<curve::KeyComb>>>,
}

impl KnownSigners {
    fn recover_batch(
        &self,
        queries: &[(H256, Signature, Option<Address>)],
    ) -> Vec<Option<Address>> {
        let parsed: Vec<_> = queries.iter().map(|(d, sig, _)| scalars(d, sig)).collect();
        let combs: Vec<Option<Arc<curve::KeyComb>>> = {
            let known = self.read();
            queries.iter().map(|q| known.get(&q.2?).cloned()).collect()
        };
        let mut out = vec![None; queries.len()];

        // Known signers: one comb check each.
        let fast: Vec<usize> = (0..queries.len())
            .filter(|&i| parsed[i].is_some() && combs[i].is_some())
            .collect();
        let checks: Vec<_> = fast
            .iter()
            .map(|&i| {
                let (z, sig) = parsed[i].expect("filtered");
                (z, sig, &**combs[i].as_ref().expect("filtered"))
            })
            .collect();
        for (&i, ok) in fast.iter().zip(curve::verify_known_batch(&checks)) {
            if ok {
                out[i] = queries[i].2;
            }
        }

        // Everything else: a full recovery, learning expected signers.
        let slow: Vec<usize> = (0..queries.len())
            .filter(|&i| parsed[i].is_some() && out[i].is_none())
            .collect();
        let items: Vec<_> = slow.iter().map(|&i| parsed[i].expect("filtered")).collect();
        for (&i, point) in slow.iter().zip(curve::recover_batch(&items)) {
            let Some(point) = point else { continue };
            let address = PublicKey::from_affine(&point).address();
            if queries[i].2 == Some(address) && combs[i].is_none() {
                self.learn(address, &point);
            }
            out[i] = Some(address);
        }
        out
    }

    /// Keep the comb of `address`'s key `point`, unless it is known already
    /// or the cache is full.
    fn learn(&self, address: Address, point: &curve::Affine) {
        {
            let known = self.read();
            if known.len() >= KNOWN_SIGNERS_CAP || known.contains_key(&address) {
                return;
            }
        }
        // Build outside the lock; a racing thread's copy is identical.
        let comb = Arc::new(curve::KeyComb::new(point));
        let mut combs = self.combs.write().unwrap_or_else(PoisonError::into_inner);
        if combs.len() < KNOWN_SIGNERS_CAP {
            combs.entry(address).or_insert(comb);
        }
    }

    // Every update is one insert of a finished comb, so a map poisoned by a
    // panicking writer is still valid.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<Address, Arc<curve::KeyComb>>> {
        self.combs.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.read().len()
    }

    #[cfg(test)]
    fn recover_expecting(
        &self,
        digest: &H256,
        signature: &Signature,
        expected: Address,
    ) -> Option<Address> {
        self.recover_batch(&[(*digest, *signature, Some(expected))])
            .pop()
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_and_recover() {
        let kp = Keypair::from_seed(1);
        let digest = keccak256(b"message");
        let sig = kp.sign_digest(&digest);
        assert_eq!(recover_address(&digest, &sig), Some(kp.address()));
        assert_eq!(
            recover_expecting(&digest, &sig, kp.address()),
            Some(kp.address())
        );
    }

    #[test]
    fn wrong_digest_recovers_different_address() {
        let kp = Keypair::from_seed(2);
        let sig = kp.sign_message(b"original");
        let tampered = keccak256(b"tampered");
        assert_ne!(recover_address(&tampered, &sig), Some(kp.address()));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::from_seed(3);
        let digest = keccak256(b"msg");
        let mut sig = kp.sign_digest(&digest);
        sig.r[0] ^= 0x01;
        assert_ne!(recover_address(&digest, &sig), Some(kp.address()));
    }

    #[test]
    fn wire_round_trip() {
        let kp = Keypair::from_seed(4);
        let sig = kp.sign_message(b"wire");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), Signature::SIZE);
        assert_eq!(Signature::from_bytes(&bytes), Ok(sig));
    }

    #[test]
    fn wire_rejects_bad_input() {
        assert_eq!(
            Signature::from_bytes(&[0u8; 64]),
            Err(SignatureError::BadLength)
        );
        let mut bytes = [0u8; 65];
        bytes[64] = 5;
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::BadRecoveryId)
        );
    }

    #[test]
    fn deterministic_seeding() {
        assert_eq!(
            Keypair::from_seed(9).address(),
            Keypair::from_seed(9).address()
        );
        assert_ne!(
            Keypair::from_seed(9).address(),
            Keypair::from_seed(10).address()
        );
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(11);
        let d = keccak256(b"rfc6979");
        assert_eq!(kp.sign_digest(&d), kp.sign_digest(&d));
    }

    #[test]
    fn batched_signing_is_byte_identical() {
        for seed in [1, 12, 13] {
            let kp = Keypair::from_seed(seed);
            for size in [0usize, 1, 2, 7, 8, 31, 64, 256] {
                let mut digests: Vec<H256> = (0..size)
                    .map(|i| crate::keccak256_concat(&[&seed.to_be_bytes(), &i.to_be_bytes()]))
                    .collect();
                if let Some(first) = digests.first_mut() {
                    *first = H256([0xFF; 32]); // a digest ≥ n
                }
                let alone: Vec<Signature> = digests.iter().map(|d| kp.sign_digest(d)).collect();
                assert_eq!(kp.sign_digests(&digests), alone, "seed {seed} size {size}");
            }
        }
    }

    #[test]
    fn random_keypairs_differ() {
        let a = Keypair::random();
        let b = Keypair::random();
        assert_ne!(a.address(), b.address());
    }

    #[test]
    fn known_address_vector() {
        // Private key 0x...01 corresponds to a well-known address:
        // 0x7e5f4552091a69125d5dfcb7b8c2659029395bdf
        let mut sk = [0u8; 32];
        sk[31] = 1;
        let kp = Keypair::from_secret_bytes(&sk).unwrap();
        assert_eq!(
            kp.address().to_hex(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
        );
    }

    #[test]
    fn zero_secret_rejected() {
        assert!(Keypair::from_secret_bytes(&[0u8; 32]).is_none());
    }

    // ---- known-signer verification ----

    /// Cases of the differential; a debug build runs 300.
    const CASES: usize = if cfg!(debug_assertions) { 300 } else { 10_000 };

    /// Seeded pseudo-random 256-bit value, below `2^252`.
    fn small_random(i: usize, salt: u8) -> curve::U256L {
        let mut v = curve::from_be_bytes(&crate::keccak256_concat(&[&i.to_be_bytes(), &[salt]]).0);
        v[3] >>= 4;
        v
    }

    /// A cache that has learned every key in `keys`.
    fn learned(keys: impl IntoIterator<Item = Keypair>) -> KnownSigners {
        let cache = KnownSigners::default();
        for kp in keys {
            let digest = keccak256(kp.address().as_bytes());
            let sig = kp.sign_digest(&digest);
            let got = cache.recover_expecting(&digest, &sig, kp.address());
            assert_eq!(got, Some(kp.address()));
        }
        cache
    }

    /// Case `i` of the differential: a digest, a signature and the signer
    /// expected, honest or hostile by `i % 13`. The expected signer is
    /// always one of `signers`.
    fn case(i: usize, signers: &[Keypair], stranger: &Keypair) -> (H256, Signature, Address) {
        let kp = &signers[i % signers.len()];
        let mut digest = keccak256(&i.to_be_bytes());
        let mut sig = kp.sign_digest(&digest);
        let mut expected = kp.address();
        let beyond_n = |salt| {
            let v = small_random(i, salt);
            curve::to_be_bytes(&[
                curve::N[0] + (v[0] >> 4),
                curve::N[1],
                curve::N[2],
                curve::N[3],
            ])
        };
        match i % 13 {
            0 => {}
            1 => sig.v = 55 - sig.v,
            2 => sig = stranger.sign_digest(&digest),
            3 => expected = signers[(i + 1) % signers.len()].address(),
            4 => {
                // The high-s twin: Ethereum's precompile accepts it.
                let s = curve::from_be_bytes(&sig.s);
                sig.s = curve::to_be_bytes(&curve::sub_mod(&curve::ZERO, &s, &curve::N));
                sig.v = 55 - sig.v;
            }
            5 => sig.r = beyond_n(5),
            6 => sig.s = beyond_n(6),
            7 => {
                let mut x = small_random(i, 7);
                while curve::Affine::lift_x(&x, false).is_some() {
                    x[0] = x[0].wrapping_add(1);
                }
                sig.r = curve::to_be_bytes(&x);
            }
            8 => sig.s = [0; 32],
            9 => sig.r = [0; 32],
            10 => {
                // z ≡ −r·d (mod n): R = s⁻¹·(z + r·d)·G is infinite.
                let r = curve::from_be_bytes(&sig.r);
                let rd = curve::mul_mod(&r, &kp.secret, &curve::N, &curve::C_N);
                digest = H256(curve::to_be_bytes(&curve::sub_mod(
                    &curve::ZERO,
                    &rd,
                    &curve::N,
                )));
            }
            11 => digest = keccak256(digest.as_bytes()),
            _ => {
                sig.r = curve::to_be_bytes(&small_random(i, 12));
                sig.s = curve::to_be_bytes(&small_random(i, 13));
            }
        }
        (digest, sig, expected)
    }

    /// `recover_expecting` answers exactly `recover_address`, for expected
    /// signers whose comb is learned and for the same signers in a cache
    /// too full to learn them; and the comb check itself accepts exactly
    /// the signatures that recover to the expected key. Then the same
    /// kinds go through `recover_batch` in seeded batches of 1..=40, every
    /// kind at the first and the last position, and each answer is the
    /// one-item answer.
    #[test]
    fn recover_expecting_matches_recover_address() {
        let signers: Vec<Keypair> = (1..=3).map(Keypair::from_seed).collect();
        let stranger = Keypair::from_seed(4);
        let warm = learned(signers.clone());
        let full = learned((100..100 + KNOWN_SIGNERS_CAP as u64).map(Keypair::from_seed));
        let mut accepted = 0;
        for i in 0..CASES {
            let (digest, sig, expected) = case(i, &signers, &stranger);
            let want = recover_address(&digest, &sig);
            assert_eq!(
                warm.recover_expecting(&digest, &sig, expected),
                want,
                "case {i}"
            );
            assert_eq!(
                full.recover_expecting(&digest, &sig, expected),
                want,
                "case {i}"
            );
            if let Some((z, raw)) = scalars(&digest, &sig) {
                let comb = warm.read()[&expected].clone();
                let fast = curve::verify_known_batch(&[(z, raw, &*comb)])[0];
                assert_eq!(fast, want == Some(expected), "case {i}");
                accepted += fast as usize;
            }
        }
        assert!(accepted >= CASES * 2 / 13, "{accepted}");
        assert_eq!(warm.len(), signers.len());
        assert!(!full.read().contains_key(&signers[0].address()));

        // Batches: case `13·t + kind` has kind `kind`; batch `b` opens
        // with kind `b % 13` and closes with kind `(b + 7) % 13`.
        let mut rng = 0x5EED_BA7C_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut done, mut t) = (0, 0);
        for b in 0.. {
            if done >= CASES && b >= 13 {
                break;
            }
            let len = 1 + next() as usize % 40;
            let queries: Vec<(H256, Signature, Option<Address>)> = (0..len)
                .map(|j| {
                    let kind = match j {
                        0 => b % 13,
                        _ if j + 1 == len => (b + 7) % 13,
                        _ => next() as usize % 13,
                    };
                    let (digest, sig, expected) = case(13 * (t + j) + kind, &signers, &stranger);
                    (digest, sig, Some(expected).filter(|_| next() % 4 != 0))
                })
                .collect();
            t += len;
            done += len;
            let want: Vec<Option<Address>> = queries
                .iter()
                .map(|(digest, sig, expected)| match expected {
                    Some(expected) => recover_expecting(digest, sig, *expected),
                    None => recover_address(digest, sig),
                })
                .collect();
            assert_eq!(recover_batch(&queries), want, "batch {b}");
            assert_eq!(warm.recover_batch(&queries), want, "batch {b}");
            assert_eq!(full.recover_batch(&queries), want, "batch {b}");
        }
        assert_eq!(warm.len(), signers.len());
        assert_eq!(full.len(), KNOWN_SIGNERS_CAP);

        // An empty batch, and a batch where nothing recovers.
        assert!(recover_batch(&[]).is_empty());
        let invalid: Vec<_> = (0..26)
            .filter(|i| [5, 6, 7, 8, 9].contains(&(i % 13)))
            .map(|i| {
                let (digest, mut sig, expected) = case(i, &signers, &stranger);
                if i % 2 == 0 {
                    sig.v = 0;
                }
                (digest, sig, Some(expected))
            })
            .collect();
        assert_eq!(warm.recover_batch(&invalid), vec![None; invalid.len()]);

        // One batch naming more signers than the cache may learn: every
        // answer is exact and the cache stops at the cap.
        let crowd: Vec<Keypair> = (500..504 + KNOWN_SIGNERS_CAP as u64)
            .map(Keypair::from_seed)
            .collect();
        let queries: Vec<_> = crowd
            .iter()
            .map(|kp| {
                let digest = keccak256(kp.address().as_bytes());
                (digest, kp.sign_digest(&digest), Some(kp.address()))
            })
            .collect();
        let fresh = KnownSigners::default();
        let want: Vec<_> = crowd.iter().map(|kp| Some(kp.address())).collect();
        assert_eq!(fresh.recover_batch(&queries), want);
        assert_eq!(fresh.len(), KNOWN_SIGNERS_CAP);
        assert_eq!(fresh.recover_batch(&queries), want);
        assert_eq!(fresh.len(), KNOWN_SIGNERS_CAP);
    }

    /// Past the cap a cache stops learning; the next signer still verifies
    /// and is still refused through the full recovery.
    #[test]
    fn known_signers_stay_bounded_and_exact() {
        let keys: Vec<Keypair> = (200..=200 + KNOWN_SIGNERS_CAP as u64)
            .map(Keypair::from_seed)
            .collect();
        let cache = KnownSigners::default();
        for (i, kp) in keys.iter().enumerate() {
            let digest = keccak256(&[i as u8]);
            let sig = kp.sign_digest(&digest);
            let got = cache.recover_expecting(&digest, &sig, kp.address());
            assert_eq!(got, Some(kp.address()));
            assert_eq!(cache.len(), (i + 1).min(KNOWN_SIGNERS_CAP));
        }
        let last = &keys[KNOWN_SIGNERS_CAP];
        assert!(!cache.read().contains_key(&last.address()));
        let digest = keccak256(b"past the cap");
        let good = last.sign_digest(&digest);
        assert_eq!(
            cache.recover_expecting(&digest, &good, last.address()),
            Some(last.address())
        );
        let flipped = Signature {
            v: 55 - good.v,
            ..good
        };
        for bad in [flipped, keys[0].sign_digest(&digest)] {
            let got = cache.recover_expecting(&digest, &bad, last.address());
            assert_eq!(got, recover_address(&digest, &bad));
            assert_ne!(got, Some(last.address()));
        }
        assert_eq!(cache.len(), KNOWN_SIGNERS_CAP);
    }

    /// Eight threads meet one fresh signer at once, some with forged
    /// signatures: every answer is `recover_address`'s, and one comb is
    /// kept.
    #[test]
    fn racing_first_verifications_agree_with_recover_address() {
        let cache = KnownSigners::default();
        let kp = Keypair::from_seed(300);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let (cache, kp, barrier) = (&cache, &kp, &barrier);
                scope.spawn(move || {
                    let digest = keccak256(&[t]);
                    let mut sig = kp.sign_digest(&digest);
                    if t % 4 == 3 {
                        sig.s[31] ^= 1;
                    }
                    barrier.wait();
                    let got = cache.recover_expecting(&digest, &sig, kp.address());
                    assert_eq!(got, recover_address(&digest, &sig), "thread {t}");
                });
            }
        });
        assert_eq!(cache.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_sign_recover(seed in 1u64..1_000_000, msg in prop::collection::vec(any::<u8>(), 0..128)) {
            let kp = Keypair::from_seed(seed);
            let digest = keccak256(&msg);
            let sig = kp.sign_digest(&digest);
            prop_assert_eq!(recover_address(&digest, &sig), Some(kp.address()));
        }

        #[test]
        fn prop_signature_binds_message(seed in 1u64..1_000_000, a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
            prop_assume!(a != b);
            let kp = Keypair::from_seed(seed);
            let sig = kp.sign_message(&a);
            let recovered = recover_expecting(&keccak256(&b), &sig, kp.address());
            prop_assert_ne!(recovered, Some(kp.address()));
        }
    }
}
