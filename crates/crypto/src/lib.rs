//! Ethereum-compatible cryptography for SMACS.
//!
//! The paper (§VI) uses "the Ethereum's ECDSA signature scheme as the default
//! one, as Ethereum provides a native and optimized support for it". This
//! crate provides exactly that stack:
//!
//! - [`keccak256`] — the hash Ethereum uses everywhere (addresses, method
//!   selectors, transaction ids, signing digests);
//! - [`Keypair`] — a secp256k1 private/public key pair with the standard
//!   Ethereum address derivation (last 20 bytes of `keccak256(pubkey)`);
//!   [`Keypair::sign_digests`] signs a batch with one field and one scalar
//!   inversion per nonce round, byte-identical to signing each digest
//!   alone — how the TS signs an `issue_batch` chunk;
//! - [`Signature`] — the 65-byte `(r ‖ s ‖ v)` recoverable signature layout
//!   the paper's 86-byte token embeds (Fig. 3);
//! - [`recover_address`] — the `ecrecover` primitive contracts use for
//!   signature verification;
//! - [`recover_expecting`] — the same answer for a caller that knows whom
//!   to expect: Alg. 1's `SigVerify_pkTS`, checked against the stored
//!   `pk_TS` without recovering it (a GLV comb of the learned key, ≈ 0.35×
//!   a recovery);
//! - [`recover_batch`] — both, for many signatures at once with one field
//!   and one scalar inversion per curve batch: how the chain's block
//!   prepass recovers a chunk of senders and checks its TS tokens. The
//!   two calls above are its one-item case.

#![forbid(unsafe_code)]

pub mod ecdsa;
pub mod keccak;
pub mod secp256k1;

pub use ecdsa::{
    recover_address, recover_batch, recover_expecting, Keypair, Signature, SignatureError,
};
pub use keccak::{keccak256, keccak256_concat, Keccak256};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_sign_recover() {
        let kp = Keypair::from_seed(7);
        let digest = keccak256(b"smacs end to end");
        let sig = kp.sign_digest(&digest);
        assert_eq!(recover_address(&digest, &sig), Some(kp.address()));
    }
}
