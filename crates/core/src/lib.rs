//! # smacs-core — the SMACS framework's on-chain side and SDKs
//!
//! This crate implements the paper's primary contribution:
//!
//! - **Alg. 1 — contract-side token verification** ([`verify`]): extract the
//!   token from the transaction, check expiry and (for one-time tokens)
//!   reuse, reconstruct the signing payload from the EVM context objects,
//!   and verify the TS signature with `ecrecover`;
//! - **Alg. 2 — the cyclic one-time bitmap** ([`bitmap`] for the pure state
//!   machine with `seek()`, [`storage_bitmap`] for the gas-charged on-chain
//!   version), including the `token_lifetime × max_tx_per_second` sizing
//!   rule of §IV-C;
//! - the **contract shield** ([`shield`]): a wrapper that turns any
//!   [`smacs_chain::Contract`] into a SMACS-enabled contract whose every
//!   externally callable method verifies a token before its body runs —
//!   the runtime counterpart of the Fig. 4 source transformation;
//! - the **client SDK** ([`client`]): build token-bearing calldata and
//!   transactions, including multi-token arrays for call chains (§IV-D);
//! - the **token fetcher** ([`fetcher`]): client-side token acquisition
//!   over any [`smacs_ts::TsApi`] transport, with per-`(contract, type,
//!   method)` caching and refresh-before-expiry so a busy client hits the
//!   TS once per token lifetime rather than once per transaction;
//! - the **owner SDK** ([`owner`]): TS key generation, bitmap sizing, and
//!   one-call deployment of shielded contracts.
//!
//! Gas calibration constants for matching the paper's measured magnitudes
//! are documented in [`costs`].
//!
//! Two deliberate deviations from the paper's pseudocode, both noted in
//! DESIGN.md: Alg. 1's reuse condition (`not reused(...)`) is a typo — the
//! correct (and implemented) semantics reject a token *iff it has been used*;
//! and the bitmap's "reset" branch must mark the triggering index as used,
//! which the paper's Alg. 2 omits.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod client;
pub mod costs;
pub mod fetcher;
pub mod layout;
pub mod owner;
pub mod shield;
pub mod storage_bitmap;
pub mod verify;

pub use bitmap::{bitmap_bits_for, BitmapState};
pub use client::{build_call_data, build_chain_call_data, ClientWallet};
pub use fetcher::TokenFetcher;
pub use owner::{OwnerToolkit, ShieldParams};
pub use shield::SmacsShield;
pub use storage_bitmap::StorageBitmap;
pub use verify::{forward_call, verify_incoming, VerifyOutcome};
