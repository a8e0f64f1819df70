//! Example and benchmark contracts for the SMACS reproduction.
//!
//! - [`bank`] — the Fig. 7 re-entrancy case study: the vulnerable `Bank`
//!   (a simplified TheDAO), the `Attacker` that drains it through its
//!   fallback, and a `SafeBank` fixed with checks-effects-interactions;
//! - [`token_sale`] — the §II-D motivation: a token sale restricted to
//!   approved users, in both the SMACS form (access control off-chain) and
//!   the on-chain-whitelist baseline whose costs the paper quotes
//!   (Bluzelle's 9.345 ETH for 7 473 addresses);
//! - [`callchain`] — the Fig. 5 chain `SC_A → SC_B → SC_C`, parameterized
//!   to arbitrary depth for Table III / Fig. 8;
//! - [`hydra_heads`] — N structurally different implementations of one
//!   intended logic (plus a deliberately buggy head) for the §V-A Hydra
//!   uniformity rule;
//! - [`bench_target`] — the minimal application contract the gas tables
//!   are measured against.
//!
//! The scenario corpus (PR 7) adds untested rule shapes for the driver in
//! `smacs-driver`:
//!
//! - [`amm`] — a constant-product AMM ([`SmacsAmm`], argument-token price
//!   bounds on `swap(amountIn, minOut)`) plus a [`LendingPool`] composing
//!   cross-contract through `forward_call` (DeFi composition: one
//!   transaction needs tokens for both shields);
//! - [`oracle`] — [`PriceOracle`], whose only write method is authorized
//!   purely by a TS sender whitelist (oracle-update authorization);
//! - [`game`] — [`SessionGame`], gated by short-lifetime method tokens
//!   acting as sessions;
//! - [`airdrop`] — [`Airdrop`], one-time `claim()` tokens at scale
//!   through the replicated counter.

#![forbid(unsafe_code)]

pub mod airdrop;
pub mod amm;
pub mod bank;
pub mod bench_target;
pub mod callchain;
pub mod game;
pub mod hydra_heads;
pub mod oracle;
pub mod token_sale;

pub use airdrop::Airdrop;
pub use amm::{LendingPool, SmacsAmm};
pub use bank::{Attacker, Bank, SafeBank, SmacsAwareAttacker};
pub use bench_target::BenchTarget;
pub use callchain::ChainLink;
pub use game::SessionGame;
pub use hydra_heads::{AdderHead, BuggyAdderHead, HydraStyle};
pub use oracle::PriceOracle;
pub use token_sale::{OnChainWhitelistSale, SmacsSale};
