//! An Ethereum-like blockchain simulator.
//!
//! The SMACS paper deploys its prototype on an Ethereum testnet (geth +
//! Solidity v0.4.24). This crate is the substitution substrate: a
//! deterministic, in-process chain that reproduces the execution-layer
//! behaviours SMACS depends on:
//!
//! - externally owned **accounts** with nonces and wei balances, and
//!   **contract accounts** with persistent storage ([`state`]);
//! - **signed transactions** with nonce-based replay protection, recovered
//!   senders, and RLP-derived transaction hashes ([`tx`]);
//! - **blocks** with monotone timestamps — `now()` in Alg. 1 is the block
//!   timestamp ([`block`]);
//! - a **gas meter** charging a Yellow-Paper-derived schedule, with labeled
//!   sub-measurements so experiments can report the paper's Verify / Misc /
//!   Bitmap / Parse cost splits ([`gas`]);
//! - **message calls** between contracts with the EVM context objects the
//!   paper's §II-C enumerates (`tx.origin`, `msg.sender`, `msg.sig`,
//!   `msg.data`, `msg.value`), arbitrary call depth, and *re-entrancy-capable*
//!   dynamic dispatch — required to reproduce the Fig. 7 attack ([`exec`]);
//! - the `ecrecover` **precompile** ([`exec::CallContext::ecrecover`]);
//! - **execution traces** with per-frame storage read/write sets, the raw
//!   material for the ECF checker ([`trace`]);
//! - **forking**, a deep copy of the chain so a Token Service can simulate
//!   calls on a local testnet (§V), and **reorg** support for the §VII-A
//!   51%-attack discussion ([`chain`]).
//!
//! Contracts are Rust values implementing [`contract::Contract`]; all their
//! persistent state lives in the world state (as EVM storage does), so
//! snapshots, reverts, and forks are uniform: a journal over one flat
//! state, and a fork copies it.

#![forbid(unsafe_code)]

pub mod abi;
pub mod block;
pub mod chain;
pub mod contract;
pub mod exec;
pub mod gas;
pub mod receipt;
pub mod state;
pub mod trace;
pub mod tx;

pub use abi::{selector, AbiValue, Selector};
pub use block::{Block, BlockEnv};
pub use chain::{BlockMode, Chain, ChainError};
pub use contract::{Contract, ContractRegistry, DeployedContract};
pub use exec::{CallContext, Executor, MessageCall, VmError};
pub use gas::{GasBreakdown, GasMeter, GasSchedule, OutOfGas, SCHEDULE};
pub use receipt::{ExecStatus, Log, Receipt};
pub use state::WorldState;
pub use trace::{CallTrace, TraceFrame};
pub use tx::{SignedTransaction, Transaction};
