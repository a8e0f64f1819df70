//! Base value types shared across the SMACS workspace.
//!
//! The types here mirror the primitives of the Ethereum execution layer that
//! the paper's prototype runs on: 256-bit words ([`U256`]), 32-byte hashes
//! ([`H256`]), 20-byte account addresses ([`Address`]), cheap byte buffers
//! ([`Bytes`]), and the RLP encoding used to serialize transactions
//! ([`rlp`]).

pub mod address;
pub mod bytes;
pub mod hash;
pub mod hexutil;
pub mod json;
pub mod pool;
pub mod rlp;
pub mod u256;

pub use address::Address;
pub use bytes::Bytes;
pub use hash::H256;
pub use pool::WorkerPool;
pub use u256::U256;
