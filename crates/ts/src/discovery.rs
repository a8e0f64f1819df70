//! Service discovery (§VII-B b): clients "have to learn an URL address of
//! the service. We propose to implement this discovery process by adding
//! the service address as a smart contract instance metadata (similarly as
//! contract's name or the compiler version it was created with)."
//!
//! The simulator models contract metadata as off-chain records keyed by
//! contract address — the moral equivalent of the metadata JSON Solidity
//! toolchains publish per deployment. A [`crate::FrontEnd`] keeps the
//! records it publishes and serves them through the `discover` op.

use smacs_primitives::json_codec;

json_codec! {
    /// Per-contract deployment metadata.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ContractMetadata {
        /// Human-readable contract name.
        pub name: String,
        /// Compiler/toolchain version string.
        pub compiler: String,
        /// Every URL of the Token Service protecting this contract,
        /// primary first: one for a single TS, one per replica for a
        /// replicated one (§VII-B availability), which a failover client
        /// rotates through when one goes dark. Empty for an unprotected
        /// contract.
        pub service_urls: Vec<String>,
    }
}
