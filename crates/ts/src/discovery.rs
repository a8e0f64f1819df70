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
        /// URL of the Token Service protecting this contract, if any.
        pub token_service_url: Option<String>,
        /// Every replica of the protecting TS (§VII-B availability): a
        /// failover client rotates through these when one goes dark. Empty
        /// for single-node deployments; absent in pre-replication metadata
        /// JSON, which decodes to empty.
        pub replica_urls: Vec<String> = default,
    }
}

impl ContractMetadata {
    /// Every service URL a client may try, primary first, deduplicated,
    /// in stable order.
    pub fn all_service_urls(&self) -> Vec<String> {
        let mut urls: Vec<String> = Vec::new();
        if let Some(primary) = &self.token_service_url {
            urls.push(primary.clone());
        }
        for url in &self.replica_urls {
            if !urls.contains(url) {
                urls.push(url.clone());
            }
        }
        urls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_replication_metadata_still_decodes() {
        // Metadata published before replica_urls existed omits the member;
        // the `= default` marker decodes it to empty.
        let json = r#"{"name":"Old","compiler":"solc","token_service_url":null}"#;
        let meta: ContractMetadata = smacs_primitives::json::from_str(json).unwrap();
        assert_eq!(meta.replica_urls, Vec::<String>::new());
        assert_eq!(meta.all_service_urls(), Vec::<String>::new());
    }
}
