//! Owner-side SDK: key management, bitmap sizing, and deployment.
//!
//! The owner (§III-A) "first generates a public and private key pair
//! (pk_TS, sk_TS), and preloads the Token Service with sk_TS and an initial
//! set of ACRs", then "creates the SMACS-enabled smart contract with the
//! public key pk_TS preloaded". [`OwnerToolkit`] performs both halves of
//! the key ceremony and deploys shielded contracts in one call.

use smacs_chain::{Chain, ChainError, Contract, DeployedContract, Receipt};
use smacs_crypto::Keypair;
use smacs_primitives::Address;
use std::sync::Arc;

use crate::bitmap::bitmap_bits_for;
use crate::shield::SmacsShield;

/// Sizing and trust parameters for a shielded deployment.
#[derive(Clone, Debug)]
pub struct ShieldParams {
    /// One-time token lifetime in seconds (drives bitmap sizing).
    pub token_lifetime_secs: u64,
    /// Expected peak transaction rate (tx/s) the contract must absorb.
    pub max_tx_per_second: f64,
    /// Disable one-time tokens entirely (no bitmap, no deployment cost).
    pub disable_one_time: bool,
}

impl ShieldParams {
    /// The paper's running configuration: 1-hour lifetime at the observed
    /// 35 tx/s peak of the most popular contracts (§VI-A), a 126 kbit
    /// bitmap. Its initialization alone costs ≈ 9.9 M gas (Table IV), so
    /// it cannot deploy under [`Chain::deploy`]'s 10 M limit: use
    /// [`OwnerToolkit::deploy_shielded_with_limit`].
    pub fn paper() -> Self {
        ShieldParams {
            token_lifetime_secs: 3_600,
            max_tx_per_second: 35.0,
            disable_one_time: false,
        }
    }

    /// The bitmap size this configuration requires.
    pub fn bitmap_bits(&self) -> u64 {
        if self.disable_one_time {
            0
        } else {
            bitmap_bits_for(self.token_lifetime_secs, self.max_tx_per_second)
        }
    }
}

/// The owner's toolkit: the owner account, the TS keypair, and deployment
/// helpers.
pub struct OwnerToolkit {
    owner: Keypair,
    ts_keypair: Keypair,
}

impl OwnerToolkit {
    /// Create a toolkit around an existing owner account, generating a
    /// fresh TS keypair deterministically derived for reproducibility.
    pub fn new(owner: Keypair, ts_keypair: Keypair) -> Self {
        OwnerToolkit { owner, ts_keypair }
    }

    /// Deterministic toolkit for tests and experiments.
    pub fn from_seeds(owner_seed: u64, ts_seed: u64) -> Self {
        OwnerToolkit {
            owner: Keypair::from_seed(owner_seed),
            ts_keypair: Keypair::from_seed(ts_seed),
        }
    }

    /// The owner's account keypair.
    pub fn owner(&self) -> &Keypair {
        &self.owner
    }

    /// The TS signing keypair (`sk_TS`) — handed to the Token Service.
    pub fn ts_keypair(&self) -> &Keypair {
        &self.ts_keypair
    }

    /// The TS verification address (`pk_TS` in address form) — preloaded
    /// into contracts.
    pub fn ts_address(&self) -> Address {
        self.ts_keypair.address()
    }

    /// Wrap `logic` in a [`SmacsShield`] and deploy it.
    pub fn deploy_shielded(
        &self,
        chain: &mut Chain,
        logic: Arc<dyn Contract>,
        params: &ShieldParams,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        let shield = SmacsShield::new(logic, self.ts_address(), params.bitmap_bits());
        chain.deploy(&self.owner, Arc::new(shield))
    }

    /// [`OwnerToolkit::deploy_shielded`] with an explicit gas limit, for
    /// deployments whose bitmap initialization exceeds the default limit
    /// (Table IV's 126 kbit bitmap).
    pub fn deploy_shielded_with_limit(
        &self,
        chain: &mut Chain,
        logic: Arc<dyn Contract>,
        params: &ShieldParams,
        gas_limit: u64,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        let shield = SmacsShield::new(logic, self.ts_address(), params.bitmap_bits());
        chain.deploy_with_limit(&self.owner, Arc::new(shield), 0, gas_limit)
    }

    /// Deploy `logic` unshielded — the legacy baseline the paper compares
    /// against.
    pub fn deploy_legacy(
        &self,
        chain: &mut Chain,
        logic: Arc<dyn Contract>,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        chain.deploy(&self.owner, logic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_chain::{CallContext, ExecStatus, VmError};
    use smacs_primitives::Bytes;

    #[test]
    fn paper_params_match_paper_configuration() {
        let params = ShieldParams::paper();
        assert_eq!(params.bitmap_bits(), 126_000); // 3600 s × 35 tx/s
        let disabled = ShieldParams {
            disable_one_time: true,
            ..params
        };
        assert_eq!(disabled.bitmap_bits(), 0);
    }

    struct Nop;
    impl Contract for Nop {
        fn name(&self) -> &'static str {
            "Nop"
        }
        fn execute(&self, _ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            Ok(Bytes::new())
        }
    }

    /// The paper's bitmap does not fit the default limit: the mined
    /// creation runs out of gas and `deploy_shielded` says so.
    #[test]
    fn paper_params_need_the_explicit_gas_limit() {
        let mut chain = Chain::default_chain();
        let toolkit = OwnerToolkit::from_seeds(1, 2);
        chain.fund_account(toolkit.owner().address(), 10u128.pow(20));
        let logic: Arc<dyn Contract> = Arc::new(Nop);
        match toolkit.deploy_shielded(&mut chain, logic.clone(), &ShieldParams::paper()) {
            Err(ChainError::CreationFailed(receipt)) => {
                assert_eq!(receipt.status, ExecStatus::OutOfGas)
            }
            other => panic!("expected a failed creation, got {other:?}"),
        }
        let (shielded, receipt) = toolkit
            .deploy_shielded_with_limit(&mut chain, logic, &ShieldParams::paper(), 11_000_000)
            .unwrap();
        assert!(receipt.gas_used > 9_900_000);
        assert!(chain.state().is_contract(shielded.address));
    }

    #[test]
    fn toolkit_keys_are_distinct() {
        let toolkit = OwnerToolkit::from_seeds(1, 2);
        assert_ne!(toolkit.owner().address(), toolkit.ts_address());
    }
}
