//! Airdrop scenario: every eligible account may `claim()` exactly once.
//! The corpus workload for *one-time tokens at scale* (§IV-F): the TS
//! issues `claim` method tokens with a one-time index, the shield's
//! bitmap burns each index on use, and under replication the indexes come
//! from the majority-quorum `CounterCluster` — so a workload can drive
//! thousands of single-use issuances through the replicated counter. The
//! contract adds its own belt-and-braces `claimed` mapping (defense in
//! depth; the SMACS layer alone already blocks replays).

use smacs_chain::abi::{self, AbiType};
use smacs_chain::{CallContext, Contract, VmError};
use smacs_primitives::{Address, Bytes, H256, U256};

/// Mapping slot: claimer address → 1 once claimed.
const CLAIMED_MAPPING_SLOT: u64 = 0;
/// Storage slot counting successful claims.
const CLAIM_COUNT_SLOT: H256 = H256([
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
]);
/// Storage slot of the per-claim grant size.
const GRANT_SLOT: H256 = H256([
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2,
]);
/// Mapping slot: claimer address → granted balance.
const BALANCE_MAPPING_SLOT: u64 = 3;

/// Off-chain mirror of [`CallContext::mapping_slot`].
fn mapping_slot_of(base: u64, key: &[u8]) -> H256 {
    let base_word = U256::from_u64(base).to_be_bytes();
    smacs_crypto::keccak256_concat(&[key, &base_word])
}

/// A fixed-grant airdrop whose claim path is built for one-time tokens.
pub struct Airdrop {
    grant: u64,
}

impl Airdrop {
    /// Canonical signature of the one-time-gated claim method.
    pub const CLAIM_SIG: &'static str = "claim()";

    /// An airdrop granting `grant` units per claim.
    pub fn granting(grant: u64) -> Self {
        Airdrop { grant }
    }

    /// Payload for `claim()`.
    pub fn claim_payload() -> Vec<u8> {
        abi::encode_call(Self::CLAIM_SIG, &[])
    }

    /// Read the successful-claim counter from chain state.
    pub fn claim_count(chain: &smacs_chain::Chain, drop: Address) -> U256 {
        chain.state().storage_get_u256(drop, CLAIM_COUNT_SLOT)
    }

    /// Read a claimer's granted balance from chain state.
    pub fn balance(chain: &smacs_chain::Chain, drop: Address, who: Address) -> U256 {
        chain
            .state()
            .storage_get_u256(drop, mapping_slot_of(BALANCE_MAPPING_SLOT, who.as_bytes()))
    }
}

impl Contract for Airdrop {
    fn name(&self) -> &'static str {
        "Airdrop"
    }

    fn code_len(&self) -> usize {
        1_000
    }

    fn constructor(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        ctx.sstore_u256(GRANT_SLOT, U256::from_u64(self.grant))
    }

    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let sel = ctx.msg_sig().expect("execute implies selector");
        if sel == abi::selector(Self::CLAIM_SIG) {
            let who = ctx.msg_sender();
            let claimed = ctx.mapping_slot(CLAIMED_MAPPING_SLOT, who.as_bytes())?;
            let already = ctx.sload_u256(claimed)?;
            ctx.require(already.is_zero(), "Drop: already claimed")?;
            ctx.sstore_u256(claimed, U256::ONE)?;
            let grant = ctx.sload_u256(GRANT_SLOT)?;
            let bal = ctx.mapping_slot(BALANCE_MAPPING_SLOT, who.as_bytes())?;
            let have = ctx.sload_u256(bal)?;
            ctx.sstore_u256(bal, have.wrapping_add(grant))?;
            let n = ctx.sload_u256(CLAIM_COUNT_SLOT)?;
            ctx.sstore_u256(CLAIM_COUNT_SLOT, n.wrapping_add(U256::ONE))?;
            ctx.emit_event("Claimed(address)", who.as_bytes().to_vec())?;
            Ok(Bytes::from(grant.to_be_bytes()))
        } else if sel == abi::selector("claimedBy(address)") {
            let args = ctx.decode_args(&[AbiType::Address])?;
            let addr = args[0].as_address().expect("decoded address");
            let slot = ctx.mapping_slot(CLAIMED_MAPPING_SLOT, addr.as_bytes())?;
            Ok(Bytes::from(ctx.sload_u256(slot)?.to_be_bytes()))
        } else {
            ctx.revert("Drop: unknown method")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_chain::Chain;
    use std::sync::Arc;

    #[test]
    fn claims_are_single_use_per_account() {
        let mut chain = Chain::default_chain();
        let alice = chain.funded_keypair(1, 10u128.pow(20));
        let bob = chain.funded_keypair(2, 10u128.pow(20));
        let (drop, _) = chain
            .deploy(&alice, Arc::new(Airdrop::granting(500)))
            .unwrap();

        let r = chain
            .call_contract(&alice, drop.address, 0, Airdrop::claim_payload())
            .unwrap();
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(
            Airdrop::balance(&chain, drop.address, alice.address()),
            U256::from_u64(500)
        );

        // A second claim from the same account fails even without SMACS.
        let r = chain
            .call_contract(&alice, drop.address, 0, Airdrop::claim_payload())
            .unwrap();
        assert_eq!(r.revert_reason(), Some("Drop: already claimed"));

        chain
            .call_contract(&bob, drop.address, 0, Airdrop::claim_payload())
            .unwrap();
        assert_eq!(
            Airdrop::claim_count(&chain, drop.address),
            U256::from_u64(2)
        );
    }
}
