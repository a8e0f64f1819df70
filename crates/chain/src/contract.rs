//! The contract programming model: stateless Rust logic bound to an address.
//!
//! In the EVM a contract is immutable bytecode plus mutable storage. The
//! simulator mirrors that split: a [`Contract`] implementation is immutable
//! logic (shared via `Arc`), and *all* mutable state lives in the world
//! state's storage, accessed through the [`crate::exec::CallContext`]. This
//! keeps snapshot/revert, dry runs, and TS-side forking correct without any
//! per-contract cooperation.

use smacs_crypto::Signature;
use smacs_primitives::{Address, Bytes, H256};
use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::{CallContext, VmError};

/// Smart-contract logic. Implementations must be stateless: persistent data
/// goes through `ctx.sstore`/`ctx.sload`, never through `self` fields.
pub trait Contract: Send + Sync {
    /// Human-readable name for diagnostics and traces.
    fn name(&self) -> &'static str;

    /// Size in bytes of the (notional) deployed code image; drives the
    /// code-deposit gas charge at deployment.
    fn code_len(&self) -> usize {
        1024
    }

    /// Run once at deployment. Initializes storage; gas is charged against
    /// the creation transaction.
    fn constructor(&self, _ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        Ok(())
    }

    /// Handle a message with a 4-byte selector (calldata length ≥ 4).
    /// Returns the ABI-encoded return data as shared [`Bytes`] so the
    /// executor can hand it up the call chain without copying.
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError>;

    /// The fallback method: invoked for calls without a selector — notably
    /// plain value transfers. This is the hook the Fig. 7 re-entrancy
    /// attack rides on.
    fn fallback(&self, _ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        Ok(())
    }

    /// The `(digest, signature, expected signer)` triples a top-level call
    /// from `origin` to this contract at `this` with `calldata` will pass
    /// to [`CallContext::ecrecover`]. [`crate::BlockMode::Parallel`]
    /// recovers those its `ecrecover` memo lacks across its pool before
    /// the block runs, checking a known expected signer without a full
    /// recovery. A hint is only ever a prediction: the chain recovers each
    /// pair itself and memoizes the exact address, so a wrong or missing
    /// hint costs time, never correctness.
    fn recover_hints(
        &self,
        _origin: Address,
        _this: Address,
        _calldata: &[u8],
    ) -> Vec<(H256, Signature, Option<Address>)> {
        Vec::new()
    }
}

/// A deployed contract: address plus logic handle.
#[derive(Clone)]
pub struct DeployedContract {
    /// The contract's account address.
    pub address: Address,
    /// The shared logic.
    pub logic: Arc<dyn Contract>,
}

impl std::fmt::Debug for DeployedContract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeployedContract({} @ {})",
            self.logic.name(),
            self.address
        )
    }
}

/// Address → logic mapping for all deployed contracts.
///
/// Cloning the registry is cheap (`Arc` handles), which is what makes chain
/// forks inexpensive.
#[derive(Clone, Default)]
pub struct ContractRegistry {
    contracts: HashMap<Address, Arc<dyn Contract>>,
}

impl ContractRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register logic at an address (normally done by the deployment path
    /// in [`crate::chain::Chain`]).
    pub fn insert(&mut self, address: Address, logic: Arc<dyn Contract>) {
        self.contracts.insert(address, logic);
    }

    /// Forget the logic at `address`.
    pub(crate) fn remove(&mut self, address: Address) {
        self.contracts.remove(&address);
    }

    /// Look up the logic at `address`.
    pub fn get(&self, address: Address) -> Option<Arc<dyn Contract>> {
        self.contracts.get(&address).cloned()
    }

    /// Whether any contract is registered at `address`.
    pub fn contains(&self, address: Address) -> bool {
        self.contracts.contains_key(&address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Contract for Nop {
        fn name(&self) -> &'static str {
            "Nop"
        }
        fn execute(&self, _ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            Ok(Bytes::new())
        }
    }

    #[test]
    fn registry_insert_get() {
        let mut reg = ContractRegistry::new();
        let addr = Address::from_low_u64(1);
        assert!(reg.get(addr).is_none());
        reg.insert(addr, Arc::new(Nop));
        assert!(reg.contains(addr));
        assert_eq!(reg.get(addr).unwrap().name(), "Nop");
    }

    #[test]
    fn registry_clone_shares_logic() {
        let mut reg = ContractRegistry::new();
        let addr = Address::from_low_u64(2);
        reg.insert(addr, Arc::new(Nop));
        let cloned = reg.clone();
        assert!(cloned.contains(addr));
        // New inserts into the clone do not affect the original.
        let mut cloned = cloned;
        cloned.insert(Address::from_low_u64(3), Arc::new(Nop));
        assert!(!reg.contains(Address::from_low_u64(3)));
    }
}
