//! World state: accounts, balances, nonces, contract storage — one flat
//! map of each, with an undo journal for O(1) nested snapshots.
//!
//! # Design: a journal over one flat state
//!
//! All persistent contract data lives here (as in the EVM's storage trie),
//! keyed by `(contract address, 32-byte slot)`. Contracts themselves are
//! stateless logic (see [`crate::contract`]); that separation is what makes
//! snapshot/revert, `eth_call`-style dry runs, and TS-side testnet forking
//! uniform and cheap.
//!
//! - **Reads** are one map lookup. The storage map holds only non-zero
//!   slots, so never-written and cleared slots both read as zero (the EVM
//!   rule), and a zero write removes the slot.
//! - **Writes** journal the entry they replace. **Snapshots** are journal
//!   lengths ([`Snapshot`]); [`WorldState::revert_to`] pops the journal and
//!   puts the recorded entries back, so a checkpoint is O(1) and a revert
//!   O(entries written since), never O(world size). This is the standard
//!   design of production EVM implementations (geth's journal, revm).
//! - **Commits** ([`WorldState::commit`]) clear the journal.
//! - **Forks** ([`WorldState::fork`]) deep-copy both maps: O(world size).
//!   That is enough because the one caller, `Chain::fork` (the Token
//!   Service's "local testnet", §V of the paper), copies the chain's block
//!   history anyway, and a state never holds more than that history (and
//!   the genesis alloc) wrote.
//!
//! ## Deviations from the paper
//!
//! The paper runs on geth and inherits its state handling; this simulator
//! reproduces the observable semantics (revert-on-failure, fork isolation)
//! with the journal above. Unlike geth there is no trie or state root — the
//! simulator never needs Merkle proofs — and `create_account`/`set_contract`
//! (genesis/deployment helpers) are fully journaled here, which is slightly
//! *stronger* than the seed's behaviour (their effects used to survive
//! reverts).

use smacs_crypto::keccak256;
use smacs_primitives::{Address, H256, U256};
use std::collections::{BTreeMap, HashMap};

/// Per-account data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccountInfo {
    /// Transaction count for EOAs / creation count for contracts. The
    /// nonce is Ethereum's replay protection (§II-C).
    pub nonce: u64,
    /// Balance in wei.
    pub balance: u128,
    /// Length in bytes of the deployed code image (zero for EOAs). The
    /// simulator does not store bytecode — contracts are Rust values — but
    /// the length drives the code-deposit gas charge at deployment.
    pub code_len: usize,
    /// Whether this address hosts a contract.
    pub is_contract: bool,
}

/// One undo record: the entry a write replaced (`None` = the key was
/// absent).
#[derive(Debug)]
enum JournalEntry {
    AccountChanged {
        addr: Address,
        prev: Option<AccountInfo>,
    },
    StorageChanged {
        addr: Address,
        key: H256,
        prev: Option<H256>,
    },
}

/// The replicated world state of the simulated chain.
#[derive(Debug, Default)]
pub struct WorldState {
    accounts: HashMap<Address, AccountInfo>,
    /// Non-zero slots only.
    storage: HashMap<(Address, H256), H256>,
    journal: Vec<JournalEntry>,
}

/// A snapshot handle from [`WorldState::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot(usize);

impl WorldState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account info, if the account exists.
    pub fn account(&self, addr: Address) -> Option<&AccountInfo> {
        self.accounts.get(&addr)
    }

    /// True iff the account exists (has been touched with funds, a nonce,
    /// or code).
    pub fn exists(&self, addr: Address) -> bool {
        self.account(addr).is_some()
    }

    /// Current balance in wei (0 for absent accounts).
    pub fn balance(&self, addr: Address) -> u128 {
        self.account(addr).map(|a| a.balance).unwrap_or(0)
    }

    /// Current nonce (0 for absent accounts).
    pub fn nonce(&self, addr: Address) -> u64 {
        self.account(addr).map(|a| a.nonce).unwrap_or(0)
    }

    /// True iff `addr` hosts a contract.
    pub fn is_contract(&self, addr: Address) -> bool {
        self.account(addr).map(|a| a.is_contract).unwrap_or(false)
    }

    /// Journal the current entry for `addr` and return it mutably (fresh
    /// for new accounts).
    fn account_mut(&mut self, addr: Address) -> &mut AccountInfo {
        let prev = self.accounts.get(&addr).cloned();
        self.journal
            .push(JournalEntry::AccountChanged { addr, prev });
        self.accounts.entry(addr).or_default()
    }

    /// Create (or overwrite the balance of) an account — used for genesis
    /// alloc. Journaled like every other write.
    pub fn create_account(&mut self, addr: Address, balance: u128) {
        self.account_mut(addr).balance = balance;
    }

    /// Mark `addr` as a deployed contract with a given code length.
    pub fn set_contract(&mut self, addr: Address, code_len: usize) {
        let account = self.account_mut(addr);
        account.is_contract = true;
        account.code_len = code_len;
    }

    /// Set the balance (journaled).
    pub fn set_balance(&mut self, addr: Address, balance: u128) {
        self.account_mut(addr).balance = balance;
    }

    /// Credit wei to an account.
    pub fn credit(&mut self, addr: Address, amount: u128) {
        let new = self.balance(addr).saturating_add(amount);
        self.set_balance(addr, new);
    }

    /// Debit wei from an account; `false` (and no change) on insufficient
    /// funds.
    pub fn debit(&mut self, addr: Address, amount: u128) -> bool {
        let current = self.balance(addr);
        if current < amount {
            return false;
        }
        self.set_balance(addr, current - amount);
        true
    }

    /// Increment the nonce (journaled).
    pub fn bump_nonce(&mut self, addr: Address) {
        self.account_mut(addr).nonce += 1;
    }

    /// Read a storage slot (zero for never-written slots, like the EVM).
    pub fn storage_get(&self, addr: Address, key: H256) -> H256 {
        self.storage
            .get(&(addr, key))
            .copied()
            .unwrap_or(H256::ZERO)
    }

    /// Write a storage slot (journaled). Writing zero clears the slot.
    pub fn storage_set(&mut self, addr: Address, key: H256, value: H256) {
        let prev = if value.is_zero() {
            self.storage.remove(&(addr, key))
        } else {
            self.storage.insert((addr, key), value)
        };
        self.journal
            .push(JournalEntry::StorageChanged { addr, key, prev });
    }

    /// Convenience: read a slot as a [`U256`].
    pub fn storage_get_u256(&self, addr: Address, key: H256) -> U256 {
        self.storage_get(addr, key).to_u256()
    }

    /// Convenience: write a slot from a [`U256`].
    pub fn storage_set_u256(&mut self, addr: Address, key: H256, value: U256) {
        self.storage_set(addr, key, H256::from_u256(value));
    }

    /// Number of live (non-zero) storage slots for `addr`. O(state size) —
    /// a diagnostics/test helper, never on the execution path.
    pub fn storage_slot_count(&self, addr: Address) -> usize {
        self.storage.keys().filter(|(a, _)| *a == addr).count()
    }

    /// Take a snapshot; a later [`WorldState::revert_to`] undoes every write
    /// made since. O(1): the snapshot is just the journal length.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.journal.len())
    }

    /// Undo all writes made after `snapshot` (in reverse order). O(entries
    /// written since the snapshot).
    pub fn revert_to(&mut self, snapshot: Snapshot) {
        while self.journal.len() > snapshot.0 {
            match self.journal.pop().expect("len checked") {
                JournalEntry::AccountChanged { addr, prev } => match prev {
                    Some(info) => {
                        self.accounts.insert(addr, info);
                    }
                    None => {
                        self.accounts.remove(&addr);
                    }
                },
                JournalEntry::StorageChanged { addr, key, prev } => match prev {
                    Some(value) => {
                        self.storage.insert((addr, key), value);
                    }
                    None => {
                        self.storage.remove(&(addr, key));
                    }
                },
            }
        }
    }

    /// Discard journal history (e.g. after a transaction commits).
    /// Snapshots taken before this call must not be used afterwards.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Fork the state for off-chain simulation (§V): a deep copy of the
    /// accounts and storage, O(world size), with an empty journal. Writes
    /// on either side are invisible to the other.
    pub fn fork(&self) -> WorldState {
        WorldState {
            accounts: self.accounts.clone(),
            storage: self.storage.clone(),
            journal: Vec::new(),
        }
    }

    /// A deterministic digest of the complete state (accounts + non-zero
    /// storage, sorted) — the simulator's stand-in for a state root.
    /// O(world size): a test/diagnostic helper, never on the execution
    /// path.
    pub fn state_digest(&self) -> H256 {
        let accounts: BTreeMap<&Address, &AccountInfo> = self.accounts.iter().collect();
        let storage: BTreeMap<&(Address, H256), &H256> = self.storage.iter().collect();
        let mut buf = Vec::with_capacity(accounts.len() * 41 + storage.len() * 84);
        for (addr, info) in accounts {
            buf.extend_from_slice(addr.as_bytes());
            buf.extend_from_slice(&info.nonce.to_be_bytes());
            buf.extend_from_slice(&info.balance.to_be_bytes());
            buf.extend_from_slice(&(info.code_len as u64).to_be_bytes());
            buf.push(info.is_contract as u8);
        }
        for ((addr, key), value) in storage {
            buf.extend_from_slice(addr.as_bytes());
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(value.as_bytes());
        }
        keccak256(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    fn key(n: u64) -> H256 {
        H256::from_u256(U256::from_u64(n))
    }

    #[test]
    fn balances_credit_debit() {
        let mut state = WorldState::new();
        state.credit(addr(1), 100);
        assert_eq!(state.balance(addr(1)), 100);
        assert!(state.debit(addr(1), 60));
        assert_eq!(state.balance(addr(1)), 40);
        assert!(!state.debit(addr(1), 41));
        assert_eq!(state.balance(addr(1)), 40);
    }

    #[test]
    fn storage_defaults_to_zero() {
        let state = WorldState::new();
        assert_eq!(state.storage_get(addr(1), key(0)), H256::ZERO);
    }

    #[test]
    fn storage_set_get_clear() {
        let mut state = WorldState::new();
        state.storage_set_u256(addr(1), key(0), U256::from_u64(7));
        assert_eq!(state.storage_get_u256(addr(1), key(0)), U256::from_u64(7));
        assert_eq!(state.storage_slot_count(addr(1)), 1);
        state.storage_set_u256(addr(1), key(0), U256::ZERO);
        assert_eq!(state.storage_slot_count(addr(1)), 0);
    }

    #[test]
    fn snapshot_revert_restores_everything() {
        let mut state = WorldState::new();
        state.credit(addr(1), 100);
        state.storage_set_u256(addr(2), key(5), U256::from_u64(1));
        let snap = state.snapshot();

        state.debit(addr(1), 30);
        state.bump_nonce(addr(1));
        state.storage_set_u256(addr(2), key(5), U256::from_u64(2));
        state.storage_set_u256(addr(2), key(6), U256::from_u64(3));
        state.credit(addr(3), 55);

        state.revert_to(snap);
        assert_eq!(state.balance(addr(1)), 100);
        assert_eq!(state.nonce(addr(1)), 0);
        assert_eq!(state.storage_get_u256(addr(2), key(5)), U256::from_u64(1));
        assert_eq!(state.storage_get_u256(addr(2), key(6)), U256::ZERO);
        assert!(!state.exists(addr(3)));
    }

    #[test]
    fn nested_snapshots() {
        let mut state = WorldState::new();
        state.storage_set_u256(addr(1), key(0), U256::from_u64(1));
        let outer = state.snapshot();
        state.storage_set_u256(addr(1), key(0), U256::from_u64(2));
        let inner = state.snapshot();
        state.storage_set_u256(addr(1), key(0), U256::from_u64(3));
        state.revert_to(inner);
        assert_eq!(state.storage_get_u256(addr(1), key(0)), U256::from_u64(2));
        state.revert_to(outer);
        assert_eq!(state.storage_get_u256(addr(1), key(0)), U256::from_u64(1));
    }

    #[test]
    fn fork_is_isolated() {
        let mut state = WorldState::new();
        state.credit(addr(1), 10);
        let mut fork = state.fork();
        fork.credit(addr(1), 90);
        fork.storage_set_u256(addr(2), key(0), U256::from_u64(9));
        assert_eq!(state.balance(addr(1)), 10);
        assert_eq!(state.storage_get_u256(addr(2), key(0)), U256::ZERO);
        assert_eq!(fork.balance(addr(1)), 100);
    }

    #[test]
    fn zero_write_to_committed_slot_clears_it_and_reverts() {
        let mut state = WorldState::new();
        state.storage_set_u256(addr(1), key(0), U256::from_u64(5));
        state.storage_set_u256(addr(1), key(1), U256::from_u64(6));
        state.commit();
        assert_eq!(state.storage_slot_count(addr(1)), 2);
        let snap = state.snapshot();
        state.storage_set_u256(addr(1), key(0), U256::ZERO);
        assert_eq!(state.storage_get_u256(addr(1), key(0)), U256::ZERO);
        assert_eq!(state.storage_slot_count(addr(1)), 1);
        state.revert_to(snap);
        assert_eq!(state.storage_get_u256(addr(1), key(0)), U256::from_u64(5));
        assert_eq!(state.storage_slot_count(addr(1)), 2);
    }

    #[test]
    fn state_digest_depends_only_on_contents() {
        let mut a = WorldState::new();
        a.credit(addr(1), 5);
        a.storage_set_u256(addr(2), key(0), U256::from_u64(3));
        a.commit();
        // Same contents reached by a different path, uncommitted.
        let mut b = WorldState::new();
        b.storage_set_u256(addr(2), key(0), U256::from_u64(3));
        b.credit(addr(1), 2);
        b.credit(addr(1), 3);
        assert_eq!(a.state_digest(), b.state_digest());

        b.storage_set_u256(addr(2), key(0), U256::from_u64(4));
        assert_ne!(a.state_digest(), b.state_digest());
        // Clearing a slot equals never writing it.
        b.storage_set_u256(addr(2), key(0), U256::ZERO);
        let mut c = WorldState::new();
        c.credit(addr(1), 5);
        assert_eq!(b.state_digest(), c.state_digest());
    }

    #[test]
    fn contract_marking() {
        let mut state = WorldState::new();
        state.set_contract(addr(7), 1234);
        assert!(state.is_contract(addr(7)));
        assert_eq!(state.account(addr(7)).unwrap().code_len, 1234);
        assert!(!state.is_contract(addr(8)));
    }

    proptest! {
        #[test]
        fn prop_revert_restores_storage(
            writes in prop::collection::vec((0u64..4, 0u64..4, any::<u64>()), 1..24),
            split in 0usize..24,
        ) {
            let mut state = WorldState::new();
            let split = split.min(writes.len());
            for (a, k, v) in &writes[..split] {
                state.storage_set_u256(addr(*a), key(*k), U256::from_u64(*v));
            }
            // Record state before the snapshot region.
            let mut expected = std::collections::HashMap::new();
            for a in 0..4u64 {
                for k in 0..4u64 {
                    expected.insert((a, k), state.storage_get_u256(addr(a), key(k)));
                }
            }
            let snap = state.snapshot();
            for (a, k, v) in &writes[split..] {
                state.storage_set_u256(addr(*a), key(*k), U256::from_u64(*v));
            }
            state.revert_to(snap);
            for ((a, k), v) in expected {
                prop_assert_eq!(state.storage_get_u256(addr(a), key(k)), v);
            }
        }
    }
}
