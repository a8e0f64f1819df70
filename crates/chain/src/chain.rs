//! Chain orchestration: block production, transaction intake, deployment,
//! dry runs, forking, and reorgs.

use smacs_crypto::{keccak256, Keypair};
use smacs_primitives::pool::WorkerPool;
use smacs_primitives::rlp::{self, Item, ToRlp};
use smacs_primitives::{Address, Bytes, H256};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::block::{Block, BlockEnv};
use crate::contract::{Contract, ContractRegistry, DeployedContract};
use crate::exec::{Executor, MessageCall, VmError};
use crate::gas::{GasBreakdown, GasSchedule};
use crate::receipt::{ExecStatus, Log, Receipt};
use crate::state::{AccountInfo, TouchSet, WorldState};
use crate::trace::CallTrace;
use crate::tx::{SignedTransaction, Transaction};

/// Chain-level configuration.
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Seconds between consecutive block timestamps.
    pub block_time: u64,
    /// Genesis Unix timestamp.
    pub genesis_timestamp: u64,
    /// Gas cost constants.
    pub schedule: GasSchedule,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_time: 13,                   // Ethereum's paper-era average
            genesis_timestamp: 1_546_300_800, // 2019-01-01, the paper's data-collection era
            schedule: GasSchedule::default(),
        }
    }
}

/// Why a transaction was rejected before execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChainError {
    /// The signature did not recover to any sender.
    InvalidSignature,
    /// The nonce did not match the sender's account nonce — Ethereum's
    /// replay protection (§II-C): an already-accepted transaction "will not
    /// be processed again".
    BadNonce {
        /// Nonce the account expects next.
        expected: u64,
        /// Nonce the transaction carried.
        got: u64,
    },
    /// Sender cannot cover `gas_limit × gas_price + value`.
    InsufficientFunds,
    /// Gas limit below the intrinsic cost of the calldata.
    IntrinsicGasTooLow,
    /// Reorg request deeper than the chain.
    BadReorgHeight,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::InvalidSignature => write!(f, "invalid transaction signature"),
            ChainError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            ChainError::InsufficientFunds => write!(f, "insufficient funds for gas + value"),
            ChainError::IntrinsicGasTooLow => write!(f, "gas limit below intrinsic cost"),
            ChainError::BadReorgHeight => write!(f, "reorg height beyond chain tip"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Everything a transaction execution produces besides its chain-level
/// bookkeeping (receipt assembly, pending-block membership). Produced by
/// the core execution routine so it can run identically on the canonical
/// state and on per-transaction forks.
struct TxOutcome {
    status: ExecStatus,
    return_data: Bytes,
    logs: Vec<Log>,
    trace: CallTrace,
    gas_used: u64,
    breakdown: GasBreakdown,
}

/// How [`Chain::execute_block_with`] schedules a block's transactions.
pub enum BlockMode<'p> {
    /// One at a time on the canonical state — the reference semantics.
    Sequential,
    /// Optimistic Block-STM-style parallel execution on the given pool;
    /// results are bit-identical to [`BlockMode::Sequential`].
    Parallel(&'p WorkerPool),
}

/// The net state effect of a validated speculation: the final value of
/// every account/slot its transaction wrote, read off the transaction's
/// fork. Applying these to the canonical state reproduces a sequential
/// execution exactly, because validation guaranteed every value the
/// speculation *read* matches the canonical state at apply time.
struct TxDelta {
    /// `None` means the account ended absent (all its writes reverted and
    /// it never existed in the pre-state) — nothing to apply.
    accounts: Vec<(Address, Option<AccountInfo>)>,
    storage: Vec<(Address, H256, H256)>,
}

impl TxDelta {
    fn capture(fork: &WorldState, touch: &TouchSet) -> TxDelta {
        let mut accounts: Vec<_> = touch
            .account_writes
            .iter()
            .map(|&addr| (addr, fork.account(addr).cloned()))
            .collect();
        accounts.sort_by_key(|(addr, _)| *addr);
        let mut storage: Vec<_> = touch
            .storage_writes
            .iter()
            .map(|&(addr, key)| (addr, key, fork.storage_get(addr, key)))
            .collect();
        storage.sort_by_key(|(addr, key, _)| (*addr, *key));
        TxDelta { accounts, storage }
    }

    fn apply(self, state: &mut WorldState) {
        for (addr, info) in self.accounts {
            if let Some(info) = info {
                state.apply_account(addr, info);
            }
        }
        for (addr, key, value) in self.storage {
            state.storage_set(addr, key, value);
        }
    }
}

/// One transaction's parallel-phase result, pending in-order validation.
struct Speculation {
    outcome: Result<TxOutcome, ChainError>,
    touch: TouchSet,
    delta: TxDelta,
}

/// The simulated chain: state, contracts, blocks, receipts.
///
/// Transactions submitted with [`Chain::submit`] execute immediately into
/// the pending block; [`Chain::seal_block`] closes it and advances the
/// timestamp. A fork ([`Chain::fork`]) deep-copies the state for off-chain
/// simulation (what a Token Service runs its verification tools on), and
/// [`Chain::reorg`] re-derives the state on an alternative suffix of blocks
/// — used to demonstrate that even a 51% adversary cannot mint tokens
/// (§VII-A).
pub struct Chain {
    config: ChainConfig,
    state: WorldState,
    registry: ContractRegistry,
    blocks: Vec<Block>,
    pending: Vec<SignedTransaction>,
    pending_timestamp: u64,
    receipts: HashMap<H256, Receipt>,
    genesis_accounts: Vec<(Address, u128)>,
}

impl Chain {
    /// A fresh chain with the given configuration.
    pub fn new(config: ChainConfig) -> Self {
        let genesis = Block::genesis(config.genesis_timestamp);
        let pending_timestamp = config.genesis_timestamp + config.block_time;
        Chain {
            config,
            state: WorldState::new(),
            registry: ContractRegistry::new(),
            blocks: vec![genesis],
            pending: Vec::new(),
            pending_timestamp,
            receipts: HashMap::new(),
            genesis_accounts: Vec::new(),
        }
    }

    /// A chain with default config.
    pub fn default_chain() -> Self {
        Self::new(ChainConfig::default())
    }

    /// The active gas schedule.
    pub fn schedule(&self) -> &GasSchedule {
        &self.config.schedule
    }

    /// Immutable view of the world state.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// The contract registry.
    pub fn registry(&self) -> &ContractRegistry {
        &self.registry
    }

    /// Height of the last sealed block.
    pub fn height(&self) -> u64 {
        self.blocks.last().expect("genesis always present").number
    }

    /// The sealed blocks, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The environment the pending block executes under.
    pub fn pending_env(&self) -> BlockEnv {
        BlockEnv {
            number: self.height() + 1,
            timestamp: self.pending_timestamp,
        }
    }

    /// Receipt for a transaction hash, if it has been executed.
    pub fn receipt(&self, tx_hash: H256) -> Option<&Receipt> {
        self.receipts.get(&tx_hash)
    }

    /// Create a funded externally owned account.
    pub fn fund_account(&mut self, addr: Address, wei: u128) {
        self.state.create_account(addr, wei);
        self.state.commit();
        self.genesis_accounts.push((addr, wei));
    }

    /// Convenience: deterministic funded keypair for tests/experiments.
    pub fn funded_keypair(&mut self, seed: u64, wei: u128) -> Keypair {
        let kp = Keypair::from_seed(seed);
        self.fund_account(kp.address(), wei);
        kp
    }

    /// Advance the pending block's timestamp by `seconds` (time travel for
    /// expiry tests; monotone only).
    pub fn advance_time(&mut self, seconds: u64) {
        self.pending_timestamp += seconds;
    }

    /// The contract address Ethereum derives for a creation:
    /// `keccak256(rlp([sender, nonce]))[12..]`.
    pub fn contract_address(sender: Address, nonce: u64) -> Address {
        let item = Item::List(vec![sender.to_rlp(), nonce.to_rlp()]);
        let hash = keccak256(&rlp::encode(&item));
        Address::from_slice(&hash.0[12..]).expect("20-byte suffix")
    }

    /// Deploy `logic` from `owner`, charging creation gas (intrinsic +
    /// constructor execution + code deposit). Returns the deployment.
    pub fn deploy(
        &mut self,
        owner: &Keypair,
        logic: Arc<dyn Contract>,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        self.deploy_with_value(owner, logic, 0)
    }

    /// [`Chain::deploy`] with an endowment.
    pub fn deploy_with_value(
        &mut self,
        owner: &Keypair,
        logic: Arc<dyn Contract>,
        value: u128,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        self.deploy_with_limit(owner, logic, value, 10_000_000)
    }

    /// [`Chain::deploy`] with an explicit gas limit — large storage
    /// initializations (Table IV's 126 kbit bitmap) exceed the default.
    pub fn deploy_with_limit(
        &mut self,
        owner: &Keypair,
        logic: Arc<dyn Contract>,
        value: u128,
        gas_limit: u64,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        let sender = owner.address();
        let nonce = self.state.nonce(sender);
        let tx = Transaction {
            nonce,
            gas_price: 1_000_000_000,
            gas_limit,
            to: None,
            value,
            data: Bytes::new(),
        };
        let signed = tx.sign(owner);
        let address = Self::contract_address(sender, nonce);
        self.registry.insert(address, logic.clone());
        let receipt = self.execute_transaction(&signed)?;
        let deployed = DeployedContract { address, logic };
        Ok((deployed, receipt))
    }

    /// Submit a signed transaction: validate, execute into the pending
    /// block, and return the receipt.
    pub fn submit(&mut self, signed: SignedTransaction) -> Result<Receipt, ChainError> {
        self.execute_transaction(&signed)
    }

    /// Build, sign, and submit a call transaction from `from` in one step.
    pub fn call_contract(
        &mut self,
        from: &Keypair,
        to: Address,
        value: u128,
        data: impl Into<Bytes>,
    ) -> Result<Receipt, ChainError> {
        let nonce = self.state.nonce(from.address());
        let tx = Transaction::call(nonce, to, value, data.into());
        self.submit(tx.sign(from))
    }

    fn execute_transaction(&mut self, signed: &SignedTransaction) -> Result<Receipt, ChainError> {
        let env = self.pending_env();
        let outcome = Self::execute_tx_on(
            &mut self.state,
            &self.registry,
            &self.config.schedule,
            env,
            signed,
            true,
        )?;
        Ok(self.record_tx(signed, outcome))
    }

    /// The core per-transaction execution routine, usable on the canonical
    /// state (sequential / conflict re-execution) and on per-transaction
    /// forks (parallel speculation). `commit` controls whether the state's
    /// journal is flushed at the usual points — `false` on forks, whose
    /// net effect is harvested as a [`TxDelta`] instead.
    ///
    /// Validation reads (sender nonce/balance) go through the tracked
    /// accessors so a speculation that failed validation on a stale fork
    /// still conflicts with the earlier transaction that changed the
    /// sender's account, and gets re-executed.
    fn execute_tx_on(
        state: &mut WorldState,
        registry: &ContractRegistry,
        schedule: &GasSchedule,
        env: BlockEnv,
        signed: &SignedTransaction,
        commit: bool,
    ) -> Result<TxOutcome, ChainError> {
        let sender = signed.sender().ok_or(ChainError::InvalidSignature)?;
        let tx = &signed.tx;
        let expected_nonce = state.nonce_tracked(sender);
        if tx.nonce != expected_nonce {
            return Err(ChainError::BadNonce {
                expected: expected_nonce,
                got: tx.nonce,
            });
        }
        let gas_cost = tx.gas_limit as u128 * tx.gas_price;
        let upfront = gas_cost.saturating_add(tx.value);
        if state.balance_tracked(sender) < upfront {
            return Err(ChainError::InsufficientFunds);
        }
        let is_create = tx.to.is_none();
        let intrinsic = schedule.intrinsic_gas(&tx.data, is_create);
        if intrinsic > tx.gas_limit {
            return Err(ChainError::IntrinsicGasTooLow);
        }

        // Buy gas and bump the nonce (irrevocable even on revert).
        state.debit(sender, gas_cost);
        state.bump_nonce(sender);
        if commit {
            state.commit();
        }

        let mut executor = Executor::new(state, registry, schedule, env, sender, tx.gas_limit);
        executor
            .meter
            .charge(intrinsic)
            .expect("intrinsic fits: checked above");

        let (status, return_data, logs, trace, gas_used, breakdown) = if is_create {
            let address = Self::contract_address(sender, expected_nonce);
            let logic = registry
                .get(address)
                .expect("deploy registers logic before executing");
            let outcome = (|| {
                executor
                    .meter
                    .charge(logic.code_len() as u64 * executor.schedule.code_deposit)?;
                executor.construct(sender, address, tx.value, logic.clone())
            })();
            let logs = executor.take_logs();
            let trace = executor.take_trace();
            let breakdown = executor.meter.breakdown();
            let gas_used = executor.meter.effective_used();
            match outcome {
                Ok(()) => {
                    state.set_contract(address, logic.code_len());
                    (
                        ExecStatus::Success,
                        Bytes::new(),
                        logs,
                        trace,
                        gas_used,
                        breakdown,
                    )
                }
                Err(err) => (
                    vm_error_status(&err),
                    Bytes::new(),
                    Vec::new(),
                    trace,
                    gas_used,
                    breakdown,
                ),
            }
        } else {
            let callee = tx.to.expect("checked is_create");
            let outcome = executor.call(MessageCall {
                caller: sender,
                callee,
                value: tx.value,
                data: tx.data.clone(),
            });
            let logs = executor.take_logs();
            let trace = executor.take_trace();
            let breakdown = executor.meter.breakdown();
            let gas_used = executor.meter.effective_used();
            match outcome {
                Ok(ret) => (ExecStatus::Success, ret, logs, trace, gas_used, breakdown),
                Err(err) => (
                    vm_error_status(&err),
                    Bytes::new(),
                    Vec::new(),
                    trace,
                    gas_used,
                    breakdown,
                ),
            }
        };

        // Refund unused gas.
        let refund_wei = (tx.gas_limit - gas_used) as u128 * tx.gas_price;
        state.credit(sender, refund_wei);
        if commit {
            state.commit();
        }

        Ok(TxOutcome {
            status,
            return_data,
            logs,
            trace,
            gas_used,
            breakdown,
        })
    }

    /// Chain-level bookkeeping for an executed transaction: build the
    /// receipt, add the transaction to the pending block, index the receipt.
    fn record_tx(&mut self, signed: &SignedTransaction, outcome: TxOutcome) -> Receipt {
        let receipt = Receipt {
            tx_hash: signed.hash(),
            block_number: self.height() + 1,
            status: outcome.status,
            gas_used: outcome.gas_used,
            breakdown: outcome.breakdown,
            logs: outcome.logs,
            return_data: outcome.return_data,
            trace: outcome.trace,
        };
        self.pending.push(signed.clone());
        self.receipts.insert(receipt.tx_hash, receipt.clone());
        receipt
    }

    /// The single block-execution entry point: run `txs` into the pending
    /// block under the given [`BlockMode`]. Per-transaction failures never
    /// abort the block — each transaction gets its own `Result`, and
    /// callers that replay history simply ignore the errors, as miners do.
    pub fn execute_block_with(
        &mut self,
        txs: &[SignedTransaction],
        mode: BlockMode<'_>,
    ) -> Vec<Result<Receipt, ChainError>> {
        match mode {
            BlockMode::Sequential => txs
                .iter()
                .map(|signed| self.execute_transaction(signed))
                .collect(),
            BlockMode::Parallel(pool) => self.execute_block_parallel(txs, pool),
        }
    }

    /// Execute `txs` into the pending block and seal it — block production
    /// through one pipeline, sequential or parallel.
    pub fn seal_block_with(
        &mut self,
        txs: &[SignedTransaction],
        mode: BlockMode<'_>,
    ) -> (Vec<Result<Receipt, ChainError>>, &Block) {
        let results = self.execute_block_with(txs, mode);
        (results, self.seal_block())
    }

    /// Optimistic Block-STM-style parallel block execution.
    ///
    /// Phase 1 (parallel): every transaction runs speculatively on its own
    /// [`WorldState::fork`] of the pre-block state, with touch recording
    /// on; its net effect is harvested as a `TxDelta`.
    ///
    /// Phase 2 (sequential, in transaction order): a speculation is valid
    /// iff its read set does not overlap the writes of any earlier
    /// transaction in the block ([`TouchSet::conflicts_with_writes`]) —
    /// then its delta applies to the canonical state verbatim. Conflicting
    /// transactions re-execute on the canonical state. Results — receipts,
    /// traces, logs, gas, final state — are bit-identical to
    /// [`BlockMode::Sequential`]; the differential suite pins this.
    pub fn execute_block_parallel(
        &mut self,
        txs: &[SignedTransaction],
        pool: &WorkerPool,
    ) -> Vec<Result<Receipt, ChainError>> {
        if txs.is_empty() {
            return Vec::new();
        }
        let env = self.pending_env();
        let base = &self.state;
        let registry = &self.registry;
        let schedule = &self.config.schedule;
        let speculations: Vec<Speculation> = pool.scope_map(txs.len(), |i| {
            let mut fork = base.fork();
            fork.begin_touch_recording();
            let outcome = Self::execute_tx_on(&mut fork, registry, schedule, env, &txs[i], false);
            let touch = fork.take_touch_set();
            let delta = TxDelta::capture(&fork, &touch);
            Speculation {
                outcome,
                touch,
                delta,
            }
        });

        let mut committed = TouchSet::default();
        let mut results = Vec::with_capacity(txs.len());
        for (i, spec) in speculations.into_iter().enumerate() {
            let outcome = if spec.touch.conflicts_with_writes(&committed) {
                // An earlier transaction wrote something this speculation
                // read: its fork view was stale. Re-execute on the
                // canonical state (recording, so its real writes join the
                // committed set).
                self.state.begin_touch_recording();
                let outcome = Self::execute_tx_on(
                    &mut self.state,
                    &self.registry,
                    &self.config.schedule,
                    env,
                    &txs[i],
                    true,
                );
                let touch = self.state.take_touch_set();
                committed.absorb_writes(&touch);
                outcome
            } else {
                spec.delta.apply(&mut self.state);
                self.state.commit();
                committed.absorb_writes(&spec.touch);
                spec.outcome
            };
            results.push(outcome.map(|o| self.record_tx(&txs[i], o)));
        }
        results
    }

    /// Seal the pending block and start a new one.
    pub fn seal_block(&mut self) -> &Block {
        let parent_hash = self.blocks.last().expect("genesis").hash();
        let block = Block {
            number: self.height() + 1,
            timestamp: self.pending_timestamp,
            parent_hash,
            transactions: std::mem::take(&mut self.pending),
        };
        self.blocks.push(block);
        self.pending_timestamp += self.config.block_time;
        self.blocks.last().expect("just pushed")
    }

    /// `eth_call`-style dry run: execute without committing state, without
    /// nonce/balance bookkeeping. Returns the call result, gas used, and
    /// the trace — everything a TS-side verification tool needs.
    pub fn dry_run(
        &mut self,
        from: Address,
        to: Address,
        value: u128,
        data: impl Into<Bytes>,
    ) -> (Result<Bytes, VmError>, u64, CallTrace, GasBreakdown) {
        let snapshot = self.state.snapshot();
        let env = self.pending_env();
        let mut executor = Executor::new(
            &mut self.state,
            &self.registry,
            &self.config.schedule,
            env,
            from,
            10_000_000,
        );
        let result = executor.call(MessageCall {
            caller: from,
            callee: to,
            value,
            data: data.into(),
        });
        let trace = executor.take_trace();
        let gas = executor.meter.used();
        let breakdown = executor.meter.breakdown();
        self.state.revert_to(snapshot);
        (result, gas, trace, breakdown)
    }

    /// Deep-copy the chain — the "local testnet" a Token Service runs its
    /// runtime-verification tools on (§V). Contract logic is shared
    /// (immutable); state and history are copied.
    pub fn fork(&self) -> Chain {
        Chain {
            config: self.config.clone(),
            state: self.state.fork(),
            registry: self.registry.clone(),
            blocks: self.blocks.clone(),
            pending: self.pending.clone(),
            pending_timestamp: self.pending_timestamp,
            receipts: self.receipts.clone(),
            genesis_accounts: self.genesis_accounts.clone(),
        }
    }

    /// Rewrite history from `keep_height` (exclusive): drop every later
    /// block, reset state to genesis, and replay the kept prefix. Returns
    /// the dropped transactions so a caller can model an adversary
    /// selectively re-including them (§VII-A's 51% discussion).
    ///
    /// Replay re-executes deployments because contract logic stays in the
    /// registry keyed by address.
    pub fn reorg(&mut self, keep_height: u64) -> Result<Vec<SignedTransaction>, ChainError> {
        if keep_height > self.height() {
            return Err(ChainError::BadReorgHeight);
        }
        let dropped: Vec<SignedTransaction> = self
            .blocks
            .iter()
            .filter(|b| b.number > keep_height)
            .flat_map(|b| b.transactions.iter().cloned())
            .chain(self.pending.drain(..))
            .collect();

        let replay: Vec<Block> = self
            .blocks
            .iter()
            .filter(|b| b.number != 0 && b.number <= keep_height)
            .cloned()
            .collect();

        // Reset to genesis. Funding is not blockchain history in this
        // simulator (it is genesis alloc), so we must rebuild it: capture
        // EOA balances seeded via fund_account by replaying from scratch is
        // impossible — instead we conservatively keep genesis accounts that
        // never appear as contract addresses. Simplest sound approach:
        // start from empty state, re-fund from recorded genesis alloc.
        let genesis_alloc = self.genesis_alloc();
        self.state = WorldState::new();
        for (addr, wei) in genesis_alloc {
            self.state.create_account(addr, wei);
        }
        self.state.commit();
        self.blocks.truncate(1);
        self.pending_timestamp = self.config.genesis_timestamp + self.config.block_time;
        self.receipts.clear();

        for block in replay {
            // Failed replays are possible if the adversary reordered
            // dependencies; the block pipeline returns per-tx results and
            // never aborts, so dropping them ignores errors like miners do.
            let _ = self.seal_block_with(&block.transactions, BlockMode::Sequential);
        }
        Ok(dropped)
    }

    fn genesis_alloc(&self) -> Vec<(Address, u128)> {
        self.genesis_accounts.clone()
    }

    /// Record of genesis-funded accounts (populated by [`Chain::fund_account`]).
    pub fn genesis_accounts_list(&self) -> &[(Address, u128)] {
        &self.genesis_accounts
    }
}

fn vm_error_status(err: &VmError) -> ExecStatus {
    match err {
        VmError::OutOfGas(_) => ExecStatus::OutOfGas,
        VmError::Revert(reason) => ExecStatus::Reverted(reason.clone()),
        other => ExecStatus::Reverted(other.to_string()),
    }
}
