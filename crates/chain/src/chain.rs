//! Chain orchestration: block production, transaction intake, deployment,
//! dry runs, forking, and reorgs.

use smacs_crypto::{keccak256, recover_batch, Keypair};
use smacs_primitives::pool::WorkerPool;
use smacs_primitives::rlp::{self, Item, ToRlp};
use smacs_primitives::{Address, Bytes, H256};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::block::{Block, BlockEnv};
use crate::contract::{Contract, ContractRegistry, DeployedContract};
use crate::exec::{Executor, MessageCall, Recovery, VmError};
use crate::gas::{GasBreakdown, SCHEDULE};
use crate::receipt::{ExecStatus, Receipt};
use crate::state::WorldState;
use crate::trace::CallTrace;
use crate::tx::{SignedTransaction, Transaction};

/// Seconds between consecutive block timestamps: Ethereum's paper-era
/// average.
const BLOCK_TIME: u64 = 13;

/// Genesis Unix timestamp: 2019-01-01, the paper's data-collection era.
const GENESIS_TIMESTAMP: u64 = 1_546_300_800;

/// The fewest transactions a chunk of the block prepass gets. A recovery
/// costs far more than a pool hand-off, so even a two-transaction block
/// is spread across two threads.
const PREPASS_CHUNK_MIN: usize = 1;

/// Why a transaction was rejected before execution, or a mined creation
/// failed.
#[derive(Clone, PartialEq, Debug)]
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
    /// A creation was mined but failed (reverted or ran out of gas), so
    /// its address holds no code. Carries the creation's receipt.
    CreationFailed(Box<Receipt>),
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
            ChainError::CreationFailed(receipt) => {
                write!(f, "contract creation failed: {:?}", receipt.status)
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// How [`Chain::execute_block_with`] schedules a block's transactions.
pub enum BlockMode<'p> {
    /// One at a time on the canonical state — the reference semantics.
    Sequential,
    /// A signature prepass on the given pool, then the sequential loop:
    /// the block is cut into one chunk per pool thread, and each chunk
    /// derives its transactions' hashes and senders and then recovers the
    /// signatures their contracts hint at ([`Contract::recover_hints`]),
    /// as two batches ([`smacs_crypto::recover_batch`]) each sharing one
    /// scalar and one field inversion; a hinted known signer gets the
    /// cheaper comb check. Execution serves the hints from that memo.
    /// Results are bit-identical to [`BlockMode::Sequential`].
    Parallel(&'p WorkerPool),
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
    state: WorldState,
    registry: ContractRegistry,
    blocks: Vec<Block>,
    pending: Vec<SignedTransaction>,
    pending_timestamp: u64,
    receipts: HashMap<H256, Receipt>,
    genesis_accounts: Vec<(Address, u128)>,
}

impl Chain {
    /// A fresh chain: genesis at the paper-era timestamp, 13 s blocks.
    pub fn default_chain() -> Self {
        Chain {
            state: WorldState::new(),
            registry: ContractRegistry::new(),
            blocks: vec![Block::genesis(GENESIS_TIMESTAMP)],
            pending: Vec::new(),
            pending_timestamp: GENESIS_TIMESTAMP + BLOCK_TIME,
            receipts: HashMap::new(),
            genesis_accounts: Vec::new(),
        }
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
    /// constructor execution + code deposit). Returns the deployment, or
    /// [`ChainError::CreationFailed`] when the mined creation failed.
    pub fn deploy(
        &mut self,
        owner: &Keypair,
        logic: Arc<dyn Contract>,
    ) -> Result<(DeployedContract, Receipt), ChainError> {
        self.deploy_with_limit(owner, logic, 0, 10_000_000)
    }

    /// [`Chain::deploy`] with an endowment and an explicit gas limit —
    /// large storage initializations (Table IV's 126 kbit bitmap) exceed
    /// the default.
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
        match self.execute_transaction(&signed, &[]) {
            Ok(receipt) if receipt.status.is_success() => {
                Ok((DeployedContract { address, logic }, receipt))
            }
            // A failed creation is in the block, and a reorg that keeps the
            // block replays it, so its logic stays registered; calls find
            // no code at the address either way.
            Ok(receipt) => Err(ChainError::CreationFailed(Box::new(receipt))),
            Err(rejected) => {
                self.registry.remove(address);
                Err(rejected)
            }
        }
    }

    /// Submit a signed transaction: validate, execute into the pending
    /// block, and return the receipt.
    pub fn submit(&mut self, signed: SignedTransaction) -> Result<Receipt, ChainError> {
        self.execute_transaction(&signed, &[])
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

    /// Execute one transaction into the pending block: validate, buy gas,
    /// run the call or creation, refund, commit the state's journal, and
    /// record the receipt. `recovered` is the block prepass's memo for this
    /// transaction (empty outside [`BlockMode::Parallel`]).
    fn execute_transaction(
        &mut self,
        signed: &SignedTransaction,
        recovered: &[Recovery],
    ) -> Result<Receipt, ChainError> {
        let sender = signed.sender().ok_or(ChainError::InvalidSignature)?;
        let tx = &signed.tx;
        let env = self.pending_env();
        let state = &mut self.state;
        let expected_nonce = state.nonce(sender);
        if tx.nonce != expected_nonce {
            return Err(ChainError::BadNonce {
                expected: expected_nonce,
                got: tx.nonce,
            });
        }
        let gas_cost = tx.gas_limit as u128 * tx.gas_price;
        let upfront = gas_cost.saturating_add(tx.value);
        if state.balance(sender) < upfront {
            return Err(ChainError::InsufficientFunds);
        }
        let intrinsic = SCHEDULE.intrinsic_gas(&tx.data, tx.to.is_none());
        if intrinsic > tx.gas_limit {
            return Err(ChainError::IntrinsicGasTooLow);
        }

        // Buy gas and bump the nonce (irrevocable even on revert).
        state.debit(sender, gas_cost);
        state.bump_nonce(sender);
        state.commit();

        let registry = &self.registry;
        let mut executor = Executor::new(state, registry, env, sender, tx.gas_limit);
        executor.recovered = recovered;
        executor
            .meter
            .charge(intrinsic)
            .expect("intrinsic fits: checked above");

        // `created`: the code a successful creation deposits once the
        // executor is done with the state.
        let (outcome, created) = match tx.to {
            Some(callee) => (
                executor.call(MessageCall {
                    caller: sender,
                    callee,
                    value: tx.value,
                    data: tx.data.clone(),
                }),
                None,
            ),
            None => {
                let address = Self::contract_address(sender, expected_nonce);
                let logic = registry
                    .get(address)
                    .expect("deploy registers logic before executing");
                let code_len = logic.code_len();
                let outcome = executor
                    .meter
                    .charge(code_len as u64 * SCHEDULE.code_deposit)
                    .map_err(VmError::from)
                    .and_then(|()| executor.construct(sender, address, tx.value, logic))
                    .map(|()| Bytes::new());
                (outcome, Some((address, code_len)))
            }
        };
        let logs = executor.take_logs();
        let trace = executor.take_trace();
        let breakdown = executor.meter.breakdown();
        let gas_used = executor.meter.effective_used();
        let (status, return_data, logs) = match outcome {
            Ok(ret) => {
                if let Some((address, code_len)) = created {
                    state.set_contract(address, code_len);
                }
                (ExecStatus::Success, ret, logs)
            }
            Err(err) => (vm_error_status(&err), Bytes::new(), Vec::new()),
        };

        // Refund unused gas.
        let refund_wei = (tx.gas_limit - gas_used) as u128 * tx.gas_price;
        state.credit(sender, refund_wei);
        state.commit();

        let receipt = Receipt {
            tx_hash: signed.hash(),
            block_number: env.number,
            status,
            gas_used,
            breakdown,
            logs,
            return_data,
            trace,
        };
        self.pending.push(signed.clone());
        self.receipts.insert(receipt.tx_hash, receipt.clone());
        Ok(receipt)
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
                .map(|signed| self.execute_transaction(signed, &[]))
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

    /// [`BlockMode::Parallel`]: recover signatures across the pool, then
    /// run the block exactly as [`BlockMode::Sequential`] does.
    ///
    /// The prepass cuts the block into one balanced chunk per pool thread
    /// ([`WorkerPool::map_chunks`]). Each chunk makes two batch calls, each
    /// sharing one scalar and one field inversion among its items: first
    /// `SignedTransaction::senders`, which memoizes each transaction's
    /// hash and sender, then [`recover_batch`] over the `(digest,
    /// signature, expected signer)` hints each target contract gives for its
    /// top-level call — the hints come second because their digests name
    /// the recovered origin. The chain memoizes every hint's answer from
    /// the pair itself, so a wrong pair or signer costs one wasted
    /// recovery and never changes a result; a recovery nobody hinted (a
    /// callee reached through a nested call) simply runs live.
    fn execute_block_parallel(
        &mut self,
        txs: &[SignedTransaction],
        pool: &WorkerPool,
    ) -> Vec<Result<Receipt, ChainError>> {
        let registry = &self.registry;
        let memos: Vec<Vec<Recovery>> = pool.map_chunks(txs, PREPASS_CHUNK_MIN, |chunk| {
            let senders = SignedTransaction::senders(chunk);
            let mut hints: Vec<Vec<Recovery>> = chunk
                .iter()
                .zip(senders)
                .map(|(signed, origin)| match (origin, signed.tx.to) {
                    (Some(origin), Some(to)) => registry.get(to).map_or_else(Vec::new, |logic| {
                        logic.recover_hints(origin, to, &signed.tx.data)
                    }),
                    _ => Vec::new(),
                })
                .collect();
            // Each hint's expected signer gives way to the exact answer.
            let mut answers = recover_batch(&hints.concat()).into_iter();
            for (_, _, slot) in hints.iter_mut().flatten() {
                *slot = answers.next().expect("one answer per hint");
            }
            hints
        });
        txs.iter()
            .zip(&memos)
            .map(|(signed, memo)| self.execute_transaction(signed, memo))
            .collect()
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
        self.pending_timestamp += BLOCK_TIME;
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
        let mut executor = Executor::new(&mut self.state, &self.registry, env, from, 10_000_000);
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

        // Reset to genesis: funding is genesis alloc, not a transaction, so
        // replaying the blocks cannot restore it and the recorded alloc is
        // re-applied instead.
        self.state = WorldState::new();
        for &(addr, wei) in &self.genesis_accounts {
            self.state.create_account(addr, wei);
        }
        self.state.commit();
        self.blocks.truncate(1);
        self.pending_timestamp = GENESIS_TIMESTAMP + BLOCK_TIME;
        self.receipts.clear();

        for block in replay {
            // Failed replays are possible if the adversary reordered
            // dependencies; the block pipeline returns per-tx results and
            // never aborts, so dropping them ignores errors like miners do.
            let _ = self.seal_block_with(&block.transactions, BlockMode::Sequential);
        }
        Ok(dropped)
    }
}

fn vm_error_status(err: &VmError) -> ExecStatus {
    match err {
        VmError::OutOfGas(_) => ExecStatus::OutOfGas,
        VmError::Revert(reason) => ExecStatus::Reverted(reason.clone()),
        other => ExecStatus::Reverted(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CallContext;
    use smacs_crypto::Signature;

    /// One `digest (32) ‖ r (32) ‖ s (32) ‖ v (1)` record.
    const RECORD: usize = 97;

    fn records(calldata: &[u8]) -> Vec<(H256, Signature)> {
        calldata
            .get(4..)
            .unwrap_or_default()
            .chunks_exact(RECORD)
            .map(|c| {
                let digest = H256::from_slice(&c[..32]).expect("32 bytes");
                let mut signature = Signature {
                    r: [0; 32],
                    s: [0; 32],
                    v: c[96],
                };
                signature.r.copy_from_slice(&c[32..64]);
                signature.s.copy_from_slice(&c[64..96]);
                (digest, signature)
            })
            .collect()
    }

    /// Recovers every record of its calldata, expecting the transaction's
    /// sender to have signed it (never true), stores and logs each result —
    /// and hints lies: the true pairs with a wrong digest or a tampered
    /// signature (listed first, so a lookup keyed on half the pair would
    /// serve them), garbage pairs, duplicates, and all but the first true
    /// pair, which therefore recovers live. The hinted signers are wrong or
    /// missing too.
    struct Liar;

    impl Contract for Liar {
        fn name(&self) -> &'static str {
            "Liar"
        }

        fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            let data = ctx.msg_data_bytes();
            let origin = ctx.tx_origin();
            let mut out = Vec::new();
            for (i, (digest, signature)) in records(&data).into_iter().enumerate() {
                let mut word = [0u8; 32];
                if let Some(addr) = ctx.ecrecover(digest, &signature, Some(origin))? {
                    word[0] = 1;
                    word[12..].copy_from_slice(addr.as_bytes());
                }
                ctx.sstore(H256::from_u256((i as u64).into()), H256(word))?;
                out.extend_from_slice(&word);
            }
            ctx.emit_event("Recovered(bytes)", out.clone())?;
            Ok(Bytes::from(out))
        }

        fn recover_hints(
            &self,
            origin: Address,
            this: Address,
            calldata: &[u8],
        ) -> Vec<(H256, Signature, Option<Address>)> {
            let truth = records(calldata);
            let mut hints = Vec::new();
            for &(digest, signature) in &truth {
                hints.push((keccak256(digest.as_bytes()), signature, None));
                let mut tampered = signature;
                tampered.s[31] ^= 1;
                hints.push((digest, tampered, Some(this)));
            }
            let garbage = Signature {
                r: [0xFF; 32],
                s: [0xFF; 32],
                v: 0,
            };
            hints.push((H256::ZERO, garbage, Some(origin)));
            hints.push((H256([7; 32]), garbage, None));
            for expected in [Some(origin), None] {
                hints.extend(truth.iter().skip(1).map(|&(d, s)| (d, s, expected)));
            }
            hints
        }
    }

    fn call_data(pairs: &[(H256, Signature)]) -> Vec<u8> {
        let mut data = vec![0xAB, 0xCD, 0xEF, 0x01];
        for (digest, signature) in pairs {
            data.extend_from_slice(digest.as_bytes());
            data.extend_from_slice(&signature.to_bytes());
        }
        data
    }

    /// A funded world with the liar deployed, and one block against it:
    /// valid, invalid and duplicate recoveries, a sender whose signature
    /// does not recover, a bad nonce, and a plain transfer.
    fn world() -> (Chain, Vec<SignedTransaction>) {
        let mut chain = Chain::default_chain();
        let owner = chain.funded_keypair(1, 10u128.pow(24));
        let (liar, _) = chain.deploy(&owner, Arc::new(Liar)).expect("deploy");
        let senders: Vec<Keypair> = (0..4)
            .map(|i| chain.funded_keypair(10 + i, 10u128.pow(24)))
            .collect();
        chain.seal_block();

        let signer = Keypair::from_seed(99);
        let signed_pair = |n: u8| {
            let digest = keccak256(&[n]);
            (digest, signer.sign_digest(&digest))
        };
        let (digest, good) = signed_pair(1);
        let mut invalid = good;
        invalid.v = 0;
        let bodies = [
            call_data(&[signed_pair(1), signed_pair(2), signed_pair(3)]),
            call_data(&[(digest, invalid), (digest, good), (digest, good)]),
            call_data(&[signed_pair(4)]),
            call_data(&[]),
        ];
        let mut txs: Vec<SignedTransaction> = bodies
            .iter()
            .zip(&senders)
            .map(|(body, kp)| Transaction::call(0, liar.address, 0, body.clone()).sign(kp))
            .collect();
        let mut forged = Transaction::call(1, liar.address, 0, bodies[0].clone()).sign(&senders[0]);
        forged.signature.r = [0xFF; 32];
        txs.push(forged);
        txs.push(Transaction::call(7, liar.address, 0, bodies[2].clone()).sign(&senders[1]));
        txs.push(
            Transaction::call(1, Address::from_low_u64(0xEE), 5, Vec::new()).sign(&senders[2]),
        );
        txs.push(Transaction::call(1, liar.address, 0, bodies[1].clone()).sign(&senders[3]));
        (chain, txs)
    }

    /// On 2 threads the prepass cuts the block into txs 0–3 and 4–7, so
    /// each chunk batches a liar's hints; on 3, into 0–1, 2–4 and 5–7.
    #[test]
    fn lying_hints_change_nothing() {
        let (mut seq, txs) = world();
        // Nothing memoized, as off the wire.
        let cold = || -> Vec<SignedTransaction> {
            txs.iter()
                .map(|s| SignedTransaction::from_parts(s.tx.clone(), s.signature))
                .collect()
        };
        let seq_results = seq.execute_block_with(&cold(), BlockMode::Sequential);
        for threads in [2, 3] {
            let pool = WorkerPool::new(threads, 64);
            let (mut par, _) = world();
            let par_results = par.execute_block_with(&cold(), BlockMode::Parallel(&pool));
            assert_eq!(seq_results, par_results, "{threads} threads");
            assert_eq!(seq.state().state_digest(), par.state().state_digest());
            pool.shutdown();
        }

        let successes = seq_results
            .iter()
            .filter(|r| matches!(r, Ok(receipt) if receipt.status.is_success()))
            .count();
        assert_eq!(successes, 6, "{seq_results:?}");
        assert_eq!(seq_results[4], Err(ChainError::InvalidSignature));
        assert!(matches!(seq_results[5], Err(ChainError::BadNonce { .. })));
        // The true recoveries landed: pair 1 of tx 0 names the signer.
        let first = &seq_results[0].as_ref().expect("accepted").return_data;
        assert_eq!(&first[12..32], Keypair::from_seed(99).address().as_bytes());
    }
}
