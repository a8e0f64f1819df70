//! The transaction executor: message calls, context objects, precompiles.
//!
//! This is the simulator's EVM. It executes a top-level call from an
//! externally owned account and lets contracts make nested message calls of
//! arbitrary depth — including calls back into already-active contracts,
//! which is precisely the re-entrancy behaviour the paper's §V-B case study
//! needs. Contracts observe the execution through a [`CallContext`] exposing
//! the Solidity globals the paper relies on (§II-C): `tx.origin`,
//! `msg.sender`, `msg.sig`, `msg.data`, `msg.value`, plus gas-charged
//! storage, hashing, `ecrecover`, and event primitives.
//!
//! # Execution model: recursion with one stack hop
//!
//! A nested message call is a plain host call. [`CallContext::call`] runs
//! the child frame to completion — snapshot, value transfer, the callee's
//! code, revert on failure — and returns the child's real result, so a
//! contract is ordinary Rust: it may branch on that result, swallow an
//! error, or do any host work between calls. The parallel block mode fans
//! out signature recovery, never execution.
//!
//! Each level of recursion takes host stack. The submitting thread runs
//! the frames shallower than `HOP_DEPTH`; a call that would start depth
//! `HOP_DEPTH` runs its whole subtree on one scoped thread with a
//! `DEEP_STACK`-byte stack, where deeper calls recurse and never hop
//! again. So a [`MAX_CALL_DEPTH`] chain runs from a 64 KiB thread. The hop
//! is decided by depth alone, never by probing the stack, so it is
//! deterministic. A panic on the deep-stack thread resumes on the caller,
//! and if that thread cannot be spawned the executor panics rather than
//! failing the call: a transaction's outcome never depends on host
//! resources.
//!
//! State changes made by a parent before a nested call stay live in the
//! journal while the child runs (the child *sees* them — re-entrancy
//! semantics are preserved), and a frame failure reverts exactly to the
//! snapshot taken when the frame began, children included.

use smacs_crypto::{keccak256, recover_batch, Signature};
use smacs_primitives::{Address, Bytes, H256, U256};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::abi::{self, AbiType, AbiValue, Selector};
use crate::block::BlockEnv;
use crate::contract::{Contract, ContractRegistry};
use crate::gas::{GasMeter, OutOfGas, SCHEDULE};
use crate::receipt::Log;
use crate::state::WorldState;
use crate::trace::{CallTrace, FrameStatus, StorageAccess, TraceEvent, TraceFrame};

/// Maximum message-call depth (the EVM's 1024).
///
/// A protocol constant, not a host-stack constraint: frames from
/// `HOP_DEPTH` down run on the executor's deep-stack thread.
pub const MAX_CALL_DEPTH: usize = 1024;

/// The depth at which a call moves its subtree to the deep-stack thread.
///
/// Measured in a debug build: the `Recursor` of `chain_behaviour.rs` takes
/// 3,600 bytes of host stack per call level, and its root frame starts
/// 6,373 bytes into the thread that submits the transaction. The 64 KiB
/// thread of `call_depth_limit_enforced_on_64kib_stack` holds 12 levels
/// plus the hop, and overflows at 13; 6 keeps 2× headroom.
const HOP_DEPTH: usize = 6;

/// The deep-stack thread's stack size: [`MAX_CALL_DEPTH`] levels at the
/// largest debug per-level size measured, with 2× headroom. The
/// interpreted `Diver` of `smacs-lang`'s interpreter tests takes 31,344
/// bytes per level (a shielded `ChainLink` 6,016, the `Recursor` 3,600):
/// 1,024 × 31,344 × 2 ≈ 61.2 MiB, rounded up to 64 MiB. The thread
/// commits only the pages it touches.
const DEEP_STACK: usize = 64 << 20;

/// Execution failure inside the VM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Explicit revert (failed `require`, `assert`, or `throw`).
    Revert(String),
    /// Gas exhausted.
    OutOfGas(OutOfGas),
    /// Nested call deeper than [`MAX_CALL_DEPTH`].
    CallDepthExceeded,
    /// Value transfer with insufficient balance.
    InsufficientBalance,
    /// Calldata did not decode as the contract expected.
    BadCalldata(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Revert(reason) => write!(f, "revert: {reason}"),
            VmError::OutOfGas(oog) => write!(f, "{oog}"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::InsufficientBalance => write!(f, "insufficient balance for transfer"),
            VmError::BadCalldata(what) => write!(f, "bad calldata: {what}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<OutOfGas> for VmError {
    fn from(oog: OutOfGas) -> Self {
        VmError::OutOfGas(oog)
    }
}

/// A message call request.
#[derive(Clone, Debug)]
pub struct MessageCall {
    /// The calling account (`msg.sender` for the callee).
    pub caller: Address,
    /// The callee (contract or EOA).
    pub callee: Address,
    /// Wei to transfer.
    pub value: u128,
    /// Calldata.
    pub data: Bytes,
}

/// The executor for a single transaction: owns the gas meter, trace, and
/// log buffer, and borrows the world state and contract registry.
pub struct Executor<'a> {
    /// The mutable world state.
    pub state: &'a mut WorldState,
    /// Deployed contract logic.
    pub registry: &'a ContractRegistry,
    /// Block-level context (`block.timestamp` = Alg. 1's `now()`).
    pub block: BlockEnv,
    /// The transaction's gas meter.
    pub meter: GasMeter,
    /// `tx.origin` — the externally owned account that signed the
    /// transaction, constant along the whole call chain.
    pub origin: Address,
    /// The chain's `ecrecover` memo, which [`CallContext::ecrecover`]
    /// answers from and records into.
    recoveries: &'a mut Recoveries,
    logs: Vec<Log>,
    finished_root: Option<TraceFrame>,
}

/// The `ecrecover` answers a chain has computed, keyed by the exact
/// `(digest, signature)` pair. `ecrecover` is a pure function of the pair,
/// whatever signer a caller expects, so a hit is exactly what a live
/// recovery returns: the memo is a cache, not state. A fork starts with an
/// empty one, and it empties itself when it reaches `RECOVERIES_CAP`
/// entries. Transaction senders never enter it.
#[derive(Default)]
pub(crate) struct Recoveries(HashMap<(H256, Signature), Option<Address>>);

/// The entries a [`Recoveries`] holds before it empties itself (a table of
/// ≈ 1 MB): a block-sized working set of reused tokens many times over.
const RECOVERIES_CAP: usize = 4_096;

impl Recoveries {
    /// The recorded answer for the pair, if any.
    pub(crate) fn get(&self, digest: &H256, signature: &Signature) -> Option<Option<Address>> {
        self.0.get(&(*digest, *signature)).copied()
    }

    /// Record `answer`, the recovery of the pair.
    pub(crate) fn insert(&mut self, digest: H256, signature: Signature, answer: Option<Address>) {
        if self.0.len() >= RECOVERIES_CAP {
            self.0.clear();
        }
        self.0.insert((digest, signature), answer);
    }

    /// `ecrecover` of the pair: the recorded answer, else a live recovery
    /// (which `expected` only makes cheaper), recorded.
    fn recover(
        &mut self,
        digest: H256,
        signature: &Signature,
        expected: Option<Address>,
    ) -> Option<Address> {
        if let Some(answer) = self.get(&digest, signature) {
            return answer;
        }
        let answer = recover_batch(&[(digest, *signature, expected)])
            .pop()
            .flatten();
        self.insert(digest, *signature, answer);
        answer
    }
}

impl<'a> Executor<'a> {
    /// Create an executor for one transaction, answering `ecrecover` from
    /// and into `recoveries`.
    pub(crate) fn new(
        state: &'a mut WorldState,
        registry: &'a ContractRegistry,
        recoveries: &'a mut Recoveries,
        block: BlockEnv,
        origin: Address,
        gas_limit: u64,
    ) -> Self {
        Executor {
            state,
            registry,
            block,
            meter: GasMeter::new(gas_limit),
            origin,
            recoveries,
            logs: Vec::new(),
            finished_root: None,
        }
    }

    /// Logs emitted so far.
    pub fn take_logs(&mut self) -> Vec<Log> {
        std::mem::take(&mut self.logs)
    }

    /// The completed trace (valid after the top-level call returns).
    pub fn take_trace(&mut self) -> CallTrace {
        CallTrace {
            root: self.finished_root.take(),
        }
    }

    /// Execute a message call from the top level. Reverts all state changes
    /// made by the call (and its children) if it fails.
    pub fn call(&mut self, msg: MessageCall) -> Result<Bytes, VmError> {
        self.root(msg, None)
    }

    /// Run a contract's constructor in a creation frame.
    pub fn construct(
        &mut self,
        creator: Address,
        address: Address,
        value: u128,
        logic: Arc<dyn Contract>,
    ) -> Result<(), VmError> {
        let msg = MessageCall {
            caller: creator,
            callee: address,
            value,
            data: Bytes::new(),
        };
        self.root(msg, Some(logic)).map(|_| ())
    }

    /// Run the top-level frame and keep its trace.
    fn root(
        &mut self,
        msg: MessageCall,
        constructor: Option<Arc<dyn Contract>>,
    ) -> Result<Bytes, VmError> {
        let (result, trace) = self.frame(msg, 0, constructor);
        self.finished_root = Some(trace);
        result
    }

    /// Run one message-call frame at `depth` to completion — `constructor`
    /// in a creation frame — reverting its writes, children included, if
    /// it fails. Returns its result and its trace.
    fn frame(
        &mut self,
        msg: MessageCall,
        depth: usize,
        constructor: Option<Arc<dyn Contract>>,
    ) -> (Result<Bytes, VmError>, TraceFrame) {
        let snapshot = self.state.snapshot();
        let selector = match constructor {
            Some(_) => None,
            None => Selector::from_calldata(&msg.data),
        };
        let mut ctx = CallContext {
            exec: self,
            data: msg.data,
            trace: TraceFrame {
                callee: msg.callee,
                caller: msg.caller,
                selector,
                value: msg.value,
                depth,
                events: Vec::new(),
                children: Vec::new(),
                status: FrameStatus::Success,
            },
        };
        let result = ctx.run(constructor);
        let mut trace = ctx.trace;
        if let Err(err) = &result {
            trace.status = match err {
                VmError::OutOfGas(_) => FrameStatus::OutOfGas,
                _ => FrameStatus::Reverted,
            };
            self.state.revert_to(snapshot);
        }
        (result, trace)
    }

    /// `frame` on a fresh `DEEP_STACK` thread, which then runs the frame's
    /// whole subtree; the caller waits for it.
    fn hop(&mut self, msg: MessageCall, depth: usize) -> (Result<Bytes, VmError>, TraceFrame) {
        #[cfg(test)]
        tests::count_hop();
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("smacs-deep-call".into())
                .stack_size(DEEP_STACK)
                .spawn_scoped(scope, || self.frame(msg, depth, None))
                .unwrap_or_else(|err| {
                    panic!("cannot spawn the executor's deep-stack thread: {err}")
                })
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })
    }
}

/// The view a contract has of its execution environment — the Solidity
/// globals of §II-C plus gas-charged primitives.
pub struct CallContext<'e, 'a> {
    exec: &'e mut Executor<'a>,
    /// `msg.data`.
    data: Bytes,
    /// The frame's trace, which also holds its callee, caller, value and
    /// depth.
    trace: TraceFrame,
}

impl<'e, 'a> CallContext<'e, 'a> {
    /// Transfer the frame's value, then run its code: `constructor` in a
    /// creation frame, else the code deposited at the callee (`execute`
    /// with a selector, `fallback` without). An address without deposited
    /// code — an EOA, or one whose creation failed — runs nothing, as in
    /// the EVM.
    fn run(&mut self, constructor: Option<Arc<dyn Contract>>) -> Result<Bytes, VmError> {
        let (callee, caller, value) = (self.trace.callee, self.trace.caller, self.trace.value);
        let exec = &mut *self.exec;
        if value > 0 {
            if constructor.is_none() && !exec.state.exists(callee) {
                exec.meter.charge(SCHEDULE.new_account)?;
            }
            if !exec.state.debit(caller, value) {
                return Err(VmError::InsufficientBalance);
            }
            exec.state.credit(callee, value);
        }
        if let Some(logic) = constructor {
            return logic.constructor(self).map(|()| Bytes::new());
        }
        let code = exec
            .state
            .is_contract(callee)
            .then(|| exec.registry.get(callee))
            .flatten();
        match code {
            Some(logic) if self.data.len() >= 4 => logic.execute(self),
            Some(logic) => logic.fallback(self).map(|()| Bytes::new()),
            None => Ok(Bytes::new()),
        }
    }

    // ---- Context objects (§II-C) ----

    /// `address(this)` — the executing contract's own address.
    pub fn this_address(&self) -> Address {
        self.trace.callee
    }

    /// `msg.sender` — the immediate caller of the current message.
    pub fn msg_sender(&self) -> Address {
        self.trace.caller
    }

    /// `tx.origin` — the externally owned account that signed the
    /// transaction, for the full call chain.
    pub fn tx_origin(&self) -> Address {
        self.exec.origin
    }

    /// `msg.value` — wei sent with this message.
    pub fn msg_value(&self) -> u128 {
        self.trace.value
    }

    /// `msg.data` — the complete calldata.
    pub fn msg_data(&self) -> &[u8] {
        &self.data
    }

    /// `msg.data` as a shared [`Bytes`] handle — a refcount bump, not a
    /// buffer copy. Use this when the calldata must outlive a mutable
    /// borrow of the context (e.g. the SMACS shield re-reading it while
    /// charging gas).
    pub fn msg_data_bytes(&self) -> Bytes {
        self.data.clone()
    }

    /// `msg.sig` — the 4-byte method identifier, if present.
    pub fn msg_sig(&self) -> Option<Selector> {
        Selector::from_calldata(&self.data)
    }

    /// The block environment (`block.timestamp`, `block.number`).
    pub fn block(&self) -> BlockEnv {
        self.exec.block
    }

    /// `now` — alias for `block.timestamp`, as Solidity v0.4 spells it.
    pub fn now(&self) -> u64 {
        self.exec.block.timestamp
    }

    // ---- Calldata helpers ----

    /// ABI-decode the argument section of calldata (everything after the
    /// selector) against `types`.
    pub fn decode_args(&self, types: &[AbiType]) -> Result<Vec<AbiValue>, VmError> {
        if self.data.len() < 4 {
            return Err(VmError::BadCalldata("missing selector".into()));
        }
        abi::decode(&self.data[4..], types).map_err(|e| VmError::BadCalldata(e.to_string()))
    }

    // ---- Gas ----

    /// Charge raw gas.
    pub fn charge(&mut self, amount: u64) -> Result<(), VmError> {
        Ok(self.exec.meter.charge(amount)?)
    }

    /// Charge `steps` abstract computation steps (models straight-line
    /// Solidity arithmetic/branching the simulator cannot see).
    pub fn charge_compute(&mut self, steps: u64) -> Result<(), VmError> {
        self.charge(steps * SCHEDULE.compute_step)
    }

    /// Open a labeled gas section (see [`crate::gas::GasMeter::begin_section`]).
    /// A section left open across a nested call stays open while the child
    /// runs, so child gas is attributed to it.
    pub fn begin_gas_section(&mut self, label: &'static str) {
        self.exec.meter.begin_section(label);
    }

    /// Close the innermost labeled gas section.
    pub fn end_gas_section(&mut self) {
        self.exec.meter.end_section();
    }

    // ---- Storage ----

    /// `sload` — read a storage slot of the executing contract, charging
    /// the schedule's `sload` cost.
    pub fn sload(&mut self, slot: H256) -> Result<H256, VmError> {
        self.exec.meter.charge(SCHEDULE.sload)?;
        let value = self.exec.state.storage_get(self.trace.callee, slot);
        self.trace
            .events
            .push(TraceEvent::Access(StorageAccess::Read { slot }));
        Ok(value)
    }

    /// `sstore` — write a storage slot, charging 20000 gas for zero→nonzero,
    /// 5000 otherwise, and crediting the clear refund for nonzero→zero.
    pub fn sstore(&mut self, slot: H256, value: H256) -> Result<(), VmError> {
        // The previous value decides the charge.
        let callee = self.trace.callee;
        let prev = self.exec.state.storage_get(callee, slot);
        let cost = if prev.is_zero() && !value.is_zero() {
            SCHEDULE.sset
        } else {
            SCHEDULE.sreset
        };
        self.exec.meter.charge(cost)?;
        if !prev.is_zero() && value.is_zero() {
            self.exec.meter.add_refund(SCHEDULE.sclear_refund);
        }
        self.exec.state.storage_set(callee, slot, value);
        self.trace
            .events
            .push(TraceEvent::Access(StorageAccess::Write { slot }));
        Ok(())
    }

    /// Read a slot as `U256`.
    pub fn sload_u256(&mut self, slot: H256) -> Result<U256, VmError> {
        Ok(self.sload(slot)?.to_u256())
    }

    /// Write a slot from `U256`.
    pub fn sstore_u256(&mut self, slot: H256, value: U256) -> Result<(), VmError> {
        self.sstore(slot, H256::from_u256(value))
    }

    /// Solidity mapping slot derivation: `keccak256(key ‖ base_slot)`,
    /// charged as a keccak over 64 bytes.
    pub fn mapping_slot(&mut self, base: u64, key: &[u8]) -> Result<H256, VmError> {
        self.charge(SCHEDULE.keccak_cost(key.len() + 32))?;
        let base_word = U256::from_u64(base).to_be_bytes();
        Ok(smacs_crypto::keccak256_concat(&[key, &base_word]))
    }

    // ---- Crypto (charged as the EVM charges) ----

    /// keccak256 with the `G_sha3` charge.
    pub fn keccak(&mut self, data: &[u8]) -> Result<H256, VmError> {
        self.charge(SCHEDULE.keccak_cost(data.len()))?;
        Ok(keccak256(data))
    }

    /// The `ecrecover` precompile: 3000 gas, returns the recovered address
    /// or `None` for invalid signatures (Solidity's zero address).
    /// `expected` is the signer the caller will compare against, if it has
    /// one: a hint that lets a known signer be checked without a full
    /// recovery ([`smacs_crypto::recover_expecting`]).
    ///
    /// After charging, the answer comes from the chain's memo of the
    /// recoveries it has computed (on every path: [`Chain::submit`], either
    /// [`BlockMode`], [`Chain::dry_run`]), or is computed and recorded
    /// there. So a reusable token's TS signature is checked once per chain
    /// while the memo keeps it. Gas and result are the same on every path,
    /// whatever the hint and whether the memo hits.
    ///
    /// [`Chain::submit`]: crate::Chain::submit
    /// [`Chain::dry_run`]: crate::Chain::dry_run
    /// [`BlockMode`]: crate::BlockMode
    pub fn ecrecover(
        &mut self,
        digest: H256,
        signature: &Signature,
        expected: Option<Address>,
    ) -> Result<Option<Address>, VmError> {
        self.charge(SCHEDULE.ecrecover)?;
        Ok(self.exec.recoveries.recover(digest, signature, expected))
    }

    // ---- Accounts and calls ----

    /// `address(x).balance`.
    pub fn balance_of(&mut self, addr: Address) -> Result<u128, VmError> {
        self.charge(20)?; // G_balance (pre-Istanbul)
        Ok(self.exec.state.balance(addr))
    }

    /// A nested message call: `callee.call.value(value)(data)`. Charges the
    /// call base cost (+ value surcharge), transfers value, and runs the
    /// target contract to completion — which may call back into this one
    /// (re-entrancy is possible by design, as in the EVM) — returning its
    /// result. A call from depth `d` fails with
    /// [`VmError::CallDepthExceeded`] once `d + 1` reaches
    /// [`MAX_CALL_DEPTH`].
    pub fn call(
        &mut self,
        callee: Address,
        value: u128,
        data: impl Into<Bytes>,
    ) -> Result<Bytes, VmError> {
        let mut cost = SCHEDULE.call_base;
        if value > 0 {
            cost += SCHEDULE.call_value;
        }
        self.charge(cost)?;
        let depth = self.trace.depth + 1;
        if depth >= MAX_CALL_DEPTH {
            return Err(VmError::CallDepthExceeded);
        }
        let msg = MessageCall {
            caller: self.trace.callee,
            callee,
            value,
            data: data.into(),
        };
        let (result, trace) = if depth == HOP_DEPTH {
            self.exec.hop(msg, depth)
        } else {
            self.exec.frame(msg, depth, None)
        };
        let child = self.trace.children.len();
        self.trace.children.push(trace);
        self.trace.events.push(TraceEvent::Call { child });
        result
    }

    /// `transfer`-style plain value send (empty calldata → triggers the
    /// recipient's fallback if it is a contract).
    pub fn transfer(&mut self, to: Address, value: u128) -> Result<(), VmError> {
        self.call(to, value, Bytes::new()).map(|_| ())
    }

    // ---- Events ----

    /// Emit a log with topics and data, charged per the schedule.
    pub fn emit_log(&mut self, topics: Vec<H256>, data: impl Into<Bytes>) -> Result<(), VmError> {
        let data = data.into();
        self.charge(SCHEDULE.log_cost(topics.len(), data.len()))?;
        self.exec.logs.push(Log {
            address: self.trace.callee,
            topics,
            data,
        });
        Ok(())
    }

    /// Emit an event identified by its signature string; topic0 is the
    /// keccak of the signature, as Solidity does.
    pub fn emit_event(&mut self, signature: &str, data: impl Into<Bytes>) -> Result<(), VmError> {
        let topic = keccak256(signature.as_bytes());
        self.emit_log(vec![topic], data)
    }

    // ---- Control flow ----

    /// Solidity `require`: revert with `reason` unless `cond` holds.
    pub fn require(&self, cond: bool, reason: &str) -> Result<(), VmError> {
        if cond {
            Ok(())
        } else {
            Err(VmError::Revert(reason.to_string()))
        }
    }

    /// Explicit revert.
    pub fn revert<T>(&self, reason: &str) -> Result<T, VmError> {
        Err(VmError::Revert(reason.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use std::cell::Cell;
    use std::sync::Arc;

    /// A contract that stores `arg` at slot 0 when called with selector
    /// `set(uint256)`, and returns slot 0 for `get()`.
    struct Store;

    impl Contract for Store {
        fn name(&self) -> &'static str {
            "Store"
        }
        fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            let sel = ctx.msg_sig().unwrap();
            if sel == abi::selector("set(uint256)") {
                let args = ctx.decode_args(&[AbiType::Uint])?;
                let v = args[0].as_uint().unwrap();
                ctx.sstore_u256(H256::ZERO, v)?;
                Ok(Bytes::new())
            } else if sel == abi::selector("get()") {
                let v = ctx.sload_u256(H256::ZERO)?;
                Ok(Bytes::from(v.to_be_bytes()))
            } else if sel == abi::selector("boom()") {
                ctx.revert("boom")
            } else {
                ctx.revert("unknown method")
            }
        }
    }

    fn setup() -> (WorldState, ContractRegistry) {
        let mut state = WorldState::new();
        let mut registry = ContractRegistry::new();
        let contract_addr = Address::from_low_u64(0xC0);
        state.create_account(Address::from_low_u64(1), 1_000_000);
        state.set_contract(contract_addr, 100);
        registry.insert(contract_addr, Arc::new(Store));
        (state, registry)
    }

    fn exec_call(
        state: &mut WorldState,
        registry: &ContractRegistry,
        data: Vec<u8>,
    ) -> (Result<Bytes, VmError>, CallTrace, u64) {
        let origin = Address::from_low_u64(1);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            state,
            registry,
            &mut memo,
            BlockEnv::genesis(1_000_000),
            origin,
            1_000_000,
        );
        let result = executor.call(MessageCall {
            caller: origin,
            callee: Address::from_low_u64(0xC0),
            value: 0,
            data: Bytes::from(data),
        });
        let trace = executor.take_trace();
        let used = executor.meter.used();
        (result, trace, used)
    }

    #[test]
    fn store_and_read_back() {
        let (mut state, registry) = setup();
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(42))]);
        let (result, _, gas) = exec_call(&mut state, &registry, set);
        assert!(result.is_ok());
        // SSTORE zero→nonzero dominates: must be at least 20000.
        assert!(gas >= 20_000, "gas was {gas}");

        let get = abi::encode_call("get()", &[]);
        let (result, _, _) = exec_call(&mut state, &registry, get);
        assert_eq!(
            U256::from_be_slice(&result.unwrap()).unwrap(),
            U256::from_u64(42)
        );
    }

    #[test]
    fn revert_rolls_back_state() {
        let (mut state, registry) = setup();
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(7))]);
        exec_call(&mut state, &registry, set).0.unwrap();

        // A failing call must not clobber existing storage.
        let (result, trace, _) = exec_call(&mut state, &registry, abi::encode_call("boom()", &[]));
        assert!(matches!(result, Err(VmError::Revert(_))));
        assert_eq!(trace.root.unwrap().status, FrameStatus::Reverted);
        assert_eq!(
            state.storage_get_u256(Address::from_low_u64(0xC0), H256::ZERO),
            U256::from_u64(7)
        );
    }

    #[test]
    fn trace_records_storage_accesses() {
        let (mut state, registry) = setup();
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(1))]);
        let (_, trace, _) = exec_call(&mut state, &registry, set);
        let root = trace.root.unwrap();
        let accesses: Vec<_> = root.accesses().collect();
        assert_eq!(accesses.len(), 1);
        assert!(matches!(accesses[0], StorageAccess::Write { .. }));
        assert_eq!(root.selector, Some(abi::selector("set(uint256)")));
    }

    #[test]
    fn transfer_to_eoa_moves_value() {
        let (mut state, registry) = setup();
        let origin = Address::from_low_u64(1);
        let dest = Address::from_low_u64(2);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            &mut state,
            &registry,
            &mut memo,
            BlockEnv::genesis(0),
            origin,
            1_000_000,
        );
        executor
            .call(MessageCall {
                caller: origin,
                callee: dest,
                value: 300,
                data: Bytes::new(),
            })
            .unwrap();
        assert_eq!(state.balance(dest), 300);
        assert_eq!(state.balance(origin), 1_000_000 - 300);
    }

    #[test]
    fn insufficient_balance_fails_and_reverts() {
        let (mut state, registry) = setup();
        let origin = Address::from_low_u64(1);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            &mut state,
            &registry,
            &mut memo,
            BlockEnv::genesis(0),
            origin,
            1_000_000,
        );
        let result = executor.call(MessageCall {
            caller: origin,
            callee: Address::from_low_u64(2),
            value: u128::MAX,
            data: Bytes::new(),
        });
        assert_eq!(result, Err(VmError::InsufficientBalance));
        assert_eq!(state.balance(Address::from_low_u64(2)), 0);
    }

    #[test]
    fn out_of_gas_reverts() {
        let (mut state, registry) = setup();
        let origin = Address::from_low_u64(1);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            &mut state,
            &registry,
            &mut memo,
            BlockEnv::genesis(0),
            origin,
            100, // far below an SSTORE
        );
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::ONE)]);
        let result = executor.call(MessageCall {
            caller: origin,
            callee: Address::from_low_u64(0xC0),
            value: 0,
            data: Bytes::from(set),
        });
        assert!(matches!(result, Err(VmError::OutOfGas(_))));
        assert_eq!(
            state.storage_get_u256(Address::from_low_u64(0xC0), H256::ZERO),
            U256::ZERO
        );
    }

    /// A contract that calls `get()` on `target` and branches on the
    /// outcome, swallowing an error: it must see the child's real result.
    struct Brancher {
        target: Address,
    }

    impl Contract for Brancher {
        fn name(&self) -> &'static str {
            "Brancher"
        }
        fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            let get = abi::encode_call("get()", &[]);
            match ctx.call(self.target, 0, get) {
                Ok(ret) => {
                    // Record the child's answer + 1 in our own slot 0.
                    let v = U256::from_be_slice(&ret).unwrap();
                    ctx.sstore_u256(H256::ZERO, v + U256::ONE)?;
                    Ok(Bytes::new())
                }
                Err(_) => {
                    ctx.sstore_u256(H256::ZERO, U256::from_u64(0xDEAD))?;
                    Ok(Bytes::new())
                }
            }
        }
    }

    /// Returns what `ecrecover` yields for the `digest ‖ signature` in its
    /// calldata (after the selector), hinting the signer address that
    /// follows them, if any.
    struct Recoverer;

    impl Contract for Recoverer {
        fn name(&self) -> &'static str {
            "Recoverer"
        }
        fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            let data = ctx.msg_data_bytes();
            let digest = H256::from_slice(&data[4..36]).unwrap();
            let signature = Signature::from_bytes(&data[36..101]).unwrap();
            let expected = data.get(101..121).map(|a| Address::from_slice(a).unwrap());
            let who = ctx.ecrecover(digest, &signature, expected)?;
            Ok(Bytes::from(
                who.map_or(Vec::new(), |a| a.as_bytes().to_vec()),
            ))
        }
    }

    /// The memo is consulted on an exact `(digest, signature)` match only,
    /// and a hit is charged like a live recovery. (The chain fills the memo
    /// from the pairs themselves; this test plants a false answer only to
    /// make a hit observable.) A signer hint, true or false, changes
    /// neither the result nor the gas.
    #[test]
    fn ecrecover_serves_exact_memo_hits_at_the_same_gas() {
        let (mut state, mut registry) = setup();
        let recoverer = Address::from_low_u64(0xE0);
        state.set_contract(recoverer, 100);
        registry.insert(recoverer, Arc::new(Recoverer));
        let signer = smacs_crypto::Keypair::from_seed(3);
        let digest = keccak256(b"pair");
        let signature = signer.sign_digest(&digest);
        let mut data = abi::selector("recover()").0.to_vec();
        data.extend_from_slice(digest.as_bytes());
        data.extend_from_slice(&signature.to_bytes());
        let planted = Address::from_low_u64(0x77);
        let mut other = signature;
        other.s[0] ^= 1;

        let mut run = |entries: &[(H256, Signature, Option<Address>)], data: &[u8]| {
            let origin = Address::from_low_u64(1);
            let mut memo = Recoveries::default();
            for &(digest, signature, answer) in entries {
                memo.insert(digest, signature, answer);
            }
            let mut executor = Executor::new(
                &mut state,
                &registry,
                &mut memo,
                BlockEnv::genesis(0),
                origin,
                1_000_000,
            );
            let out = executor
                .call(MessageCall {
                    caller: origin,
                    callee: recoverer,
                    value: 0,
                    data: Bytes::from(data.to_vec()),
                })
                .unwrap();
            (out, executor.meter.used())
        };
        let (live, live_gas) = run(&[], &data);
        assert_eq!(live.as_slice(), signer.address().as_bytes());
        let (hit, hit_gas) = run(&[(digest, signature, Some(planted))], &data);
        assert_eq!(hit.as_slice(), planted.as_bytes());
        assert_eq!(hit_gas, live_gas);
        let near_misses = [
            (digest, other, Some(planted)),
            (keccak256(b"other"), signature, Some(planted)),
        ];
        let (miss, _) = run(&near_misses, &data);
        assert_eq!(miss.as_slice(), signer.address().as_bytes());

        // Hinted: the true signer (twice, so its key is learned and then
        // checked without recovering) and a false one, on a valid and a
        // forged signature.
        let forged_data = [&data[..36], &other.to_bytes()[..]].concat();
        let forged = smacs_crypto::recover_address(&digest, &other).expect("a key");
        for hint in [signer.address(), signer.address(), planted] {
            for (body, want) in [(&data, signer.address()), (&forged_data, forged)] {
                let hinted = [&body[..], hint.as_bytes()].concat();
                let (out, gas) = run(&[], &hinted);
                assert_eq!(out.as_slice(), want.as_bytes(), "hint {hint}");
                assert_eq!(gas, live_gas, "hint {hint}");
            }
        }
    }

    impl Recoveries {
        pub(crate) fn len(&self) -> usize {
            self.0.len()
        }

        pub(crate) fn entries(&self) -> Vec<(H256, Signature, Option<Address>)> {
            self.0.iter().map(|(&(d, s), &a)| (d, s, a)).collect()
        }
    }

    /// Every answer the memo gives, hit or miss, is `recover_address`'s on
    /// the same pair, `None` for an invalid signature included; the same
    /// signature over another digest misses; and past the capacity the
    /// memo empties itself, so its size stays bounded while its answers
    /// stay exact.
    #[test]
    fn recoveries_are_exact_and_bounded() {
        let signer = smacs_crypto::Keypair::from_seed(5);
        let digest = keccak256(b"memo");
        let good = signer.sign_digest(&digest);
        let mut forged = good;
        forged.s[31] ^= 1;
        let mut invalid = good;
        invalid.v = 0;
        let zero_r = Signature { r: [0; 32], ..good };
        let pairs = [
            (digest, good),
            (digest, forged),
            (digest, invalid),
            (digest, zero_r),
            (keccak256(b"another digest"), good),
        ];
        let want: Vec<_> = pairs
            .iter()
            .map(|(d, s)| smacs_crypto::recover_address(d, s))
            .collect();
        assert_eq!(want[0], Some(signer.address()));
        assert_eq!(want[2..4], [None, None]);
        assert_ne!(want[4], want[0]);

        let mut memo = Recoveries::default();
        // Misses, recorded; the same signature over another digest misses.
        for ((d, s), want) in pairs.iter().zip(&want) {
            assert_eq!(memo.get(d, s), None);
            assert_eq!(memo.recover(*d, s, Some(signer.address())), *want);
            assert_eq!(memo.get(d, s), Some(*want));
        }
        // Hits, whatever the expected signer.
        for expected in [None, Some(signer.address()), Some(Address::ZERO)] {
            for ((d, s), want) in pairs.iter().zip(&want) {
                assert_eq!(memo.recover(*d, s, expected), *want);
            }
        }
        assert_eq!(memo.len(), pairs.len());

        // Fill past the capacity with cheap pairs (`s = 0` is refused
        // before any curve work); every answer stays exact and the size
        // stays bounded.
        let refused = Signature { s: [0; 32], ..good };
        for i in 0..RECOVERIES_CAP + 10 {
            let d = keccak256(&i.to_be_bytes());
            assert_eq!(memo.recover(d, &refused, None), None);
            assert!(memo.len() <= RECOVERIES_CAP, "{}", memo.len());
            if i % 1_000 == 0 {
                let (pair, want) = (
                    &pairs[i / 1_000 % pairs.len()],
                    want[i / 1_000 % pairs.len()],
                );
                assert_eq!(memo.recover(pair.0, &pair.1, None), want);
            }
        }
        assert!(memo.len() < RECOVERIES_CAP);
        for ((d, s), want) in pairs.iter().zip(&want) {
            assert_eq!(memo.recover(*d, s, None), *want);
        }
    }

    #[test]
    fn caller_branches_on_the_childs_real_result() {
        let (mut state, mut registry) = setup();
        let brancher_addr = Address::from_low_u64(0xD0);
        state.set_contract(brancher_addr, 100);
        registry.insert(
            brancher_addr,
            Arc::new(Brancher {
                target: Address::from_low_u64(0xC0),
            }),
        );
        // Store 41 in the Store contract, then have the Brancher read it.
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(41))]);
        exec_call(&mut state, &registry, set).0.unwrap();

        let origin = Address::from_low_u64(1);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            &mut state,
            &registry,
            &mut memo,
            BlockEnv::genesis(0),
            origin,
            1_000_000,
        );
        executor
            .call(MessageCall {
                caller: origin,
                callee: brancher_addr,
                value: 0,
                data: Bytes::from(abi::encode_call("any()", &[])),
            })
            .unwrap();
        assert_eq!(
            state.storage_get_u256(brancher_addr, H256::ZERO),
            U256::from_u64(42),
            "the brancher must take the success arm with the child's answer"
        );
    }

    thread_local! {
        /// Deep-stack hops started from this thread.
        static HOPS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_hop() {
        HOPS.with(|h| h.set(h.get() + 1));
    }

    /// The hops `f` starts from this thread.
    fn hops<T>(f: impl FnOnce() -> T) -> (usize, T) {
        let before = HOPS.with(Cell::get);
        let out = f();
        (HOPS.with(Cell::get) - before, out)
    }

    /// The panic payload of [`Diver`] at the bottom of a `dive(0)` chain.
    #[derive(Debug, PartialEq)]
    struct Bottom(usize);

    /// `dive(n)` calls `dive(n - 1)` on itself until `n` is 0, then
    /// returns its depth — or, for a `Diver { panic: true }`, panics with
    /// [`Bottom`] of it. A failed child fails the caller.
    struct Diver {
        panic: bool,
    }

    impl Contract for Diver {
        fn name(&self) -> &'static str {
            "Diver"
        }
        fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            let n = ctx.decode_args(&[AbiType::Uint])?[0].as_uint().unwrap();
            if !n.is_zero() {
                let dive = abi::encode_call("dive(uint256)", &[AbiValue::Uint(n - U256::ONE)]);
                return ctx.call(ctx.this_address(), 0, dive);
            }
            let depth = ctx.trace.depth;
            if self.panic {
                std::panic::panic_any(Bottom(depth));
            }
            Ok(Bytes::from(U256::from_u64(depth as u64).to_be_bytes()))
        }
    }

    /// Run `dive(n)` on a [`Diver`]: the hops it took and its outcome.
    fn dive(n: u64, panic: bool) -> (usize, Result<Bytes, VmError>, CallTrace) {
        let (mut state, mut registry) = setup();
        let diver = Address::from_low_u64(0xD1);
        state.set_contract(diver, 100);
        registry.insert(diver, Arc::new(Diver { panic }));
        let origin = Address::from_low_u64(1);
        let mut memo = Recoveries::default();
        let mut executor = Executor::new(
            &mut state,
            &registry,
            &mut memo,
            BlockEnv::genesis(0),
            origin,
            u64::MAX / 2,
        );
        let (hops, result) = hops(|| {
            executor.call(MessageCall {
                caller: origin,
                callee: diver,
                value: 0,
                data: Bytes::from(abi::encode_call(
                    "dive(uint256)",
                    &[AbiValue::Uint(U256::from_u64(n))],
                )),
            })
        });
        (hops, result, executor.take_trace())
    }

    #[test]
    fn a_chain_to_the_depth_limit_hops_exactly_once() {
        let (hops, result, trace) = dive(MAX_CALL_DEPTH as u64, false);
        assert_eq!(hops, 1);
        assert_eq!(result, Err(VmError::CallDepthExceeded));
        assert_eq!(trace.max_depth(), MAX_CALL_DEPTH - 1);

        // The deepest chain that fits returns from the last depth.
        let (hops, result, _) = dive(MAX_CALL_DEPTH as u64 - 1, false);
        assert_eq!(hops, 1);
        let depth = U256::from_be_slice(&result.unwrap()).unwrap();
        assert_eq!(depth, U256::from_u64(MAX_CALL_DEPTH as u64 - 1));
    }

    #[test]
    fn a_chain_shallower_than_the_hop_never_hops() {
        let (hops, result, trace) = dive(HOP_DEPTH as u64 - 1, false);
        assert_eq!(hops, 0);
        assert!(result.is_ok());
        assert_eq!(trace.max_depth(), HOP_DEPTH - 1);
        let (hops, _, _) = dive(HOP_DEPTH as u64, false);
        assert_eq!(hops, 1);
    }

    #[test]
    fn a_panic_below_the_hop_panics_the_submitting_thread_with_its_payload() {
        let depth = HOP_DEPTH + 2;
        let payload = std::panic::catch_unwind(|| dive(depth as u64, true))
            .expect_err("the contract panicked");
        assert_eq!(payload.downcast_ref::<Bottom>(), Some(&Bottom(depth)));
    }
}
