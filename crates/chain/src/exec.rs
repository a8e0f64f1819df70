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
//! # Execution model: explicit frame stack + effect-log continuations
//!
//! The executor does **not** recurse one host stack frame per message call.
//! Instead it drives an explicit `Vec<Frame>` state machine, so a
//! depth-1024 call chain consumes a bounded amount of host stack. An
//! executor runs only on the thread that executes the transaction; the
//! parallel block mode fans out signature recovery, never execution.
//!
//! Contract logic is arbitrary Rust behind [`crate::contract::Contract`],
//! so a frame cannot be suspended mid-function the way a bytecode
//! interpreter suspends mid-opcode. The machine instead uses
//! **deterministic replay with an effect log**:
//!
//! - Every effectful or state-dependent [`CallContext`] operation (gas
//!   charges, `sload`/`sstore`, hashing, `ecrecover`, balance reads, log
//!   emission, gas-section markers, `gas_remaining`, nested calls) records
//!   its result as an `Effect` in the current frame's log the first time
//!   it runs.
//! - When a contract makes a nested call in fresh territory, the context
//!   stores the request in `Frame::pending` and returns the sentinel error
//!   [`VmError::Suspended`]. The driver loop pushes a child frame and runs
//!   it to completion; the child's result is appended to the parent's log
//!   as `Effect::Call`.
//! - The parent's `execute` is then invoked again from the top. Logged
//!   effects replay from the log — returning the recorded results without
//!   re-charging gas, re-writing storage, re-emitting logs, or re-recording
//!   trace events — until execution reaches the call, receives the child's
//!   result natively, and continues past it.
//!
//! Once a frame has requested a call, every further effectful operation in
//! that attempt is *poisoned*: it returns [`VmError::Suspended`] without
//! logging anything, so a contract that swallows the sentinel (e.g.
//! `if ctx.call(..).is_err() { … }`) cannot corrupt the log — the poisoned
//! attempt's tail is discarded and re-runs natively on the next attempt
//! with the real call result in hand. The two contract obligations this
//! model imposes are the ones every EVM contract already meets: execution
//! must be deterministic (same context ⇒ same operation sequence; a replay
//! divergence panics with a diagnostic), and errors should be propagated
//! (`?`) rather than retried in a loop.
//!
//! State changes made by a parent before a nested call stay live in the
//! journal while the child runs (the child *sees* them — re-entrancy
//! semantics are preserved), and a frame failure reverts exactly to the
//! snapshot taken when its frame was pushed, children included.

use smacs_crypto::{keccak256, recover_batch, Signature};
use smacs_primitives::{Address, Bytes, H256, U256};
use std::fmt;
use std::sync::Arc;

use crate::abi::{self, AbiType, AbiValue, Selector};
use crate::block::BlockEnv;
use crate::contract::{Contract, ContractRegistry};
use crate::gas::{GasMeter, OutOfGas, SCHEDULE};
use crate::receipt::Log;
use crate::state::{Snapshot, WorldState};
use crate::trace::{CallTrace, FrameStatus, StorageAccess, TraceEvent, TraceFrame};

/// Maximum message-call depth (the EVM's 1024).
///
/// The frame-stack executor allocates call frames on the heap, so the
/// limit is a protocol constant, not a host-stack constraint: a depth-1024
/// chain runs fine on a 64 KiB thread stack.
pub const MAX_CALL_DEPTH: usize = 1024;

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
    /// Continuation sentinel: a nested call is pending and the driver loop
    /// must run it before this frame can proceed. Contracts never need to
    /// handle this variant — propagate it like any other error (`?`); it
    /// never escapes [`Executor::call`].
    Suspended,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Revert(reason) => write!(f, "revert: {reason}"),
            VmError::OutOfGas(oog) => write!(f, "{oog}"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::InsufficientBalance => write!(f, "insufficient balance for transfer"),
            VmError::BadCalldata(what) => write!(f, "bad calldata: {what}"),
            VmError::Suspended => write!(f, "nested call pending (executor continuation)"),
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

/// One recorded result of an effectful [`CallContext`] operation, replayed
/// verbatim (without re-applying the side effect) on later attempts of the
/// same frame. See the module docs for the continuation protocol.
#[derive(Clone, Debug)]
enum Effect {
    /// `charge`, `charge_compute`, `sstore`, `emit_log`.
    Unit(Result<(), VmError>),
    /// `sload`, `mapping_slot`, `keccak`.
    Word(Result<H256, VmError>),
    /// `gas_remaining` — must be logged because the meter state differs
    /// between attempts.
    Gas(u64),
    /// `ecrecover`.
    Recovered(Result<Option<Address>, VmError>),
    /// `balance_of` / `own_balance`.
    Wei(Result<u128, VmError>),
    /// A completed nested call (appended by the driver loop).
    Call(Result<Bytes, VmError>),
    /// `begin_gas_section` — replays without re-pushing the label.
    SectionBegin,
    /// `end_gas_section` — replays without re-popping the label.
    SectionEnd,
}

/// Which `Contract` entry point a frame runs.
#[derive(Clone, Copy, Debug)]
enum FrameMode {
    Execute,
    Fallback,
    Construct,
}

/// One active message-call frame of the explicit call stack.
struct Frame {
    callee: Address,
    caller: Address,
    value: u128,
    data: Bytes,
    mode: FrameMode,
    /// `None` only transiently during setup; live frames always have logic.
    logic: Option<Arc<dyn Contract>>,
    /// Journal position to revert to if this frame fails.
    snapshot: Snapshot,
    /// This frame's trace, accumulated across attempts (events are recorded
    /// once, on the attempt that first executes the operation).
    trace: TraceFrame,
    /// Completed effects from prior attempts, replayed in order.
    effects: Vec<Effect>,
    /// Replay position within `effects` for the current attempt.
    cursor: usize,
    /// A nested call requested by the current attempt, to be driven next.
    pending: Option<MessageCall>,
}

fn replay_mismatch(op: &str, found: &Effect) -> ! {
    panic!(
        "executor replay diverged at `{op}` (logged {found:?}): contract \
         execution must be deterministic and must propagate VmError::Suspended"
    );
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
    /// `(digest, signature, recovered)` triples computed ahead of execution
    /// by the block prepass, in its chunk's batched
    /// [`smacs_crypto::recover_batch`], whose every answer equals the lone
    /// hinted recovery [`CallContext::ecrecover`] runs. `ecrecover` serves
    /// a matching pair from here instead of recovering it again; every
    /// entry was computed from its own pair, and a hint never changes a
    /// result, so a hit returns exactly what a live recovery would.
    pub(crate) recovered: &'a [Recovery],
    logs: Vec<Log>,
    finished_root: Option<TraceFrame>,
}

/// One precomputed signature recovery: `(digest, signature, recovered)`,
/// where `recovered` is the exact address `ecrecover` yields for the pair.
pub(crate) type Recovery = (H256, Signature, Option<Address>);

impl<'a> Executor<'a> {
    /// Create an executor for one transaction.
    pub fn new(
        state: &'a mut WorldState,
        registry: &'a ContractRegistry,
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
            recovered: &[],
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
        self.run(msg, None)
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
        self.run(msg, Some(logic)).map(|_| ())
    }

    /// The driver loop: attempts the top frame, pushes children for
    /// suspensions, and delivers results upward until the root completes.
    fn run(
        &mut self,
        msg: MessageCall,
        construct_logic: Option<Arc<dyn Contract>>,
    ) -> Result<Bytes, VmError> {
        let mut stack: Vec<Frame> = Vec::new();
        let mut delivery = self.begin_frame(&mut stack, msg, construct_logic);
        loop {
            if let Some(result) = delivery.take() {
                match stack.last_mut() {
                    None => return result,
                    Some(parent) => {
                        debug_assert!(parent.pending.is_none(), "delivery clears pending");
                        parent.effects.push(Effect::Call(result));
                    }
                }
            }
            // Attempt the top frame: logged effects replay, then execution
            // proceeds natively.
            let frame = stack.last_mut().expect("delivery handled above");
            frame.cursor = 0;
            let mode = frame.mode;
            let logic = frame.logic.clone().expect("live frames have logic");
            let outcome = {
                let mut ctx = CallContext { exec: self, frame };
                match mode {
                    FrameMode::Execute => logic.execute(&mut ctx),
                    FrameMode::Fallback => logic.fallback(&mut ctx).map(|()| Bytes::new()),
                    FrameMode::Construct => logic.constructor(&mut ctx).map(|()| Bytes::new()),
                }
            };
            let nested = stack.last_mut().expect("still on stack").pending.take();
            match nested {
                Some(nested) => {
                    // `stack.len()` counts the requesting frame, matching
                    // the recursive executor's `depth` at the call site.
                    if stack.len() >= MAX_CALL_DEPTH {
                        stack
                            .last_mut()
                            .expect("non-empty")
                            .effects
                            .push(Effect::Call(Err(VmError::CallDepthExceeded)));
                    } else {
                        delivery = self.begin_frame(&mut stack, nested, None);
                    }
                }
                // No suspension: the attempt's result is the frame's result.
                None => delivery = Some(self.finish_frame(&mut stack, outcome)),
            }
        }
    }

    /// Push a frame and run its one-time setup (snapshot, value transfer,
    /// target resolution). Returns `Some(result)` if the frame completed
    /// immediately (EOA transfer, setup failure) — already finalized — or
    /// `None` if it is live on the stack awaiting its first attempt.
    fn begin_frame(
        &mut self,
        stack: &mut Vec<Frame>,
        msg: MessageCall,
        construct_logic: Option<Arc<dyn Contract>>,
    ) -> Option<Result<Bytes, VmError>> {
        let is_construct = construct_logic.is_some();
        let (caller, callee, value) = (msg.caller, msg.callee, msg.value);
        let data_len = msg.data.len();
        stack.push(Frame {
            trace: TraceFrame {
                callee,
                caller,
                selector: if is_construct {
                    None
                } else {
                    Selector::from_calldata(&msg.data)
                },
                value,
                depth: stack.len(),
                events: Vec::new(),
                children: Vec::new(),
                status: FrameStatus::Success,
            },
            snapshot: self.state.snapshot(),
            callee,
            caller,
            value,
            data: msg.data,
            mode: FrameMode::Execute,
            logic: None,
            effects: Vec::new(),
            cursor: 0,
            pending: None,
        });
        let setup: Result<(), VmError> = (|| {
            if value > 0 {
                if !is_construct && !self.state.exists(callee) {
                    self.meter.charge(SCHEDULE.new_account)?;
                }
                if !self.state.debit(caller, value) {
                    return Err(VmError::InsufficientBalance);
                }
                self.state.credit(callee, value);
            }
            Ok(())
        })();
        if let Err(err) = setup {
            return Some(self.finish_frame(stack, Err(err)));
        }
        let top = stack.last_mut().expect("just pushed");
        match construct_logic {
            Some(logic) => {
                top.mode = FrameMode::Construct;
                top.logic = Some(logic);
                None
            }
            None => match self.registry.get(callee) {
                Some(logic) => {
                    top.mode = if data_len >= 4 {
                        FrameMode::Execute
                    } else {
                        FrameMode::Fallback
                    };
                    top.logic = Some(logic);
                    None
                }
                // Plain transfer to an EOA: no code to run.
                None => Some(self.finish_frame(stack, Ok(Bytes::new()))),
            },
        }
    }

    /// Pop and finalize the top frame: set its trace status, revert its
    /// writes on failure, and attach its trace to the parent (or store it
    /// as the finished root).
    fn finish_frame(
        &mut self,
        stack: &mut Vec<Frame>,
        result: Result<Bytes, VmError>,
    ) -> Result<Bytes, VmError> {
        let mut frame = stack.pop().expect("finish requires a frame");
        if let Err(err) = &result {
            frame.trace.status = match err {
                VmError::OutOfGas(_) => FrameStatus::OutOfGas,
                _ => FrameStatus::Reverted,
            };
            self.state.revert_to(frame.snapshot);
        }
        match stack.last_mut() {
            Some(parent) => {
                let child = parent.trace.children.len();
                parent.trace.children.push(frame.trace);
                parent.trace.events.push(TraceEvent::Call { child });
            }
            None => self.finished_root = Some(frame.trace),
        }
        result
    }
}

/// The view a contract has of its execution environment — the Solidity
/// globals of §II-C plus gas-charged primitives.
pub struct CallContext<'e, 'a> {
    exec: &'e mut Executor<'a>,
    frame: &'e mut Frame,
}

impl<'e, 'a> CallContext<'e, 'a> {
    // ---- Replay machinery (see the module docs) ----

    /// Next logged effect, if this attempt is still replaying.
    fn replay_next(&mut self) -> Option<Effect> {
        if self.frame.cursor < self.frame.effects.len() {
            let effect = self.frame.effects[self.frame.cursor].clone();
            self.frame.cursor += 1;
            Some(effect)
        } else {
            None
        }
    }

    /// Replay / poison / record skeleton shared by every effectful op.
    fn effectful<T: Clone>(
        &mut self,
        op: &'static str,
        pack: impl FnOnce(Result<T, VmError>) -> Effect,
        unpack: impl FnOnce(Effect) -> Result<Result<T, VmError>, Effect>,
        live: impl FnOnce(&mut Self) -> Result<T, VmError>,
    ) -> Result<T, VmError> {
        if let Some(effect) = self.replay_next() {
            return match unpack(effect) {
                Ok(result) => result,
                Err(other) => replay_mismatch(op, &other),
            };
        }
        if self.frame.pending.is_some() {
            // Poisoned: a call is already pending; nothing after it may
            // execute or log in this attempt.
            return Err(VmError::Suspended);
        }
        let result = live(self);
        self.record(pack(result.clone()));
        result
    }

    /// Append a live effect, keeping the cursor at the end of the log so
    /// the attempt stays in native (non-replay) mode.
    fn record(&mut self, effect: Effect) {
        self.frame.effects.push(effect);
        self.frame.cursor = self.frame.effects.len();
    }

    // ---- Context objects (§II-C) ----

    /// `address(this)` — the executing contract's own address.
    pub fn this_address(&self) -> Address {
        self.frame.callee
    }

    /// `msg.sender` — the immediate caller of the current message.
    pub fn msg_sender(&self) -> Address {
        self.frame.caller
    }

    /// `tx.origin` — the externally owned account that signed the
    /// transaction, for the full call chain.
    pub fn tx_origin(&self) -> Address {
        self.exec.origin
    }

    /// `msg.value` — wei sent with this message.
    pub fn msg_value(&self) -> u128 {
        self.frame.value
    }

    /// `msg.data` — the complete calldata.
    pub fn msg_data(&self) -> &[u8] {
        &self.frame.data
    }

    /// `msg.data` as a shared [`Bytes`] handle — a refcount bump, not a
    /// buffer copy. Use this when the calldata must outlive a mutable
    /// borrow of the context (e.g. the SMACS shield re-reading it while
    /// charging gas).
    pub fn msg_data_bytes(&self) -> Bytes {
        self.frame.data.clone()
    }

    /// `msg.sig` — the 4-byte method identifier, if present.
    pub fn msg_sig(&self) -> Option<Selector> {
        Selector::from_calldata(&self.frame.data)
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
        if self.frame.data.len() < 4 {
            return Err(VmError::BadCalldata("missing selector".into()));
        }
        abi::decode(&self.frame.data[4..], types).map_err(|e| VmError::BadCalldata(e.to_string()))
    }

    // ---- Gas ----

    /// Charge raw gas.
    pub fn charge(&mut self, amount: u64) -> Result<(), VmError> {
        self.effectful("charge", Effect::Unit, unpack_unit, |ctx| {
            ctx.exec.meter.charge(amount).map_err(Into::into)
        })
    }

    /// Charge `steps` abstract computation steps (models straight-line
    /// Solidity arithmetic/branching the simulator cannot see).
    pub fn charge_compute(&mut self, steps: u64) -> Result<(), VmError> {
        self.effectful("charge_compute", Effect::Unit, unpack_unit, |ctx| {
            ctx.exec
                .meter
                .charge(steps * SCHEDULE.compute_step)
                .map_err(Into::into)
        })
    }

    /// Gas remaining in the transaction. Logged as an effect: the meter's
    /// position differs between attempts of a frame, so replays must see
    /// the originally observed value.
    pub fn gas_remaining(&mut self) -> u64 {
        if let Some(effect) = self.replay_next() {
            match effect {
                Effect::Gas(gas) => return gas,
                other => replay_mismatch("gas_remaining", &other),
            }
        }
        let gas = self.exec.meter.remaining();
        if self.frame.pending.is_none() {
            self.record(Effect::Gas(gas));
        }
        gas
    }

    /// Open a labeled gas section (see [`crate::gas::GasMeter::begin_section`]).
    /// A section left open across a nested call stays open while the child
    /// runs, so child gas is attributed to it — as under recursion.
    pub fn begin_gas_section(&mut self, label: &str) {
        if let Some(effect) = self.replay_next() {
            match effect {
                Effect::SectionBegin => return,
                other => replay_mismatch("begin_gas_section", &other),
            }
        }
        if self.frame.pending.is_none() {
            self.exec.meter.begin_section(label);
            self.record(Effect::SectionBegin);
        }
    }

    /// Close the innermost labeled gas section.
    pub fn end_gas_section(&mut self) {
        if let Some(effect) = self.replay_next() {
            match effect {
                Effect::SectionEnd => return,
                other => replay_mismatch("end_gas_section", &other),
            }
        }
        if self.frame.pending.is_none() {
            self.exec.meter.end_section();
            self.record(Effect::SectionEnd);
        }
    }

    // ---- Storage ----

    /// `sload` — read a storage slot of the executing contract, charging
    /// the schedule's `sload` cost.
    pub fn sload(&mut self, slot: H256) -> Result<H256, VmError> {
        self.effectful("sload", Effect::Word, unpack_word, |ctx| {
            ctx.exec.meter.charge(SCHEDULE.sload)?;
            let value = ctx.exec.state.storage_get(ctx.frame.callee, slot);
            ctx.frame
                .trace
                .events
                .push(TraceEvent::Access(StorageAccess::Read { slot }));
            Ok(value)
        })
    }

    /// `sstore` — write a storage slot, charging 20000 gas for zero→nonzero,
    /// 5000 otherwise, and crediting the clear refund for nonzero→zero.
    pub fn sstore(&mut self, slot: H256, value: H256) -> Result<(), VmError> {
        self.effectful("sstore", Effect::Unit, unpack_unit, |ctx| {
            // The previous value decides the charge.
            let prev = ctx.exec.state.storage_get(ctx.frame.callee, slot);
            let cost = if prev.is_zero() && !value.is_zero() {
                SCHEDULE.sset
            } else {
                SCHEDULE.sreset
            };
            ctx.exec.meter.charge(cost)?;
            if !prev.is_zero() && value.is_zero() {
                ctx.exec.meter.add_refund(SCHEDULE.sclear_refund);
            }
            ctx.exec.state.storage_set(ctx.frame.callee, slot, value);
            ctx.frame
                .trace
                .events
                .push(TraceEvent::Access(StorageAccess::Write {
                    slot,
                    prev,
                    new: value,
                }));
            Ok(())
        })
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
        self.effectful("mapping_slot", Effect::Word, unpack_word, |ctx| {
            ctx.exec
                .meter
                .charge(SCHEDULE.keccak_cost(key.len() + 32))?;
            let base_word = U256::from_u64(base).to_be_bytes();
            Ok(smacs_crypto::keccak256_concat(&[key, &base_word]))
        })
    }

    // ---- Crypto (charged as the EVM charges) ----

    /// keccak256 with the `G_sha3` charge.
    pub fn keccak(&mut self, data: &[u8]) -> Result<H256, VmError> {
        self.effectful("keccak", Effect::Word, unpack_word, |ctx| {
            ctx.exec.meter.charge(SCHEDULE.keccak_cost(data.len()))?;
            Ok(keccak256(data))
        })
    }

    /// The `ecrecover` precompile: 3000 gas, returns the recovered address
    /// or `None` for invalid signatures (Solidity's zero address).
    /// `expected` is the signer the caller will compare against, if it has
    /// one: a hint that lets a known signer be checked without a full
    /// recovery ([`smacs_crypto::recover_expecting`]). A pair the block
    /// prepass already recovered is served from its memo. Gas and result
    /// are the same on every path, whatever the hint.
    pub fn ecrecover(
        &mut self,
        digest: H256,
        signature: &Signature,
        expected: Option<Address>,
    ) -> Result<Option<Address>, VmError> {
        self.effectful("ecrecover", Effect::Recovered, unpack_recovered, |ctx| {
            ctx.exec.meter.charge(SCHEDULE.ecrecover)?;
            let memo = ctx
                .exec
                .recovered
                .iter()
                .find(|(d, s, _)| *d == digest && s == signature);
            Ok(match memo {
                Some(&(_, _, recovered)) => recovered,
                None => recover_batch(&[(digest, *signature, expected)])
                    .pop()
                    .flatten(),
            })
        })
    }

    // ---- Accounts and calls ----

    /// `address(x).balance`.
    pub fn balance_of(&mut self, addr: Address) -> Result<u128, VmError> {
        self.effectful("balance_of", Effect::Wei, unpack_wei, |ctx| {
            ctx.exec.meter.charge(20)?; // G_balance (pre-Istanbul)
            Ok(ctx.exec.state.balance(addr))
        })
    }

    /// Balance of the executing contract.
    pub fn own_balance(&mut self) -> Result<u128, VmError> {
        let callee = self.frame.callee;
        self.balance_of(callee)
    }

    /// A nested message call: `callee.call.value(value)(data)`. Charges the
    /// call base cost (+ value surcharge), transfers value, and dispatches
    /// to the target contract — which may call back into this one
    /// (re-entrancy is possible by design, as in the EVM).
    ///
    /// Internally this yields a continuation request to the driver loop
    /// (see the module docs); from the contract's perspective it behaves
    /// exactly like a blocking call.
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
        if let Some(effect) = self.replay_next() {
            return match effect {
                Effect::Call(result) => result,
                other => replay_mismatch("call", &other),
            };
        }
        if self.frame.pending.is_some() {
            return Err(VmError::Suspended);
        }
        self.frame.pending = Some(MessageCall {
            caller: self.frame.callee,
            callee,
            value,
            data: data.into(),
        });
        Err(VmError::Suspended)
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
        self.effectful("emit_log", Effect::Unit, unpack_unit, |ctx| {
            ctx.exec
                .meter
                .charge(SCHEDULE.log_cost(topics.len(), data.len()))?;
            ctx.exec.logs.push(Log {
                address: ctx.frame.callee,
                topics,
                data,
            });
            Ok(())
        })
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

fn unpack_unit(effect: Effect) -> Result<Result<(), VmError>, Effect> {
    match effect {
        Effect::Unit(r) => Ok(r),
        other => Err(other),
    }
}

fn unpack_word(effect: Effect) -> Result<Result<H256, VmError>, Effect> {
    match effect {
        Effect::Word(r) => Ok(r),
        other => Err(other),
    }
}

fn unpack_recovered(effect: Effect) -> Result<Result<Option<Address>, VmError>, Effect> {
    match effect {
        Effect::Recovered(r) => Ok(r),
        other => Err(other),
    }
}

fn unpack_wei(effect: Effect) -> Result<Result<u128, VmError>, Effect> {
    match effect {
        Effect::Wei(r) => Ok(r),
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
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
        let mut executor = Executor::new(
            state,
            registry,
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
        let mut executor = Executor::new(
            &mut state,
            &registry,
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
        let mut executor = Executor::new(
            &mut state,
            &registry,
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
        let mut executor = Executor::new(
            &mut state,
            &registry,
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

    /// A contract that swallows the result of a nested call and branches on
    /// it — exercising the suspension-poisoning path: the post-call tail of
    /// the first attempt must be discarded and re-run with the real result.
    struct Swallower {
        target: Address,
    }

    impl Contract for Swallower {
        fn name(&self) -> &'static str {
            "Swallower"
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
                    // Poisoned on attempt 1 (sentinel swallowed); on the
                    // replay attempt the real error lands here.
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

        let mut run = |memo: &[Recovery], data: &[u8]| {
            let origin = Address::from_low_u64(1);
            let mut executor = Executor::new(
                &mut state,
                &registry,
                BlockEnv::genesis(0),
                origin,
                1_000_000,
            );
            executor.recovered = memo;
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

    #[test]
    fn swallowed_suspension_replays_with_real_result() {
        let (mut state, mut registry) = setup();
        let swallower_addr = Address::from_low_u64(0xD0);
        state.set_contract(swallower_addr, 100);
        registry.insert(
            swallower_addr,
            Arc::new(Swallower {
                target: Address::from_low_u64(0xC0),
            }),
        );
        // Store 41 in the Store contract, then have the Swallower read it.
        let set = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(41))]);
        exec_call(&mut state, &registry, set).0.unwrap();

        let origin = Address::from_low_u64(1);
        let mut executor = Executor::new(
            &mut state,
            &registry,
            BlockEnv::genesis(0),
            origin,
            1_000_000,
        );
        executor
            .call(MessageCall {
                caller: origin,
                callee: swallower_addr,
                value: 0,
                data: Bytes::from(abi::encode_call("any()", &[])),
            })
            .unwrap();
        assert_eq!(
            state.storage_get_u256(swallower_addr, H256::ZERO),
            U256::from_u64(42),
            "swallower must see the real child result, not the sentinel"
        );
    }
}
