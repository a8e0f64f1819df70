//! End-to-end behaviour of the chain simulator: deployment, transaction
//! validation (signatures, nonces, funds), block sealing, dry runs, forks,
//! reorgs, and re-entrant message calls.

use smacs_chain::abi::{self, AbiType, AbiValue};
use smacs_chain::{
    CallContext, Chain, ChainError, Contract, DeployedContract, ExecStatus, Receipt, Transaction,
    VmError,
};
use smacs_crypto::Keypair;
use smacs_primitives::{Address, Bytes, H256, U256};
use std::sync::Arc;

/// A counter contract: `increment()` bumps slot 0; `get()` returns it;
/// `ping(address)` calls `increment()` on another counter; `stamp()` stores
/// `now()` in slot 1.
struct Counter;

impl Contract for Counter {
    fn name(&self) -> &'static str {
        "Counter"
    }
    fn constructor(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        ctx.sstore_u256(H256::ZERO, U256::ZERO)?;
        Ok(())
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let sel = ctx.msg_sig().expect("execute implies selector");
        if sel == abi::selector("increment()") {
            let v = ctx.sload_u256(H256::ZERO)?;
            ctx.sstore_u256(H256::ZERO, v.wrapping_add(U256::ONE))?;
            Ok(Bytes::new())
        } else if sel == abi::selector("get()") {
            Ok(Bytes::from(ctx.sload_u256(H256::ZERO)?.to_be_bytes()))
        } else if sel == abi::selector("stamp()") {
            let now = U256::from_u64(ctx.now());
            ctx.sstore_u256(H256::from_u256(U256::ONE), now)?;
            Ok(Bytes::new())
        } else if sel == abi::selector("ping(address)") {
            let args = ctx.decode_args(&[AbiType::Address])?;
            let target = args[0].as_address().unwrap();
            ctx.call(target, 0, abi::encode_call("increment()", &[]))?;
            Ok(Bytes::new())
        } else {
            ctx.revert("unknown method")
        }
    }
}

/// A contract that re-enters its caller's `poke()` from its fallback.
struct Bouncer;

impl Contract for Bouncer {
    fn name(&self) -> &'static str {
        "Bouncer"
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        ctx.revert("no methods")
    }
    fn fallback(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        // Call back into the sender if it is a contract (depth-limited by
        // the value running out).
        if ctx.msg_value() > 0 {
            let sender = ctx.msg_sender();
            ctx.call(sender, 0, abi::encode_call("onBounce()", &[]))?;
        }
        Ok(())
    }
}

/// A contract that sends value to a Bouncer and counts re-entries.
struct Sender;

impl Contract for Sender {
    fn name(&self) -> &'static str {
        "Sender"
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let sel = ctx.msg_sig().unwrap();
        if sel == abi::selector("send(address)") {
            let args = ctx.decode_args(&[AbiType::Address])?;
            let target = args[0].as_address().unwrap();
            ctx.transfer(target, 5)?;
            Ok(Bytes::new())
        } else if sel == abi::selector("onBounce()") {
            let n = ctx.sload_u256(H256::ZERO)?;
            ctx.sstore_u256(H256::ZERO, n.wrapping_add(U256::ONE))?;
            Ok(Bytes::new())
        } else {
            ctx.revert("unknown")
        }
    }
}

fn counter_value(chain: &Chain, addr: Address) -> U256 {
    chain.state().storage_get_u256(addr, H256::ZERO)
}

#[test]
fn deploy_and_call() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let (counter, receipt) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    // Deployment charges at least base + create + code deposit.
    assert!(receipt.gas_used > 53_000, "gas {}", receipt.gas_used);
    assert!(chain.state().is_contract(counter.address));

    let receipt = chain
        .call_contract(
            &owner,
            counter.address,
            0,
            abi::encode_call("increment()", &[]),
        )
        .unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(counter_value(&chain, counter.address), U256::ONE);

    let receipt = chain
        .call_contract(&owner, counter.address, 0, abi::encode_call("get()", &[]))
        .unwrap();
    assert_eq!(
        U256::from_be_slice(&receipt.return_data).unwrap(),
        U256::ONE
    );
}

#[test]
fn nonce_replay_is_rejected() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(2, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();

    let tx = Transaction::call(
        chain.state().nonce(owner.address()),
        counter.address,
        0,
        abi::encode_call("increment()", &[]),
    );
    let signed = tx.sign(&owner);
    chain.submit(signed.clone()).unwrap();
    // Replaying the very same signed transaction must fail: "If a
    // transaction has been accepted by Ethereum, it will not be processed
    // again" (§VII-A).
    let err = chain.submit(signed).unwrap_err();
    assert!(matches!(err, ChainError::BadNonce { .. }));
    assert_eq!(counter_value(&chain, counter.address), U256::ONE);
}

#[test]
fn invalid_signature_is_rejected() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(3, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let tx = Transaction::call(1, counter.address, 0, vec![]);
    let mut signed = tx.sign(&owner);
    // Corrupt the payload after signing: the recovered sender no longer
    // matches any funded account ⇒ nonce/balance checks reject it.
    signed.tx.value = 999;
    let err = chain.submit(signed).unwrap_err();
    assert!(
        matches!(
            err,
            ChainError::BadNonce { .. } | ChainError::InsufficientFunds
        ),
        "got {err:?}"
    );
}

#[test]
fn insufficient_funds_rejected() {
    let mut chain = Chain::default_chain();
    let poor = chain.funded_keypair(4, 1000); // can't even buy gas
    let rich = chain.funded_keypair(5, 10u128.pow(20));
    let (counter, _) = chain.deploy(&rich, Arc::new(Counter)).unwrap();
    let tx = Transaction::call(0, counter.address, 0, vec![]);
    let err = chain.submit(tx.sign(&poor)).unwrap_err();
    assert_eq!(err, ChainError::InsufficientFunds);
}

#[test]
fn gas_refund_returns_unused_gas() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(6, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let before = chain.state().balance(owner.address());
    let receipt = chain
        .call_contract(
            &owner,
            counter.address,
            0,
            abi::encode_call("increment()", &[]),
        )
        .unwrap();
    let after = chain.state().balance(owner.address());
    // Exactly gas_used * gas_price was spent (gas price 1 gwei).
    assert_eq!(before - after, receipt.gas_used as u128 * 1_000_000_000);
}

#[test]
fn blocks_seal_and_timestamps_advance() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(7, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let t0 = chain.pending_env().timestamp;
    chain
        .call_contract(
            &owner,
            counter.address,
            0,
            abi::encode_call("increment()", &[]),
        )
        .unwrap();
    let block = chain.seal_block();
    assert_eq!(block.number, 1);
    assert_eq!(block.transactions.len(), 2); // deploy + call
    let t1 = chain.pending_env().timestamp;
    assert!(t1 > t0);
    chain.advance_time(3600);
    assert_eq!(chain.pending_env().timestamp, t1 + 3600);
}

#[test]
fn cross_contract_call_chain() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(8, 10u128.pow(20));
    let (a, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let (b, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    // a.ping(b) increments b, not a.
    let receipt = chain
        .call_contract(
            &owner,
            a.address,
            0,
            abi::encode_call("ping(address)", &[AbiValue::Address(b.address)]),
        )
        .unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(counter_value(&chain, a.address), U256::ZERO);
    assert_eq!(counter_value(&chain, b.address), U256::ONE);
    // Trace shows the nested frame.
    let root = receipt.trace.root.as_ref().unwrap();
    assert_eq!(root.children.len(), 1);
    assert_eq!(root.children[0].callee, b.address);
    assert_eq!(root.children[0].depth, 1);
}

#[test]
fn fallback_reentrancy_is_possible() {
    // Sender sends value to Bouncer; Bouncer's fallback calls back into
    // Sender.onBounce() while Sender.send() is still on the stack.
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(9, 10u128.pow(20));
    let (sender, _) = chain.deploy(&owner, Arc::new(Sender)).unwrap();
    let (bouncer, _) = chain.deploy(&owner, Arc::new(Bouncer)).unwrap();
    chain.fund_account(sender.address, 1_000);

    let receipt = chain
        .call_contract(
            &owner,
            sender.address,
            0,
            abi::encode_call("send(address)", &[AbiValue::Address(bouncer.address)]),
        )
        .unwrap();
    assert!(receipt.status.is_success(), "status {:?}", receipt.status);
    // onBounce ran once.
    assert_eq!(counter_value(&chain, sender.address), U256::ONE);
    // And the trace flags the re-entrancy on Sender.
    assert!(receipt.trace.has_reentrancy(sender.address));
    assert!(!receipt.trace.has_reentrancy(bouncer.address));
}

#[test]
fn dry_run_leaves_no_trace_in_state() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(10, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let (result, gas, trace, _) = chain.dry_run(
        owner.address(),
        counter.address,
        0,
        abi::encode_call("increment()", &[]),
    );
    assert!(result.is_ok());
    assert!(gas > 0);
    assert!(trace.root.is_some());
    // State unchanged, nonce unchanged.
    assert_eq!(counter_value(&chain, counter.address), U256::ZERO);
    assert_eq!(chain.state().nonce(owner.address()), 1); // only the deploy
}

#[test]
fn fork_runs_independently() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(11, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();

    let mut fork = chain.fork();
    fork.call_contract(
        &owner,
        counter.address,
        0,
        abi::encode_call("increment()", &[]),
    )
    .unwrap();
    assert_eq!(counter_value(&fork, counter.address), U256::ONE);
    assert_eq!(counter_value(&chain, counter.address), U256::ZERO);
}

#[test]
fn reorg_replays_kept_prefix_and_drops_suffix() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(12, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    chain.seal_block(); // block 1: deploy

    let call = |chain: &mut Chain, method: &str| {
        let data = abi::encode_call(method, &[]);
        let receipt = chain.call_contract(&owner, counter.address, 0, data);
        assert!(receipt.unwrap().status.is_success(), "{method}");
    };
    // Block 2 is sealed an hour off the 13 s grid and records its `now()`.
    chain.advance_time(3_600);
    call(&mut chain, "increment()");
    call(&mut chain, "stamp()");
    chain.seal_block(); // block 2: first increment and the stamp

    call(&mut chain, "increment()");
    chain.seal_block(); // block 3: second increment
    assert_eq!(counter_value(&chain, counter.address), U256::from_u64(2));
    let hashes = |chain: &Chain| -> Vec<H256> { chain.blocks().iter().map(|b| b.hash()).collect() };
    let original = hashes(&chain);
    let digest = chain.state().state_digest();

    // Replaying every block rewrites nothing: each block keeps its
    // timestamp, so its hash, and the contract saw the same `now()`.
    assert!(chain.reorg(3).unwrap().is_empty());
    assert_eq!(hashes(&chain), original);
    assert_eq!(chain.state().state_digest(), digest);

    // A 51% adversary rewrites history after block 2.
    let dropped = chain.reorg(2).unwrap();
    assert_eq!(dropped.len(), 1);
    assert_eq!(chain.height(), 2);
    assert_eq!(hashes(&chain), original[..3]);
    // The replayed prefix preserved the deploy, the first increment and
    // block 2's timestamp.
    assert!(chain.state().is_contract(counter.address));
    assert_eq!(counter_value(&chain, counter.address), U256::ONE);
    let stamp = chain
        .state()
        .storage_get_u256(counter.address, H256::from_u256(U256::ONE));
    assert_eq!(stamp, U256::from_u64(chain.blocks()[2].timestamp));

    // Reorg beyond the tip is rejected.
    assert_eq!(chain.reorg(99).unwrap_err(), ChainError::BadReorgHeight);
}

#[test]
fn contract_addresses_are_deterministic() {
    let kp = Keypair::from_seed(13);
    let a0 = Chain::contract_address(kp.address(), 0);
    let a1 = Chain::contract_address(kp.address(), 1);
    assert_ne!(a0, a1);
    assert_eq!(a0, Chain::contract_address(kp.address(), 0));
}

#[test]
fn intrinsic_gas_too_low_rejected() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(14, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let tx = Transaction {
        nonce: chain.state().nonce(owner.address()),
        gas_price: 1_000_000_000,
        gas_limit: 20_000, // below the 21_000 base
        to: Some(counter.address),
        value: 0,
        data: Bytes::new(),
    };
    let err = chain.submit(tx.sign(&owner)).unwrap_err();
    assert_eq!(err, ChainError::IntrinsicGasTooLow);
}

#[test]
fn reverted_tx_still_consumes_gas_and_bumps_nonce() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(15, 10u128.pow(20));
    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    let before = chain.state().balance(owner.address());
    let receipt = chain
        .call_contract(
            &owner,
            counter.address,
            0,
            abi::encode_call("nosuch()", &[]),
        )
        .unwrap();
    assert!(matches!(receipt.status, ExecStatus::Reverted(_)));
    assert!(receipt.gas_used >= 21_000);
    assert!(chain.state().balance(owner.address()) < before);
    assert_eq!(chain.state().nonce(owner.address()), 2);
}

/// A contract whose constructor reverts; `go()` writes slot 0 and returns
/// `0x010203`.
struct Stillborn;

impl Contract for Stillborn {
    fn name(&self) -> &'static str {
        "Stillborn"
    }
    fn constructor(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        ctx.revert("constructor fails")
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        ctx.sstore_u256(H256::ZERO, U256::ONE)?;
        Ok(Bytes::from(vec![1, 2, 3]))
    }
}

/// The receipt of a creation that `deploy` reported as failed.
fn failed_creation(outcome: Result<(DeployedContract, Receipt), ChainError>) -> Receipt {
    match outcome {
        Err(ChainError::CreationFailed(receipt)) => *receipt,
        other => panic!("expected a failed creation, got {other:?}"),
    }
}

#[test]
fn a_failed_creation_is_an_error_and_replays_on_reorg() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(17, 10u128.pow(20));
    let stillborn = Chain::contract_address(owner.address(), 0);
    let receipt = failed_creation(chain.deploy(&owner, Arc::new(Stillborn)));
    assert_eq!(receipt.revert_reason(), Some("constructor fails"));
    // Mined: the nonce moved and the gas was paid.
    assert_eq!(chain.state().nonce(owner.address()), 1);
    chain.seal_block(); // block 1: the failed creation
    let balance = chain.state().balance(owner.address());

    // A creation rejected before execution leaves nothing registered.
    let unaffordable = chain.deploy_with_limit(&owner, Arc::new(Counter), 0, u64::MAX / 2);
    assert_eq!(unaffordable.unwrap_err(), ChainError::InsufficientFunds);
    assert!(!chain
        .registry()
        .contains(Chain::contract_address(owner.address(), 1)));

    let (counter, _) = chain.deploy(&owner, Arc::new(Counter)).unwrap();
    chain.seal_block(); // block 2: a working deployment

    // Replaying block 1 re-runs the failed creation with its logic.
    assert_eq!(chain.reorg(1).unwrap().len(), 1);
    assert_eq!(chain.state().balance(owner.address()), balance);
    assert!(!chain.state().is_contract(stillborn));
    assert!(!chain.state().is_contract(counter.address));
}

#[test]
fn code_of_a_failed_deployment_never_runs() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(16, 10u128.pow(20));
    let stillborn = Chain::contract_address(owner.address(), 0);
    let receipt = failed_creation(chain.deploy(&owner, Arc::new(Stillborn)));
    assert_eq!(receipt.revert_reason(), Some("constructor fails"));
    assert!(!chain.state().is_contract(stillborn));

    // As in the EVM, a call to an address without code is a plain
    // transfer: it succeeds, returns nothing and writes nothing.
    let receipt = chain
        .call_contract(&owner, stillborn, 0, abi::encode_call("go()", &[]))
        .unwrap();
    assert_eq!(receipt.status, ExecStatus::Success);
    assert!(receipt.return_data.is_empty());
    assert_eq!(receipt.trace.root.unwrap().events, vec![]);
    assert_eq!(
        chain.state().storage_get_u256(stillborn, H256::ZERO),
        U256::ZERO
    );
}

/// A contract that recurses into itself forever — the call-depth limit
/// must stop it (and charge gas for the attempt).
struct Recursor;

impl Contract for Recursor {
    fn name(&self) -> &'static str {
        "Recursor"
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let this = ctx.this_address();
        ctx.call(this, 0, abi::encode_call("spin()", &[]))
    }
}

#[test]
fn call_depth_limit_enforced_on_64kib_stack() {
    // The executor recurses on the submitting thread only to a fixed
    // depth and moves the rest of the call tree to one deep-stack thread,
    // so driving execution all the way to the depth limit must work on a
    // deliberately tiny thread stack. (The parallel block mode fans out
    // signature recovery, not execution: a transaction's frames start on
    // the thread that submits it.)
    std::thread::Builder::new()
        .stack_size(64 * 1024)
        .spawn(|| {
            let mut chain = Chain::default_chain();
            let owner = chain.funded_keypair(90, 10u128.pow(24));
            let (recursor, _) = chain.deploy(&owner, Arc::new(Recursor)).unwrap();
            let tx = Transaction {
                nonce: chain.state().nonce(owner.address()),
                gas_price: 1_000_000_000,
                gas_limit: 30_000_000, // only the depth limit stops it
                to: Some(recursor.address),
                value: 0,
                data: Bytes::from(abi::encode_call("spin()", &[])),
            };
            let receipt = chain.submit(tx.sign(&owner)).unwrap();
            assert!(!receipt.status.is_success());
            // The trace shows deep nesting, bounded by MAX_CALL_DEPTH.
            assert!(receipt.trace.max_depth() >= 1000);
            assert!(receipt.trace.max_depth() <= smacs_chain::exec::MAX_CALL_DEPTH);
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Timestamps along sealed blocks are strictly monotone, and `now()` seen
/// by contracts equals the pending block's timestamp.
#[test]
fn block_timestamps_monotone() {
    let mut chain = Chain::default_chain();
    let mut last = chain.blocks().last().unwrap().timestamp;
    for i in 0..5 {
        if i == 2 {
            chain.advance_time(100);
        }
        let block = chain.seal_block();
        assert!(
            block.timestamp > last,
            "block {} not after {}",
            block.timestamp,
            last
        );
        last = block.timestamp;
    }
}
