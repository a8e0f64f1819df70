//! The interpreter end to end: Solidity-lite contracts deployed on the
//! chain simulator, culminating in the Fig. 7 re-entrancy attack executed
//! from the paper's *actual Solidity source* (modulo the subset's brace
//! style), and a shielded interpreted contract.

use smacs_chain::abi::{self, AbiValue};
use smacs_chain::Chain;
use smacs_lang::interp::Value;
use smacs_lang::InterpretedContract;
use smacs_primitives::{Address, U256};
use std::sync::Arc;

/// Fig. 7's Bank, verbatim in the subset.
const BANK_SRC: &str = r#"
    contract Bank {
        mapping(address=>uint) balance;
        function addBalance() public payable {
            balance[msg.sender] += msg.value;
        }
        function withdraw() public {
            uint amount = balance[msg.sender];
            if (msg.sender.call.value(amount)() == false) { throw; }
            balance[msg.sender] = 0;
        }
        function balanceOf(address who) public view returns (uint) {
            return balance[who];
        }
    }
"#;

/// Fig. 7's Attacker (constructor takes the bank address and the attack
/// flag, exactly as the paper writes it).
const ATTACKER_SRC: &str = r#"
    contract Attacker {
        bool isAttack;
        address bank;
        function Attacker(address _bank, bool _isAttack) public {
            bank = _bank;
            isAttack = _isAttack;
        }
        function() payable {
            if (isAttack == true) {
                isAttack = false;
                bank.withdraw();
            }
        }
        function deposit() public payable {
            bank.call.value(2).addBalance();
        }
        function strike() public {
            bank.withdraw();
        }
    }
"#;

fn deploy_bank(chain: &mut Chain, owner: &smacs_crypto::Keypair) -> Address {
    let bank = InterpretedContract::from_source(BANK_SRC, "Bank", vec![]).unwrap();
    let (deployed, receipt) = chain.deploy(owner, Arc::new(bank)).unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    deployed.address
}

#[test]
fn interpreted_bank_deposit_and_withdraw() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let user = chain.funded_keypair(2, 10u128.pow(20));
    let bank = deploy_bank(&mut chain, &owner);

    // Deposit.
    let r = chain
        .call_contract(&user, bank, 400, abi::encode_call("addBalance()", &[]))
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(chain.state().balance(bank), 400);

    // balanceOf view.
    let (result, _, _, _) = chain.dry_run(
        user.address(),
        bank,
        0,
        abi::encode_call("balanceOf(address)", &[AbiValue::Address(user.address())]),
    );
    assert_eq!(
        U256::from_be_slice(&result.unwrap()).unwrap(),
        U256::from_u64(400)
    );

    // Withdraw pays back in full.
    let before = chain.state().balance(user.address());
    let r = chain
        .call_contract(&user, bank, 0, abi::encode_call("withdraw()", &[]))
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(chain.state().balance(bank), 0);
    let gas_cost = r.gas_used as u128 * 1_000_000_000;
    assert_eq!(
        chain.state().balance(user.address()),
        before + 400 - gas_cost
    );
}

/// The paper's Fig. 7 attack, interpreted from source: the attacker's
/// fallback re-enters `withdraw()` and drains the victim's deposit.
#[test]
fn fig7_attack_runs_from_source() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let victim = chain.funded_keypair(2, 10u128.pow(20));
    let attacker_eoa = chain.funded_keypair(3, 10u128.pow(20));
    let bank = deploy_bank(&mut chain, &owner);

    // Victim deposits 2 wei (the paper's example scale).
    chain
        .call_contract(&victim, bank, 2, abi::encode_call("addBalance()", &[]))
        .unwrap();

    // Attacker(bank, true) — real constructor arguments.
    let attacker = InterpretedContract::from_source(
        ATTACKER_SRC,
        "Attacker",
        vec![Value::Address(bank), Value::Bool(true)],
    )
    .unwrap();
    let (attacker, receipt) = chain.deploy(&attacker_eoa, Arc::new(attacker)).unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    chain.fund_account(attacker.address, 10);

    // deposit() sends 2 wei into the bank via `bank.call.value(2).addBalance()`.
    let r = chain
        .call_contract(
            &attacker_eoa,
            attacker.address,
            2,
            abi::encode_call("deposit()", &[]),
        )
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(chain.state().balance(bank), 4);

    // strike(): withdraw → fallback → withdraw again. All 4 wei leave.
    let before = chain.state().balance(attacker.address);
    let r = chain
        .call_contract(
            &attacker_eoa,
            attacker.address,
            0,
            abi::encode_call("strike()", &[]),
        )
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(chain.state().balance(bank), 0);
    assert_eq!(chain.state().balance(attacker.address) - before, 4);
    assert!(r.trace.has_reentrancy(bank));

    // And the ECF checker condemns the interpreted attack trace too.
    let verdict = smacs_verifiers_check(&r.trace, bank);
    assert!(!verdict);
}

// Small indirection so the lang crate's dev-dependencies stay minimal: the
// check lives here as a structural re-implementation? No — use the real
// checker via the verifiers crate.
fn smacs_verifiers_check(trace: &smacs_chain::CallTrace, bank: Address) -> bool {
    smacs_verifiers::check_trace_ecf(trace, bank).is_ecf()
}

/// An interpreted contract behind the SMACS shield: verification guards
/// interpreted methods exactly as native ones.
#[test]
fn interpreted_contract_under_the_shield() {
    use smacs_core::owner::{OwnerToolkit, ShieldParams};
    use smacs_token::{signing_digest, PayloadContext, Token, TokenType, NO_INDEX};

    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let client = chain.funded_keypair(2, 10u128.pow(24));
    let toolkit = OwnerToolkit::new(owner, smacs_crypto::Keypair::from_seed(999));

    let adder_src = r#"
        contract Adder {
            uint total;
            function add(uint x) public returns (uint) {
                total = total + x;
                return total;
            }
        }
    "#;
    let adder = InterpretedContract::from_source(adder_src, "Adder", vec![]).unwrap();
    let (adder, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(adder),
            &ShieldParams {
                token_lifetime_secs: 3_600,
                max_tx_per_second: 0.35,
                disable_one_time: false,
            },
        )
        .unwrap();

    let payload = abi::encode_call("add(uint256)", &[AbiValue::Uint(U256::from_u64(5))]);

    // Without a token: rejected.
    let nonce = chain.state().nonce(client.address());
    let tx = smacs_chain::Transaction::call(nonce, adder.address, 0, payload.clone());
    let r = chain.submit(tx.sign(&client)).unwrap();
    assert!(!r.status.is_success());

    // With a valid method token: the interpreted body runs.
    let ctx = PayloadContext {
        sender: client.address(),
        contract: adder.address,
        selector: Some(abi::selector("add(uint256)")),
        calldata: None,
    };
    let expire = (chain.pending_env().timestamp + 1_000) as u32;
    let digest = signing_digest(TokenType::Method, expire, NO_INDEX, &ctx);
    let token = Token {
        ttype: TokenType::Method,
        expire,
        index: NO_INDEX,
        signature: toolkit.ts_keypair().sign_digest(&digest),
    };
    let data = smacs_core::client::build_call_data(&payload, adder.address, token);
    let nonce = chain.state().nonce(client.address());
    let tx = smacs_chain::Transaction::call(nonce, adder.address, 0, data);
    let r = chain.submit(tx.sign(&client)).unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(
        U256::from_be_slice(&r.return_data).unwrap(),
        U256::from_u64(5)
    );
}

/// The interpreted head agrees with the native heads — "implemented in a
/// different programming language" in the most literal sense (§V-A).
#[test]
fn interpreted_hydra_head_matches_native() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));

    let adder_src = r#"
        contract Adder {
            uint total;
            function add(uint x) public returns (uint) {
                total = total + x;
                return total;
            }
        }
    "#;
    let interpreted = InterpretedContract::from_source(adder_src, "Adder", vec![]).unwrap();
    let (interpreted, _) = chain.deploy(&owner, Arc::new(interpreted)).unwrap();

    // The native head (from smacs-contracts) for comparison.
    let native = smacs_contracts::AdderHead::new(smacs_contracts::HydraStyle::Direct);
    let (native, _) = chain.deploy(&owner, Arc::new(native)).unwrap();

    for x in [1u64, 13, 99_999] {
        let payload = smacs_contracts::AdderHead::add_payload(x);
        let a = chain
            .call_contract(&owner, interpreted.address, 0, payload.clone())
            .unwrap();
        let b = chain
            .call_contract(&owner, native.address, 0, payload)
            .unwrap();
        assert!(a.status.is_success() && b.status.is_success());
        assert_eq!(a.return_data, b.return_data, "x = {x}");
    }
}

#[test]
fn interpreter_rejects_unknown_selectors_and_bad_source() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let bank = deploy_bank(&mut chain, &owner);
    let r = chain
        .call_contract(&owner, bank, 0, abi::encode_call("nosuch()", &[]))
        .unwrap();
    assert!(!r.status.is_success());

    assert!(InterpretedContract::from_source("contract X {", "X", vec![]).is_err());
    assert!(InterpretedContract::from_source("contract X {}", "Y", vec![]).is_err());
}

/// While-loop and arithmetic coverage: interpreted control flow matches
/// native computation.
#[test]
fn interpreted_loops_and_arithmetic() {
    let src = r#"
        contract Math {
            function sumTo(uint n) public returns (uint) {
                uint acc = 0;
                uint i = 1;
                while (i <= n) {
                    acc += i;
                    i += 1;
                }
                return acc;
            }
            function mix(uint a, uint b) public returns (uint) {
                return (a + b) * 2 - b / 2 + b % 3;
            }
        }
    "#;
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let math = InterpretedContract::from_source(src, "Math", vec![]).unwrap();
    let (math, _) = chain.deploy(&owner, Arc::new(math)).unwrap();

    let r = chain
        .call_contract(
            &owner,
            math.address,
            0,
            abi::encode_call("sumTo(uint256)", &[AbiValue::Uint(U256::from_u64(100))]),
        )
        .unwrap();
    assert_eq!(
        U256::from_be_slice(&r.return_data).unwrap(),
        U256::from_u64(5_050)
    );

    let r = chain
        .call_contract(
            &owner,
            math.address,
            0,
            abi::encode_call(
                "mix(uint256,uint256)",
                &[
                    AbiValue::Uint(U256::from_u64(10)),
                    AbiValue::Uint(U256::from_u64(7)),
                ],
            ),
        )
        .unwrap();
    // (10+7)*2 - 7/2 + 7%3 = 34 - 3 + 1 = 32
    assert_eq!(
        U256::from_be_slice(&r.return_data).unwrap(),
        U256::from_u64(32)
    );
}

/// A contract that calls the next diver (itself, here) while `n > 0`.
/// Interpreted frames are the largest host frames the executor runs, so a
/// chain of them is the deep-stack thread's sizing case.
const DIVER_SRC: &str = r#"
    contract Diver {
        address next;
        function setNext(address a) public { next = a; }
        function dive(uint n) public {
            if (n > 0) { next.dive(n - 1); }
        }
    }
"#;

#[test]
fn interpreted_chain_reaches_the_call_depth_limit() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(20));
    let diver = InterpretedContract::from_source(DIVER_SRC, "Diver", vec![]).unwrap();
    let (diver, _) = chain.deploy(&owner, Arc::new(diver)).unwrap();
    let set_next = abi::encode_call("setNext(address)", &[AbiValue::Address(diver.address)]);
    let r = chain
        .call_contract(&owner, diver.address, 0, set_next)
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);

    let dive = |n: u64| abi::encode_call("dive(uint256)", &[AbiValue::Uint(U256::from_u64(n))]);
    let deepest = smacs_chain::exec::MAX_CALL_DEPTH as u64 - 1;
    let r = chain
        .call_contract(&owner, diver.address, 0, dive(deepest))
        .unwrap();
    assert!(r.status.is_success(), "{:?}", r.status);
    assert_eq!(r.trace.max_depth(), deepest as usize);
    let r = chain
        .call_contract(&owner, diver.address, 0, dive(deepest + 1))
        .unwrap();
    assert_eq!(r.revert_reason(), Some("call depth exceeded"));
}
