//! The §V-B case study: blocking the TheDAO-style re-entrancy attack.
//!
//! Three acts:
//! 1. The Fig. 7 attack drains an *unprotected* Bank.
//! 2. The ECF checker flags the attack trace (and clears honest traffic),
//!    so an ECF-backed TS never issues tokens for calls that simulate
//!    non-ECF.
//! 3. A SMACS-protected Bank with one-time tokens (the paper's Example 4
//!    pairing) stops the live attack: the re-entrant inner frame fails
//!    one-time verification, reverting the whole attack transaction —
//!    while honest deposits and withdrawals keep flowing.
//!
//! Run with: `cargo run --example reentrancy_defense`

use smacs::chain::abi;
use smacs::chain::Chain;
use smacs::contracts::{Attacker, Bank, SmacsAwareAttacker};
use smacs::core::client::ClientWallet;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::token::TokenRequest;
use smacs::ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use smacs::verifiers::{check_trace_ecf, EcfTool};
use std::sync::Arc;

fn main() {
    // ---- Act 1: the attack on an unprotected bank ---------------------
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let victim = chain.funded_keypair(2, 10u128.pow(24));
    let attacker_eoa = chain.funded_keypair(3, 10u128.pow(24));

    let (bank, _) = chain.deploy(&owner, Arc::new(Bank)).expect("deploy bank");
    chain
        .call_contract(
            &victim,
            bank.address,
            1_000,
            abi::encode_call("addBalance()", &[]),
        )
        .expect("victim deposit");
    let (attacker, _) = chain
        .deploy(&attacker_eoa, Arc::new(Attacker::new(bank.address)))
        .expect("deploy attacker");
    chain.fund_account(attacker.address, 10);
    chain
        .call_contract(
            &attacker_eoa,
            attacker.address,
            2,
            abi::encode_call("deposit()", &[]),
        )
        .expect("attacker deposit");

    // Fork the pre-attack world: this is the state the TS's testnet mirrors.
    let pre_attack = chain.fork();

    let before = chain.state().balance(attacker.address);
    let receipt = chain
        .call_contract(
            &attacker_eoa,
            attacker.address,
            0,
            abi::encode_call("withdraw()", &[]),
        )
        .expect("attack tx");
    let gained = chain.state().balance(attacker.address) - before;
    println!("[1] unprotected Bank: attack {:?}", receipt.status);
    println!(
        "    attacker deposited 2 wei, extracted {gained} wei (re-entrancy confirmed: {})",
        receipt.trace.has_reentrancy(bank.address)
    );
    assert!(gained > 2);

    // ---- Act 2: the ECF checker sees it --------------------------------
    let verdict = check_trace_ecf(&receipt.trace, bank.address);
    println!(
        "[2] ECF checker on the attack trace: ECF = {}",
        verdict.is_ecf()
    );
    assert!(!verdict.is_ecf());

    // An honest withdrawal simulates clean through the TS-side tool.
    let ecf_ts = FrontEnd::new(
        TokenService::new(
            smacs::crypto::Keypair::from_seed(500),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_testnet(pre_attack)
        .with_tool(Arc::new(EcfTool::new(bank.address))),
        "owner-secret",
        chain.pending_env().timestamp,
    );
    let honest_req = TokenRequest::argument_token(
        bank.address,
        victim.address(),
        "withdraw()",
        vec![],
        abi::encode_call("withdraw()", &[]),
    );
    let issued = ecf_ts.issue(&honest_req);
    println!(
        "    honest withdraw simulates ECF-clean, token issued: {}",
        issued.is_ok()
    );
    assert!(issued.is_ok());

    // ---- Act 3: SMACS-protected bank + one-time tokens -----------------
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let honest = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let attacker_eoa = chain.funded_keypair(3, 10u128.pow(24));
    let toolkit = OwnerToolkit::new(owner, smacs::crypto::Keypair::from_seed(1_000));
    let (bank, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(Bank),
            &ShieldParams {
                token_lifetime_secs: 3_600,
                max_tx_per_second: 0.35,
                disable_one_time: false,
            },
        )
        .expect("deploy shielded bank");
    let now = chain.pending_env().timestamp;
    let ts = FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        now,
    );

    // Honest flow works: deposit + one-time withdraw token.
    let deposit_payload = abi::encode_call("addBalance()", &[]);
    let req = TokenRequest::method_token(bank.address, honest.address(), "addBalance()");
    let token = ts.issue(&req).unwrap();
    let r = honest
        .call_with_token(&mut chain, bank.address, 700, &deposit_payload, token)
        .unwrap();
    assert!(r.status.is_success());

    let withdraw_payload = abi::encode_call("withdraw()", &[]);
    let req = TokenRequest::argument_token(
        bank.address,
        honest.address(),
        "withdraw()",
        vec![],
        withdraw_payload.clone(),
    )
    .one_time();
    let token = ts.issue(&req).unwrap();
    let r = honest
        .call_with_token(&mut chain, bank.address, 0, &withdraw_payload, token)
        .unwrap();
    println!("[3] shielded Bank: honest deposit+withdraw {:?}", r.status);
    assert!(r.status.is_success());

    // The attack: the attacker's EOA gets a one-time withdraw token for the
    // *vulnerable* method and routes it through the Attacker contract. The
    // outer Bank.withdraw consumes the one-time index; the re-entrant inner
    // frame finds it spent, reverts, and the revert propagates through the
    // attacker's fallback — the whole attack transaction dies.
    let honest2 = ClientWallet::new(chain.funded_keypair(4, 10u128.pow(24)));
    let req = TokenRequest::method_token(bank.address, honest2.address(), "addBalance()");
    let token = ts.issue(&req).unwrap();
    honest2
        .call_with_token(&mut chain, bank.address, 1_000, &deposit_payload, token)
        .unwrap();

    // The adaptive attacker: forwards token arrays inward and stashes the
    // withdraw token to replay it from its fallback.
    let (attacker, _) = chain
        .deploy(
            &attacker_eoa,
            Arc::new(SmacsAwareAttacker::new(bank.address)),
        )
        .expect("deploy attacker");
    chain.fund_account(attacker.address, 10);
    // The attacker deposits through its contract (needs a token for
    // addBalance — nothing suspicious there, the TS issues it).
    let req = TokenRequest::argument_token(
        bank.address,
        attacker_eoa.address(),
        "addBalance()",
        vec![],
        deposit_payload.clone(),
    );
    let token = ts.issue(&req).unwrap();
    let deposit_data = smacs::core::client::build_call_data(
        &abi::encode_call("deposit()", &[]),
        bank.address,
        token,
    );
    let nonce = chain.state().nonce(attacker_eoa.address());
    let tx = smacs::chain::Transaction::call(nonce, attacker.address, 2, deposit_data);
    let r = chain.submit(tx.sign(&attacker_eoa)).unwrap();
    assert!(r.status.is_success(), "attacker deposit: {:?}", r.status);

    // Now the strike, with a one-time withdraw token.
    let req = TokenRequest::argument_token(
        bank.address,
        attacker_eoa.address(),
        "withdraw()",
        vec![],
        withdraw_payload.clone(),
    )
    .one_time();
    let token = ts.issue(&req).unwrap();
    let strike_data = smacs::core::client::build_call_data(
        &abi::encode_call("withdraw()", &[]),
        bank.address,
        token,
    );
    let bank_before = chain.state().balance(bank.address);
    let nonce = chain.state().nonce(attacker_eoa.address());
    let tx = smacs::chain::Transaction::call(nonce, attacker.address, 0, strike_data);
    let r = chain.submit(tx.sign(&attacker_eoa)).unwrap();
    println!("    attack through Attacker contract: {:?}", r.status);
    println!(
        "    bank balance unchanged: {} → {}",
        bank_before,
        chain.state().balance(bank.address)
    );
    assert!(
        !r.status.is_success(),
        "one-time token must kill the re-entrant frame"
    );
    assert_eq!(chain.state().balance(bank.address), bank_before);

    println!("re-entrancy defense complete ✔");
}
