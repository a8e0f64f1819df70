//! Quickstart: the complete SMACS loop in one file.
//!
//! 1. The owner generates the TS keypair and deploys a SMACS-enabled
//!    contract with `pk_TS` preloaded.
//! 2. The Token Service starts with a sender whitelist.
//! 3. A whitelisted client requests a token and calls the contract.
//! 4. A non-whitelisted client is denied at the TS, and a stolen token is
//!    rejected on-chain.
//!
//! Run with: `cargo run --example quickstart`

use smacs::chain::Chain;
use smacs::contracts::BenchTarget;
use smacs::core::client::ClientWallet;
use smacs::core::fetcher::TokenFetcher;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::token::{TokenRequest, TokenType};
use smacs::ts::{FrontEnd, ListPolicy, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::sync::Arc;

fn main() {
    // --- 1. Chain, owner, and deployment -------------------------------
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let alice = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let mallory = ClientWallet::new(chain.funded_keypair(3, 10u128.pow(24)));

    let toolkit = OwnerToolkit::new(owner, smacs::crypto::Keypair::from_seed(1_000));
    let (target, receipt) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(BenchTarget),
            &ShieldParams {
                token_lifetime_secs: 3_600,
                max_tx_per_second: 0.35,
                disable_one_time: false,
            },
        )
        .expect("deployment");
    println!("deployed SMACS-enabled BenchTarget at {}", target.address);
    println!("  deployment gas: {}", receipt.gas_used);

    // --- 2. Token Service with a whitelist -----------------------------
    let mut rules = RuleBook::deny_all();
    let mut whitelist = ListPolicy::deny_all();
    whitelist.insert(alice.address().to_hex());
    rules.rules_mut(TokenType::Method).sender = Some(whitelist);
    let now = chain.pending_env().timestamp;
    let ts = Arc::new(FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            rules,
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        now,
    ));
    println!("TS online; pk_TS = {}", ts.service().ts_address());

    // --- 3. Alice: request a method token, call the contract -----------
    // Tokens flow through the transport-agnostic TsApi (here the TS's
    // in-process FrontEnd; an HttpClient would serve the same calls); the
    // TokenFetcher caches them per (contract, type, method) so repeat calls
    // skip the TS.
    let fetcher = TokenFetcher::new(ts.clone());
    let request =
        TokenRequest::method_token(target.address, alice.address(), BenchTarget::PING_SIG);
    let token = fetcher.fetch(&request, now).expect("alice is whitelisted");
    println!(
        "alice got a {} token (expires {})",
        token.ttype, token.expire
    );

    let payload = BenchTarget::ping_payload(20, 22);
    let receipt = alice
        .call_with_token(&mut chain, target.address, 0, &payload, token)
        .expect("submit");
    println!(
        "alice's call: {:?}, gas {}, verify share {}",
        receipt.status,
        receipt.gas_used,
        receipt.breakdown.section("verify")
    );
    assert!(receipt.status.is_success());

    // --- 4. Mallory: denied off-chain, and on-chain --------------------
    let request =
        TokenRequest::method_token(target.address, mallory.address(), BenchTarget::PING_SIG);
    let denied = ts.issue(&request);
    println!(
        "mallory's token request: {:?}",
        denied.err().map(|e| format!("{} ({})", e.message, e.code))
    );

    // Mallory intercepts alice's token and tries to use it herself: the
    // signature binds tx.origin, so the contract rejects it.
    let receipt = mallory
        .call_with_token(&mut chain, target.address, 0, &payload, token)
        .expect("submit");
    println!("mallory with a stolen token: {:?}", receipt.status);
    assert_eq!(
        receipt.revert_reason(),
        Some("SMACS: invalid token signature")
    );

    println!("quickstart complete ✔");
}
