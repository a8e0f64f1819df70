//! The paper's motivating scenario (§II-D): a token sale restricted to
//! approved users — Bluzelle paid 9.345 ETH to whitelist 7 473 users
//! on-chain; SMACS moves the whitelist off-chain for free.
//!
//! This example runs both designs side by side and prints the cost gap.
//!
//! Run with: `cargo run --example token_sale`

use smacs::chain::gas::gas_to_usd;
use smacs::chain::Chain;
use smacs::contracts::{OnChainWhitelistSale, SmacsSale};
use smacs::core::client::ClientWallet;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::primitives::Address;
use smacs::token::{TokenRequest, TokenType};
use smacs::ts::{FrontEnd, ListPolicy, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::sync::Arc;

const USERS: usize = 200; // scaled-down cohort; costs extrapolate linearly

fn main() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(26));
    let buyers: Vec<ClientWallet> = (0..USERS)
        .map(|i| ClientWallet::new(chain.funded_keypair(100 + i as u64, 10u128.pow(24))))
        .collect();

    // ---------- design A: on-chain whitelist (the paper's baseline) ----
    let (baseline, _) = chain
        .deploy(&owner, Arc::new(OnChainWhitelistSale::new(owner.address())))
        .expect("deploy baseline");
    let mut whitelist_gas = 0u64;
    for buyer in &buyers {
        let r = chain
            .call_contract(
                &owner,
                baseline.address,
                0,
                OnChainWhitelistSale::add_payload(buyer.address()),
            )
            .expect("whitelist tx");
        whitelist_gas += r.gas_used;
    }
    println!(
        "on-chain whitelist: {USERS} users, {whitelist_gas} gas (${:.2} at 1 gwei)",
        gas_to_usd(whitelist_gas)
    );
    let per_user = whitelist_gas as f64 / USERS as f64;
    println!(
        "  extrapolated to Bluzelle's 7473 users at 40 gwei: {:.2} ETH (paper: 9.345 ETH)",
        per_user * 7_473.0 * 40e-9
    );

    // A whitelisted buyer purchases.
    let r = chain
        .call_contract(
            buyers[0].keypair(),
            baseline.address,
            5_000,
            OnChainWhitelistSale::buy_payload(),
        )
        .expect("buy");
    assert!(r.status.is_success());

    // ---------- design B: SMACS (whitelist lives in the TS) ------------
    let toolkit = OwnerToolkit::new(owner, smacs::crypto::Keypair::from_seed(2_000));
    let (sale, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(SmacsSale),
            &ShieldParams {
                token_lifetime_secs: 3_600,
                max_tx_per_second: 0.35,
                disable_one_time: false,
            },
        )
        .expect("deploy smacs sale");

    let mut rules = RuleBook::deny_all();
    let mut senders = ListPolicy::deny_all();
    for buyer in &buyers {
        senders.insert(buyer.address().to_hex()); // free: no transaction
    }
    rules.rules_mut(TokenType::Method).sender = Some(senders);
    let now = chain.pending_env().timestamp;
    let ts = FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            rules,
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        now,
    );
    println!("\nSMACS whitelist: {USERS} users registered in the TS for 0 gas");

    // Every buyer purchases with a method token — issued in one batched
    // round trip (the v2 `issue_batch` op) instead of {USERS} single ones.
    let requests: Vec<TokenRequest> = buyers
        .iter()
        .map(|buyer| TokenRequest::method_token(sale.address, buyer.address(), "buy()"))
        .collect();
    let tokens = ts.issue_batch(&requests).expect("batch envelope");
    let mut buy_gas = 0u64;
    for (buyer, token) in buyers.iter().zip(tokens) {
        let token = token.expect("whitelisted buyer");
        let r = buyer
            .call_with_token(
                &mut chain,
                sale.address,
                5_000,
                &SmacsSale::buy_payload(),
                token,
            )
            .expect("buy");
        assert!(r.status.is_success(), "{:?}", r.status);
        buy_gas += r.gas_used;
    }
    println!(
        "  {USERS} purchases, avg {} gas each (token verification included)",
        buy_gas / USERS as u64
    );

    // A non-whitelisted account cannot even get a token.
    let outsider = ClientWallet::new(chain.funded_keypair(9_999, 10u128.pow(24)));
    let req = TokenRequest::method_token(sale.address, outsider.address(), "buy()");
    assert!(ts.issue(&req).is_err());
    println!("  outsider denied at the TS — no gas spent at all");

    // Dynamic update: revoke buyer 0 at runtime, no contract change.
    ts.service().update_rules(|book| {
        if let Some(policy) = &mut book.rules_mut(TokenType::Method).sender {
            policy.remove(&buyers[0].address().to_hex());
        }
    });
    let req = TokenRequest::method_token(sale.address, buyers[0].address(), "buy()");
    assert!(ts.issue(&req).is_err());
    println!("  buyer revoked at runtime for 0 gas (baseline: another on-chain tx)");

    // Also works the other way: the baseline's unsold check still works.
    let unknown = Address::from_low_u64(0xFFFF);
    let r = chain.dry_run(
        unknown,
        baseline.address,
        5_000,
        OnChainWhitelistSale::buy_payload(),
    );
    assert!(r.0.is_err());
    println!("\ntoken sale comparison complete ✔");
}
