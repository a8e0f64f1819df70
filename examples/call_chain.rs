//! Tokens for call chains (§IV-D, Fig. 5): one transaction triggering
//! `SC_A → SC_B → SC_C`, each SMACS-protected, each extracting its own
//! token from the embedded array.
//!
//! Run with: `cargo run --example call_chain`

use smacs::chain::Chain;
use smacs::contracts::ChainLink;
use smacs::core::client::ClientWallet;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::primitives::Address;
use smacs::token::{Token, TokenRequest};
use smacs::ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::sync::Arc;

fn main() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let client = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let params = ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    };

    // Three owners, three TSes (Fig. 5: "these TSes can be operated by
    // different owners").
    let toolkits: Vec<OwnerToolkit> = (0..3)
        .map(|i| OwnerToolkit::new(owner.clone(), smacs::crypto::Keypair::from_seed(3_000 + i)))
        .collect();

    // Deploy back to front: SC_C, then SC_B → C, then SC_A → B.
    let (sc_c, _) = toolkits[2]
        .deploy_shielded(&mut chain, Arc::new(ChainLink::terminal()), &params)
        .expect("deploy C");
    let (sc_b, _) = toolkits[1]
        .deploy_shielded(
            &mut chain,
            Arc::new(ChainLink::forwarding_to(sc_c.address)),
            &params,
        )
        .expect("deploy B");
    let (sc_a, _) = toolkits[0]
        .deploy_shielded(
            &mut chain,
            Arc::new(ChainLink::forwarding_to(sc_b.address)),
            &params,
        )
        .expect("deploy A");
    println!(
        "chain: SC_A {} → SC_B {} → SC_C {}",
        sc_a.address, sc_b.address, sc_c.address
    );

    let now = chain.pending_env().timestamp;
    let services: Vec<FrontEnd> = toolkits
        .iter()
        .map(|tk| {
            FrontEnd::new(
                TokenService::new(
                    tk.ts_keypair().clone(),
                    RuleBook::permissive(),
                    TokenServiceConfig::default(),
                ),
                "owner-secret",
                now,
            )
        })
        .collect();

    // The client obtains one method token per contract from its TS.
    let contracts = [sc_a.address, sc_b.address, sc_c.address];
    let tokens: Vec<(Address, Token)> = contracts
        .iter()
        .zip(&services)
        .map(|(&addr, ts)| {
            let req = TokenRequest::method_token(addr, client.address(), ChainLink::POKE_SIG);
            (addr, ts.issue(&req).expect("token"))
        })
        .collect();
    println!(
        "client holds {} tokens: SC_A:tk_A ‖ SC_B:tk_B ‖ SC_C:tk_C",
        tokens.len()
    );

    // One transaction walks the whole chain.
    let receipt = client
        .call_with_tokens(
            &mut chain,
            sc_a.address,
            0,
            &ChainLink::poke_payload(),
            &tokens,
        )
        .expect("submit");
    println!("chain walk: {:?}, gas {}", receipt.status, receipt.gas_used);
    println!(
        "  per-section gas: verify {} | parse {} | bitmap {}",
        receipt.breakdown.section("verify"),
        receipt.breakdown.section("parse"),
        receipt.breakdown.section("bitmap")
    );
    assert!(receipt.status.is_success());
    for (label, addr) in [
        ("SC_A", sc_a.address),
        ("SC_B", sc_b.address),
        ("SC_C", sc_c.address),
    ] {
        println!("  {label} hops = {}", ChainLink::hops(&chain, addr));
        assert_eq!(ChainLink::hops(&chain, addr), smacs::primitives::U256::ONE);
    }

    // Dropping SC_B's token makes SC_B reject — and atomicity rolls back
    // the whole transaction, including SC_A's already-executed hop.
    let partial: Vec<(Address, Token)> = tokens
        .iter()
        .filter(|(addr, _)| *addr != sc_b.address)
        .cloned()
        .collect();
    let receipt = client
        .call_with_tokens(
            &mut chain,
            sc_a.address,
            0,
            &ChainLink::poke_payload(),
            &partial,
        )
        .expect("submit");
    println!("\nwithout SC_B's token: {:?}", receipt.status);
    assert_eq!(
        receipt.revert_reason(),
        Some("SMACS: no token for this contract")
    );
    assert_eq!(
        ChainLink::hops(&chain, sc_a.address),
        smacs::primitives::U256::ONE
    );
    println!("  SC_A's hop count unchanged — the whole chain is atomic");

    println!("call chain complete ✔");
}
