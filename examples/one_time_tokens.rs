//! One-time tokens and the Alg. 2 bitmap: single use, window slides,
//! token misses, and the sizing rule.
//!
//! Run with: `cargo run --example one_time_tokens`

use smacs::chain::Chain;
use smacs::contracts::BenchTarget;
use smacs::core::bitmap::{bitmap_bits_for, BitmapState};
use smacs::core::client::ClientWallet;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::token::TokenRequest;
use smacs::ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::sync::Arc;

fn main() {
    // --- sizing (§IV-C): lifetime × peak rate ---------------------------
    println!("bitmap sizing (token_lifetime × max_tx_per_second):");
    for (rate, label) in [
        (35.0, "Ethereum peak (35 tx/s)"),
        (3.5, "busy dapp"),
        (0.35, "quiet dapp"),
    ] {
        let bits = bitmap_bits_for(3_600, rate);
        println!(
            "  1 h lifetime at {label}: {bits} bits = {:.3} KB",
            bits as f64 / 8192.0
        );
    }

    // --- live single-use semantics --------------------------------------
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let client = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let toolkit = OwnerToolkit::new(owner, smacs::crypto::Keypair::from_seed(1_000));
    let (target, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(BenchTarget),
            &ShieldParams {
                token_lifetime_secs: 3_600,
                max_tx_per_second: 0.35,
                disable_one_time: false,
            },
        )
        .expect("deploy");
    let ts = FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        chain.pending_env().timestamp,
    );

    let payload = BenchTarget::ping_payload(1, 2);
    let req = TokenRequest::argument_token(
        target.address,
        client.address(),
        BenchTarget::PING_SIG,
        vec![],
        payload.clone(),
    )
    .one_time();
    let token = ts.issue(&req).expect("token");
    println!(
        "\nissued one-time argument token with index {}",
        token.index
    );

    let r = client
        .call_with_token(&mut chain, target.address, 0, &payload, token)
        .unwrap();
    println!(
        "first use:  {:?} (bitmap gas {})",
        r.status,
        r.breakdown.section("bitmap")
    );
    assert!(r.status.is_success());

    let r = client
        .call_with_token(&mut chain, target.address, 0, &payload, token)
        .unwrap();
    println!("second use: {:?}", r.status);
    assert!(!r.status.is_success());

    // --- window mechanics on the pure state machine ---------------------
    println!("\nAlg. 2 window on an 8-bit map (the paper's worked example):");
    let mut bm = BitmapState::new(8);
    for i in [0u128, 1, 4, 5] {
        bm.try_use(i);
    }
    println!("  used 0,1,4,5 → window [{}..{}]", bm.start(), bm.end());
    bm.try_use(9);
    println!(
        "  used 9       → window [{}..{}] (slide)",
        bm.start(),
        bm.end()
    );
    bm.try_use(13);
    println!(
        "  used 13      → window [{}..{}] (slide)",
        bm.start(),
        bm.end()
    );
    let miss = bm.try_use(2);
    println!("  token 2 now:   {miss:?} — a token miss; the holder re-applies to the TS");
    assert!(!miss.is_accepted());

    println!("\none-time tokens complete ✔");
}
