//! The §V-A case study: enforcing Hydra uniformity as an ACR.
//!
//! Three structurally different "heads" implement the same adder logic
//! (standing in for the paper's three programming languages), plus one
//! with a planted bug. The TS issues an argument token only when all heads
//! produce identical outputs for the requested payload — so the buggy
//! input can never reach the chain.
//!
//! Run with: `cargo run --example hydra_uniformity`

use smacs::chain::Chain;
use smacs::contracts::{AdderHead, BuggyAdderHead, HydraStyle};
use smacs::lang::{interp::Value, InterpretedContract};
use smacs::token::TokenRequest;
use smacs::ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use smacs::verifiers::HydraTool;
use std::sync::Arc;

fn main() {
    // The TS's local testnet hosts every head.
    let mut testnet = Chain::default_chain();
    let owner = testnet.funded_keypair(1, 10u128.pow(24));
    let mut heads = Vec::new();
    for style in [
        HydraStyle::Direct,
        HydraStyle::ShiftAdd,
        HydraStyle::TwosComplement,
    ] {
        let (d, _) = testnet
            .deploy(&owner, Arc::new(AdderHead::new(style)))
            .expect("deploy head");
        println!("head deployed: {} at {}", d.logic.name(), d.address);
        heads.push(d.address);
    }
    // A head written in a literally different language: Solidity-lite,
    // interpreted on the same chain.
    let adder_src = r#"
        contract Adder {
            uint total;
            function add(uint x) public returns (uint) {
                total = total + x;
                return total;
            }
        }
    "#;
    let interpreted = InterpretedContract::from_source(adder_src, "Adder", Vec::<Value>::new())
        .expect("interpreted head parses");
    let (interpreted, _) = testnet
        .deploy(&owner, Arc::new(interpreted))
        .expect("deploy interpreted head");
    println!(
        "head deployed: Adder (Solidity-lite, interpreted) at {}",
        interpreted.address
    );
    heads.push(interpreted.address);

    let (buggy, _) = testnet
        .deploy(&owner, Arc::new(BuggyAdderHead))
        .expect("deploy buggy head");
    println!(
        "head deployed: BuggyAdderHead at {} (bug triggers on add({}))",
        buggy.address,
        BuggyAdderHead::TRIGGER
    );
    heads.push(buggy.address);
    let protected = heads[0];

    let ts = FrontEnd::new(
        TokenService::new(
            smacs::crypto::Keypair::from_seed(4_000),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_testnet(testnet.fork())
        .with_tool(Arc::new(HydraTool::new(heads))),
        "owner-secret",
        0,
    );

    // Benign payloads: all four heads agree; tokens flow.
    let client = owner.address();
    for x in [1u64, 7, 1_000] {
        let req = TokenRequest::argument_token(
            protected,
            client,
            AdderHead::ADD_SIG,
            vec![],
            AdderHead::add_payload(x),
        );
        let result = ts.issue(&req);
        println!("add({x}): token issued = {}", result.is_ok());
        assert!(result.is_ok());
    }

    // The trigger payload: the buggy head diverges; issuance is vetoed.
    let req = TokenRequest::argument_token(
        protected,
        client,
        AdderHead::ADD_SIG,
        vec![],
        AdderHead::add_payload(BuggyAdderHead::TRIGGER),
    );
    let result = ts.issue(&req);
    match &result {
        Err(e) => println!("add({}): DENIED — {e}", BuggyAdderHead::TRIGGER),
        Ok(_) => panic!("divergent payload must not get a token"),
    }

    println!("hydra uniformity complete ✔");
}
