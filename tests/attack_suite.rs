//! Adversarial integration tests: every §VII-A attack class, including
//! randomized token-mutation attacks driven by proptest.

use proptest::prelude::*;
use smacs::chain::abi;
use smacs::chain::Chain;
use smacs::contracts::{
    Airdrop, Bank, BenchTarget, PriceOracle, SessionGame, SmacsAmm, SmacsAwareAttacker,
};
use smacs::core::client::ClientWallet;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::crypto::Keypair;
use smacs::primitives::U256;
use smacs::token::{ArgBinding, Token, TokenRequest, TokenType};
use smacs::ts::{ErrorCode, FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use smacs_driver::scenario::{self, OWNER_SECRET};
use std::sync::Arc;

fn small_shield() -> ShieldParams {
    ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    }
}

struct World {
    chain: Chain,
    api: FrontEnd,
    client: ClientWallet,
    target: smacs::primitives::Address,
}

fn world(seed: u64) -> World {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(seed, 10u128.pow(24));
    let client = ClientWallet::new(chain.funded_keypair(seed + 1, 10u128.pow(24)));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(seed + 1_000));
    let (target, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(BenchTarget), &small_shield())
        .unwrap();
    let api = FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        chain.pending_env().timestamp,
    );
    World {
        chain,
        api,
        client,
        target: target.address,
    }
}

/// The adaptive (SMACS-aware) attacker of the re-entrancy case study is
/// stopped by one-time tokens even though it forwards and replays the
/// token correctly.
#[test]
fn adaptive_reentrancy_attacker_blocked_by_one_time_tokens() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let victim = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let attacker_eoa = chain.funded_keypair(3, 10u128.pow(24));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(2_000));
    let (bank, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(Bank), &small_shield())
        .unwrap();
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

    // Victim deposits.
    let deposit_payload = abi::encode_call("addBalance()", &[]);
    let req = TokenRequest::method_token(bank.address, victim.address(), "addBalance()");
    let token = ts.issue(&req).unwrap();
    victim
        .call_with_token(&mut chain, bank.address, 1_000, &deposit_payload, token)
        .unwrap();

    // Attacker contract deposits 2 wei through a forwarded token.
    let (attacker, _) = chain
        .deploy(
            &attacker_eoa,
            Arc::new(SmacsAwareAttacker::new(bank.address)),
        )
        .unwrap();
    chain.fund_account(attacker.address, 10);
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
    assert!(chain
        .submit(tx.sign(&attacker_eoa))
        .unwrap()
        .status
        .is_success());

    // The strike with a one-time withdraw token: the replayed inner frame
    // finds its index spent → full revert, bank untouched.
    let withdraw_payload = abi::encode_call("withdraw()", &[]);
    let req = TokenRequest::argument_token(
        bank.address,
        attacker_eoa.address(),
        "withdraw()",
        vec![],
        withdraw_payload.clone(),
    )
    .one_time();
    let token = ts.issue(&req).unwrap();
    let strike_data = smacs::core::client::build_call_data(&withdraw_payload, bank.address, token);
    // Route through the attacker contract (its withdraw() forwards).
    let strike_data = {
        let (_, tokens) = smacs::token::split_tokens(&strike_data).unwrap();
        smacs::token::append_tokens(&abi::encode_call("withdraw()", &[]), &tokens)
    };
    let bank_before = chain.state().balance(bank.address);
    let nonce = chain.state().nonce(attacker_eoa.address());
    let tx = smacs::chain::Transaction::call(nonce, attacker.address, 0, strike_data);
    let receipt = chain.submit(tx.sign(&attacker_eoa)).unwrap();
    assert!(!receipt.status.is_success());
    assert_eq!(chain.state().balance(bank.address), bank_before);
}

/// §VII-A(b): resubmitting the exact same signed transaction is stopped by
/// the chain's nonce check; a *new* transaction reusing a non-one-time
/// token from the same origin is allowed (that is the documented semantics
/// — tokens authorize contexts, transactions handle replay).
#[test]
fn chain_level_replay_protection() {
    let mut w = world(10);
    let payload = BenchTarget::ping_payload(5, 5);
    let req = TokenRequest::super_token(w.target, w.client.address());
    let token = w.api.issue(&req).unwrap();
    let data = smacs::core::client::build_call_data(&payload, w.target, token);
    let nonce = w.chain.state().nonce(w.client.address());
    let tx = smacs::chain::Transaction::call(nonce, w.target, 0, data);
    let signed = tx.sign(w.client.keypair());
    assert!(w.chain.submit(signed.clone()).unwrap().status.is_success());
    // Byte-identical replay: rejected before execution.
    assert!(w.chain.submit(signed).is_err());
}

/// An argument token binds `msg.sig ‖ msg.data`, and the shield reads
/// `msg.sig` off the calldata. A request whose calldata does not begin
/// with its method's selector therefore binds no call a token could be
/// spent on, and gets no token: neither a `total()` request over `ping`
/// calldata nor a `ping` request over calldata of `0xAB` bytes.
#[test]
fn argument_request_whose_calldata_names_another_method_gets_no_token() {
    let mut w = world(50);
    for (method, calldata) in [
        ("total()", BenchTarget::ping_payload(1, 2)),
        (BenchTarget::PING_SIG, vec![0xAB; 68]),
    ] {
        let req = TokenRequest::argument_token(
            w.target,
            w.client.address(),
            method,
            vec![],
            calldata.clone(),
        );
        match w.api.issue(&req) {
            Err(refusal) => assert_eq!(refusal.code, ErrorCode::InvalidRequest, "{method}"),
            Ok(token) => {
                let receipt = w
                    .client
                    .call_with_token(&mut w.chain, w.target, 0, &calldata, token)
                    .unwrap();
                panic!(
                    "{method}: issued a token whose call ends in {:?}",
                    receipt.revert_reason()
                );
            }
        }
    }
}

// ---- scenario-corpus rule shapes (PR 7) --------------------------------
//
// One allowed path and one denied path per rule shape the corpus
// introduces: operator whitelists, argument value bounds, cross-contract
// composition, session expiry, and one-time claims.

fn scenario_api(world: &scenario::ScenarioWorld) -> FrontEnd {
    FrontEnd::new(world.token_service(), OWNER_SECRET, world.now())
}

/// Oracle-update authorization: the method-token operator whitelist admits
/// a listed operator's on-chain post and refuses to mint for an outsider —
/// the contract itself holds no operator list.
#[test]
fn oracle_operator_whitelist_gates_issuance_not_the_contract() {
    let mut world = scenario::build("oracle", 40).unwrap();
    let api = scenario_api(&world);
    let oracle = world.contract("oracle").unwrap();

    // Allowed: wallet 0 is whitelisted for postPrice.
    let operator = &world.wallets[0];
    let req = TokenRequest::method_token(oracle, operator.address(), PriceOracle::POST_SIG);
    let token = api.issue(&req).unwrap();
    let receipt = operator
        .call_with_token(
            &mut world.chain,
            oracle,
            0,
            &PriceOracle::post_payload(42_000),
            token,
        )
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());
    assert_eq!(
        PriceOracle::price(&world.chain, oracle),
        U256::from_u64(42_000)
    );

    // Denied: wallet 5 is not an operator — the mint itself fails.
    let outsider = world.wallets[5].address();
    let req = TokenRequest::method_token(oracle, outsider, PriceOracle::POST_SIG);
    let err = api.issue(&req).unwrap_err();
    assert_eq!(err.code, ErrorCode::RuleViolation);
}

/// Argument-token price bounds: a swap with a real `minOut` mints and
/// executes; `minOut = 0` (unbounded slippage) is refused per-value at the
/// TS with no contract change.
#[test]
fn amm_argument_bounds_allow_bounded_swaps_and_deny_zero_min_out() {
    let mut world = scenario::build("amm", 41).unwrap();
    let api = scenario_api(&world);
    let amm = world.contract("amm").unwrap();

    // Allowed: the scenario's first issuance template is a bounded swap.
    let trader = &world.wallets[0];
    let token = api.issue(&world.requests[0]).unwrap();
    let receipt = trader
        .call_with_token(
            &mut world.chain,
            amm,
            0,
            &SmacsAmm::swap_payload(100, 1),
            token,
        )
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());
    assert!(SmacsAmm::balance_y(&world.chain, amm, trader.address()) > U256::ZERO);

    // Denied: same sender, same method, minOut bound to zero.
    let bad = TokenRequest::argument_token(
        amm,
        trader.address(),
        SmacsAmm::SWAP_SIG,
        vec![
            ArgBinding {
                name: "arg0".into(),
                value: "100".into(),
            },
            ArgBinding {
                name: "arg1".into(),
                value: "0".into(),
            },
        ],
        SmacsAmm::swap_payload(100, 0),
    );
    let err = api.issue(&bad).unwrap_err();
    assert_eq!(err.code, ErrorCode::RuleViolation);
}

/// Argument policies judge the calldata a token binds, not the bindings a
/// client declares: a request for `swap(100, 0)` that declares
/// `arg1 = "1"`, or declares nothing, gets no token, so the
/// unbounded-slippage swap never runs.
#[test]
fn amm_argument_policy_judges_the_bound_calldata_not_the_declared_args() {
    let mut world = scenario::build("amm", 44).unwrap();
    let api = scenario_api(&world);
    let amm = world.contract("amm").unwrap();
    let trader = &world.wallets[2];
    let swap = |args| {
        TokenRequest::argument_token(
            amm,
            trader.address(),
            SmacsAmm::SWAP_SIG,
            args,
            SmacsAmm::swap_payload(100, 0),
        )
    };
    let bind = |name: &str, value: &str| ArgBinding {
        name: name.into(),
        value: value.into(),
    };
    let lying = swap(vec![bind("arg0", "100"), bind("arg1", "1")]);
    let silent = swap(Vec::new());
    for (label, req, code) in [
        ("lying", lying, ErrorCode::InvalidRequest),
        ("silent", silent, ErrorCode::RuleViolation),
    ] {
        match api.issue(&req) {
            Err(err) => assert_eq!(err.code, code, "{label}: {}", err.message),
            Ok(token) => {
                let receipt = trader
                    .call_with_token(
                        &mut world.chain,
                        amm,
                        0,
                        &SmacsAmm::swap_payload(100, 0),
                        token,
                    )
                    .unwrap();
                panic!("{label} request got a token: {:?}", receipt.status);
            }
        }
    }
    assert_eq!(
        SmacsAmm::balance_y(&world.chain, amm, trader.address()),
        U256::ZERO
    );
}

/// Cross-contract composition: `leverageSwap` forwards the transaction's
/// token array into the AMM, so the borrower needs a valid token for
/// *each* shielded hop — and the inner hop's check still bites when its
/// token is missing.
#[test]
fn amm_composition_requires_a_token_per_shielded_hop() {
    let mut world = scenario::build("amm", 42).unwrap();
    let api = scenario_api(&world);
    let amm = world.contract("amm").unwrap();
    let pool = world.contract("pool").unwrap();
    let borrower = &world.wallets[1];

    let leverage = smacs::contracts::LendingPool::leverage_payload(200, 1);
    let pool_req = TokenRequest::method_token(
        pool,
        borrower.address(),
        smacs::contracts::LendingPool::LEVERAGE_SIG,
    );
    let swap_req = TokenRequest::argument_token(
        amm,
        borrower.address(),
        SmacsAmm::SWAP_SIG,
        vec![
            ArgBinding {
                name: "arg0".into(),
                value: "200".into(),
            },
            ArgBinding {
                name: "arg1".into(),
                value: "1".into(),
            },
        ],
        SmacsAmm::swap_payload(200, 1),
    );

    // Allowed: tokens for both hops ride the same transaction.
    let pool_token = api.issue(&pool_req).unwrap();
    let swap_token = api.issue(&swap_req).unwrap();
    let receipt = borrower
        .call_with_tokens(
            &mut world.chain,
            pool,
            0,
            &leverage,
            &[(pool, pool_token), (amm, swap_token)],
        )
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());
    assert_eq!(
        smacs::contracts::LendingPool::debt(&world.chain, pool, borrower.address()),
        U256::from_u64(200)
    );
    // The swap credited the transaction origin (the borrower), not the pool.
    assert!(SmacsAmm::balance_y(&world.chain, amm, borrower.address()) > U256::ZERO);

    // Denied: the pool hop alone — the forwarded inner call reaches the
    // AMM's shield with no token for it and the whole transaction reverts.
    let pool_token = api.issue(&pool_req).unwrap();
    let debt_before = smacs::contracts::LendingPool::debt(&world.chain, pool, borrower.address());
    let receipt = borrower
        .call_with_tokens(&mut world.chain, pool, 0, &leverage, &[(pool, pool_token)])
        .unwrap();
    assert!(!receipt.status.is_success());
    assert_eq!(
        smacs::contracts::LendingPool::debt(&world.chain, pool, borrower.address()),
        debt_before,
        "failed composition must not leave partial debt"
    );
}

/// Session tokens: the game TS issues 120-second method tokens. Within the
/// session the player moves freely; after expiry the same token dies at
/// the shield and a re-mint is required.
#[test]
fn game_session_tokens_expire_on_chain() {
    let mut world = scenario::build("game", 43).unwrap();
    let api = scenario_api(&world);
    let game = world.contract("game").unwrap();
    let player = &world.wallets[0];

    // Join with an argument token (exact-calldata, the REPL's default).
    let join = SessionGame::join_payload();
    let join_req = TokenRequest::argument_token(
        game,
        player.address(),
        SessionGame::JOIN_SIG,
        vec![],
        join.clone(),
    );
    let token = api.issue(&join_req).unwrap();
    let receipt = player
        .call_with_token(&mut world.chain, game, 0, &join, token)
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());

    // Allowed: play within the 120-second session.
    let session = api.issue(&world.requests[0]).unwrap();
    let receipt = player
        .call_with_token(
            &mut world.chain,
            game,
            0,
            &SessionGame::play_payload(60),
            session,
        )
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());
    assert_eq!(
        SessionGame::score(&world.chain, game, player.address()),
        U256::from_u64(60)
    );

    // Denied: the same session token after the chain clock passes expiry.
    world.chain.advance_time(7_200);
    let receipt = player
        .call_with_token(
            &mut world.chain,
            game,
            0,
            &SessionGame::play_payload(10),
            session,
        )
        .unwrap();
    assert!(!receipt.status.is_success(), "expired session still played");
    assert_eq!(
        SessionGame::score(&world.chain, game, player.address()),
        U256::from_u64(60)
    );
}

/// One-time claims: a claim token spends exactly once — replaying the very
/// same token in a fresh transaction dies at the shield's index check.
#[test]
fn airdrop_one_time_claim_tokens_spend_exactly_once() {
    let mut world = scenario::build("airdrop", 44).unwrap();
    let api = scenario_api(&world);
    let drop = world.contract("airdrop").unwrap();
    let claimer = &world.wallets[0];

    // Allowed: first claim with a one-time token.
    let token = api.issue(&world.requests[0]).unwrap();
    assert!(token.index > -1, "claim tokens must be one-time");
    let receipt = claimer
        .call_with_token(&mut world.chain, drop, 0, &Airdrop::claim_payload(), token)
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.revert_reason());
    assert_eq!(
        Airdrop::balance(&world.chain, drop, claimer.address()),
        U256::from_u64(100)
    );

    // Denied: replaying the spent token in a new transaction.
    let receipt = claimer
        .call_with_token(&mut world.chain, drop, 0, &Airdrop::claim_payload(), token)
        .unwrap();
    assert!(!receipt.status.is_success(), "one-time token replayed");
    assert_eq!(
        Airdrop::balance(&world.chain, drop, claimer.address()),
        U256::from_u64(100),
        "replay must not double-credit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The TS and the shield agree on what a token binds: over method and
    /// argument requests to a shielded `BenchTarget` — matching selectors,
    /// mismatched selectors, calldata under four bytes, and trailing
    /// bytes — every token the TS issues passes the shield on the call it
    /// binds, and every refusal is `invalid_request`.
    #[test]
    fn prop_every_issued_token_passes_the_shield_on_the_call_it_binds(
        method in 0usize..3,
        args in any::<[u64; 2]>(),
        short in 0usize..4,
        trailing in prop::collection::vec(any::<u8>(), 1..40),
        junk in prop::collection::vec(any::<u8>(), 4..100),
    ) {
        let mut w = world(60);
        let method = [BenchTarget::PING_SIG, "total()", "nosuch(uint256)"][method];
        let ping = BenchTarget::ping_payload(args[0], args[1]);
        let call = [&abi::selector(method).0[..], &ping[4..]].concat();
        let other = if method == BenchTarget::PING_SIG { "total()" } else { BenchTarget::PING_SIG };
        // (request, the call it binds, whether the TS grants it)
        let argument = |calldata: Vec<u8>, granted| {
            let req = TokenRequest::argument_token(
                w.target,
                w.client.address(),
                method,
                vec![],
                calldata.clone(),
            );
            (req, calldata, granted)
        };
        let matches = junk[..4] == abi::selector(method).0;
        let cases = [
            (TokenRequest::method_token(w.target, w.client.address(), method), call.clone(), true),
            argument(call.clone(), true),
            argument([&call[..], &trailing].concat(), true),
            argument([&abi::selector(other).0[..], &ping[4..]].concat(), false),
            argument(junk, matches),
            argument(call[..short].to_vec(), false),
        ];
        for (req, call, granted) in cases {
            match w.api.issue(&req) {
                Ok(token) => {
                    let receipt = w
                        .client
                        .call_with_token(&mut w.chain, w.target, 0, &call, token)
                        .unwrap();
                    let reason = receipt.revert_reason().unwrap_or_default();
                    prop_assert!(!reason.starts_with("SMACS:"), "{req:?}: {reason}");
                    prop_assert!(granted, "{req:?} was granted");
                }
                Err(refusal) => {
                    prop_assert!(!granted, "{req:?} was refused: {refusal:?}");
                    prop_assert_eq!(refusal.code, ErrorCode::InvalidRequest);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Substitution attacks, randomized: flip any byte of the token wire
    /// image and the call must fail (either at decode or at signature
    /// verification) — "any tiny change of the context … will be caught".
    #[test]
    fn prop_mutated_tokens_always_rejected(byte_idx in 0usize..Token::SIZE, bit in 0u8..8) {
        let mut w = world(20);
        let payload = BenchTarget::ping_payload(2, 2);
        let req = TokenRequest::argument_token(
            w.target,
            w.client.address(),
            BenchTarget::PING_SIG,
            vec![],
            payload.clone(),
        );
        let token = w.api.issue(&req).unwrap();

        let mut wire = token.to_bytes();
        wire[byte_idx] ^= 1 << bit;

        // Rebuild calldata with the mutated token bytes spliced in.
        let tokens = smacs::token::TokenArray::new();
        let mut data = smacs::token::append_tokens(&payload, &tokens);
        // payload ‖ (empty array) ‖ count — now hand-craft a 1-entry array.
        data.truncate(payload.len());
        data.extend_from_slice(w.target.as_bytes());
        data.extend_from_slice(&wire);
        data.extend_from_slice(&1u32.to_be_bytes());

        let receipt = w.client.send(&mut w.chain, w.target, 0, data).unwrap();
        prop_assert!(
            !receipt.status.is_success(),
            "mutated byte {byte_idx} bit {bit} was accepted"
        );
        // The inner method must never have run.
        prop_assert_eq!(
            w.chain.state().storage_get_u256(w.target, smacs::primitives::H256::ZERO),
            smacs::primitives::U256::ZERO
        );
    }

    /// Context-substitution, randomized: a token issued for one context
    /// never authorizes a different sender, contract, method, or payload.
    #[test]
    fn prop_context_swaps_rejected(which in 0usize..4) {
        let mut w = world(30);
        let payload = BenchTarget::ping_payload(7, 8);
        let req = TokenRequest::argument_token(
            w.target,
            w.client.address(),
            BenchTarget::PING_SIG,
            vec![],
            payload.clone(),
        );
        let token = w.api.issue(&req).unwrap();

        let receipt = match which {
            0 => {
                // Different sender.
                let mallory = ClientWallet::new(w.chain.funded_keypair(777, 10u128.pow(24)));
                mallory.call_with_token(&mut w.chain, w.target, 0, &payload, token).unwrap()
            }
            1 => {
                // Different payload (arguments swapped).
                let other = BenchTarget::ping_payload(8, 7);
                w.client.call_with_token(&mut w.chain, w.target, 0, &other, token).unwrap()
            }
            2 => {
                // Different method.
                let other = abi::encode_call("total()", &[]);
                w.client.call_with_token(&mut w.chain, w.target, 0, &other, token).unwrap()
            }
            _ => {
                // Downgrade the declared type byte to Super (mutation of
                // `ttype` while keeping the signature).
                let mut forged = token;
                forged.ttype = TokenType::Super;
                w.client.call_with_token(&mut w.chain, w.target, 0, &payload, forged).unwrap()
            }
        };
        prop_assert!(!receipt.status.is_success(), "swap {which} accepted");
    }
}
