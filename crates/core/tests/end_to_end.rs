//! End-to-end SMACS verification: owner deploys a shielded contract, a
//! hand-rolled TS signs tokens, clients present them. Covers the §VII-A
//! security arguments: substitution attacks, replay, expiry, one-time
//! semantics, wrong-type/method/argument rejections, and privacy of rules.

use smacs_chain::abi::{self, AbiType, AbiValue};
use smacs_chain::{CallContext, Chain, Contract, ExecStatus, VmError};
use smacs_core::client::ClientWallet;
use smacs_core::owner::{OwnerToolkit, ShieldParams};
use smacs_crypto::Keypair;
use smacs_primitives::{Address, Bytes, H256, U256};
use smacs_token::{signing_digest, PayloadContext, Token, TokenType, NO_INDEX};
use std::sync::Arc;

/// The protected application: a vault with a counter and a parameterized
/// setter, enough surface to exercise all three token types.
struct Vault;

impl Contract for Vault {
    fn name(&self) -> &'static str {
        "Vault"
    }
    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let sel = ctx.msg_sig().unwrap();
        if sel == abi::selector("bump()") {
            let v = ctx.sload_u256(H256::ZERO)?;
            ctx.sstore_u256(H256::ZERO, v.wrapping_add(U256::ONE))?;
            Ok(Bytes::new())
        } else if sel == abi::selector("set(uint256)") {
            let args = ctx.decode_args(&[AbiType::Uint])?;
            ctx.sstore_u256(H256::ZERO, args[0].as_uint().unwrap())?;
            Ok(Bytes::new())
        } else if sel == abi::selector("get()") {
            Ok(Bytes::from(ctx.sload_u256(H256::ZERO)?.to_be_bytes()))
        } else {
            ctx.revert("unknown method")
        }
    }
}

struct Setup {
    chain: Chain,
    toolkit: OwnerToolkit,
    client: ClientWallet,
    vault: Address,
}

fn setup() -> Setup {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let client_kp = chain.funded_keypair(2, 10u128.pow(24));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(1000));
    let (vault, receipt) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(Vault),
            &ShieldParams {
                token_lifetime_secs: 3600,
                max_tx_per_second: 0.35, // small bitmap: fast tests
                disable_one_time: false,
            },
        )
        .unwrap();
    assert!(receipt.status.is_success());
    Setup {
        chain,
        toolkit,
        client: ClientWallet::new(client_kp),
        vault: vault.address,
    }
}

/// Hand-rolled TS issuance: sign exactly what Alg. 1 will reconstruct.
fn issue(
    toolkit: &OwnerToolkit,
    ttype: TokenType,
    expire: u32,
    index: i128,
    ctx: &PayloadContext,
) -> Token {
    let digest = signing_digest(ttype, expire, index, ctx);
    Token {
        ttype,
        expire,
        index,
        signature: toolkit.ts_keypair().sign_digest(&digest),
    }
}

fn far_future(chain: &Chain) -> u32 {
    (chain.pending_env().timestamp + 3_000) as u32
}

fn super_ctx(s: &Setup) -> PayloadContext {
    PayloadContext {
        sender: s.client.address(),
        contract: s.vault,
        selector: None,
        calldata: None,
    }
}

#[test]
fn super_token_grants_any_method() {
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &super_ctx(&s),
    );
    for payload in [
        abi::encode_call("bump()", &[]),
        abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(9))]),
        abi::encode_call("get()", &[]),
    ] {
        let receipt = s
            .client
            .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
            .unwrap();
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
    }
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::from_u64(9)
    );
}

#[test]
fn missing_token_is_rejected() {
    let mut s = setup();
    // Raw call with no token array at all.
    let receipt = s
        .client
        .send(&mut s.chain, s.vault, 0, abi::encode_call("bump()", &[]))
        .unwrap();
    match &receipt.status {
        ExecStatus::Reverted(reason) => assert!(reason.contains("SMACS"), "{reason}"),
        other => panic!("expected revert, got {other:?}"),
    }
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::ZERO
    );
}

#[test]
fn expired_token_is_rejected() {
    let mut s = setup();
    let expire = (s.chain.pending_env().timestamp + 100) as u32;
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        expire,
        NO_INDEX,
        &super_ctx(&s),
    );
    // Valid now …
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
    // … expired after time passes.
    s.chain.advance_time(200);
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: token expired"));
}

#[test]
fn substitution_attack_fails() {
    // §VII-A(a): an attacker intercepts a token and tries to use it from
    // their own account. tx.origin differs ⇒ signature verification fails.
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &super_ctx(&s),
    );
    let attacker = ClientWallet::new(s.chain.funded_keypair(666, 10u128.pow(24)));
    let r = attacker
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
    // The legitimate holder can still use it.
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
}

#[test]
fn method_token_binds_the_method() {
    let mut s = setup();
    let ctx = PayloadContext {
        selector: Some(abi::selector("bump()")),
        ..super_ctx(&s)
    };
    let tk = issue(
        &s.toolkit,
        TokenType::Method,
        far_future(&s.chain),
        NO_INDEX,
        &ctx,
    );
    // Works for bump() with any state of arguments …
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
    // … but not for set(uint256).
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::ONE)]),
            tk,
        )
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
}

#[test]
fn argument_token_binds_exact_arguments() {
    let mut s = setup();
    let good_payload = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(42))]);
    let ctx = PayloadContext {
        selector: Some(abi::selector("set(uint256)")),
        calldata: Some(good_payload.clone()),
        ..super_ctx(&s)
    };
    let tk = issue(
        &s.toolkit,
        TokenType::Argument,
        far_future(&s.chain),
        NO_INDEX,
        &ctx,
    );

    // Exact payload: accepted.
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &good_payload, tk)
        .unwrap();
    assert!(r.status.is_success());
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::from_u64(42)
    );

    // Same method, different argument: rejected.
    let bad_payload = abi::encode_call("set(uint256)", &[AbiValue::Uint(U256::from_u64(43))]);
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &bad_payload, tk)
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::from_u64(42)
    );
}

#[test]
fn forged_signature_rejected() {
    let mut s = setup();
    // Signed by the wrong key entirely.
    let mallory = OwnerToolkit::new(Keypair::from_seed(31337), Keypair::from_seed(31338));
    let tk = issue(
        &mallory,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &super_ctx(&s),
    );
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
}

#[test]
fn token_for_other_contract_rejected() {
    let mut s = setup();
    let other = Address::from_low_u64(0xDEAD);
    let ctx = PayloadContext {
        contract: other,
        ..super_ctx(&s)
    };
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &ctx,
    );
    // Addressed to `other` in the array: the vault finds no token for
    // itself.
    let data = smacs_core::client::build_call_data(&abi::encode_call("bump()", &[]), other, tk);
    let r = s.client.send(&mut s.chain, s.vault, 0, data).unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: no token for this contract"));

    // Addressed to the vault in the array but signed for `other`: the
    // signature binds cAddr, so verification fails.
    let data = smacs_core::client::build_call_data(&abi::encode_call("bump()", &[]), s.vault, tk);
    let r = s.client.send(&mut s.chain, s.vault, 0, data).unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
}

#[test]
fn one_time_token_single_use() {
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        0,
        &super_ctx(&s),
    );
    assert!(tk.is_one_time());
    let payload = abi::encode_call("bump()", &[]);
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    assert!(r.status.is_success());
    // §VII-A(b): replaying the used one-time token in a fresh transaction
    // is denied by the bitmap.
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    assert_eq!(
        r.revert_reason(),
        Some("SMACS: one-time token already used or missed")
    );
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::ONE
    );
}

#[test]
fn one_time_tokens_consume_distinct_indexes() {
    let mut s = setup();
    let payload = abi::encode_call("bump()", &[]);
    for index in 0..5i128 {
        let tk = issue(
            &s.toolkit,
            TokenType::Super,
            far_future(&s.chain),
            index,
            &super_ctx(&s),
        );
        let r = s
            .client
            .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
            .unwrap();
        assert!(r.status.is_success(), "index {index}: {:?}", r.status);
    }
    assert_eq!(
        s.chain.state().storage_get_u256(s.vault, H256::ZERO),
        U256::from_u64(5)
    );
}

#[test]
fn failed_use_does_not_burn_the_index() {
    // The bitmap marks an index only after the signature verifies and the
    // inner body is about to run; a failed attempt by an attacker must not
    // invalidate the legitimate holder's token.
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        3,
        &super_ctx(&s),
    );
    let attacker = ClientWallet::new(s.chain.funded_keypair(667, 10u128.pow(24)));
    let payload = abi::encode_call("bump()", &[]);
    // Attacker steals the token; signature check fails (origin mismatch).
    let r = attacker
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
    // Legitimate holder still gets exactly one use.
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    assert!(r.status.is_success());
}

#[test]
fn inner_revert_rolls_back_one_time_marking() {
    // If the method body reverts after verification, the whole transaction
    // (including the bitmap write) reverts: the token remains usable.
    let mut s = setup();
    let ctx = PayloadContext {
        selector: Some(abi::selector("nosuch()")),
        ..super_ctx(&s)
    };
    let tk = issue(&s.toolkit, TokenType::Method, far_future(&s.chain), 7, &ctx);
    let payload = abi::encode_call("nosuch()", &[]);
    let r = s
        .client
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    assert_eq!(r.revert_reason(), Some("unknown method"));
    // Bitmap write was rolled back with everything else; a later valid use
    // of the same index (through a method that exists, with a fresh token
    // for it) succeeds.
    let ctx = PayloadContext {
        selector: Some(abi::selector("bump()")),
        ..super_ctx(&s)
    };
    let tk = issue(&s.toolkit, TokenType::Method, far_future(&s.chain), 7, &ctx);
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
}

#[test]
fn gas_breakdown_has_verify_section() {
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &super_ctx(&s),
    );
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
    let verify = r.breakdown.section("verify");
    // Calibrated to the paper's magnitude: ~108k for a super token.
    assert!((100_000..120_000).contains(&verify), "verify gas {verify}");
    assert_eq!(r.breakdown.section("bitmap"), 0);
    assert!(r.breakdown.misc() > 21_000);
}

#[test]
fn one_time_gas_breakdown_has_bitmap_section() {
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        0,
        &super_ctx(&s),
    );
    let r = s
        .client
        .call_with_token(
            &mut s.chain,
            s.vault,
            0,
            &abi::encode_call("bump()", &[]),
            tk,
        )
        .unwrap();
    assert!(r.status.is_success());
    let bitmap = r.breakdown.section("bitmap");
    // The paper reports ~27.5–28k.
    assert!((24_000..32_000).contains(&bitmap), "bitmap gas {bitmap}");
}

#[test]
fn reorged_history_cannot_forge_tokens() {
    // §VII-A(c): a 51% adversary rewrites blocks, but a non-compliant
    // transaction still cannot carry a valid token afterwards.
    let mut s = setup();
    let tk = issue(
        &s.toolkit,
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &super_ctx(&s),
    );
    let payload = abi::encode_call("bump()", &[]);
    s.client
        .call_with_token(&mut s.chain, s.vault, 0, &payload, tk)
        .unwrap();
    s.chain.seal_block();

    // The adversary reorgs everything after genesis and replays nothing.
    s.chain.reorg(0).unwrap();
    // Re-deploy in the new history (the adversary controls ordering but
    // not key material), with the setup's small bitmap: the default one
    // does not fit the default deployment gas limit.
    let params = ShieldParams {
        token_lifetime_secs: 3600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    };
    let (vault2, receipt) = s
        .toolkit
        .deploy_shielded(&mut s.chain, Arc::new(Vault), &params)
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    // A token for the old context does not verify against a contract at a
    // different address …
    if vault2.address != s.vault {
        let data = smacs_core::client::build_call_data(&payload, vault2.address, tk);
        let r = s
            .client
            .send(&mut s.chain, vault2.address, 0, data)
            .unwrap();
        assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
    }
    // … and an attacker still cannot mint one without sk_TS.
    let attacker = ClientWallet::new(s.chain.funded_keypair(999, 10u128.pow(24)));
    let forged = issue(
        &OwnerToolkit::new(Keypair::from_seed(4242), Keypair::from_seed(4243)),
        TokenType::Super,
        far_future(&s.chain),
        NO_INDEX,
        &PayloadContext {
            sender: attacker.address(),
            contract: vault2.address,
            selector: None,
            calldata: None,
        },
    );
    let r = attacker
        .call_with_token(&mut s.chain, vault2.address, 0, &payload, forged)
        .unwrap();
    assert_eq!(r.revert_reason(), Some("SMACS: invalid token signature"));
}

#[test]
fn value_transfers_pass_through_fallback() {
    // Plain deposits (no selector) skip token verification by design.
    let mut s = setup();
    let before = s.chain.state().balance(s.vault);
    let r = s
        .client
        .send(&mut s.chain, s.vault, 1_000, Vec::new())
        .unwrap();
    assert!(r.status.is_success());
    assert_eq!(s.chain.state().balance(s.vault), before + 1_000);
}

#[test]
fn shield_verdicts_and_gas_are_unchanged_once_pk_ts_is_known() {
    use smacs_crypto::secp256k1 as curve;
    use smacs_crypto::Signature;

    let mut s = setup();
    let payload = abi::encode_call("get()", &[]);
    let method_ctx = |s: &Setup| PayloadContext {
        selector: Some(abi::selector("get()")),
        ..super_ctx(s)
    };
    let high_s = |sig: Signature| Signature {
        s: curve::to_be_bytes(&curve::sub_mod(
            &[0; 4],
            &curve::from_be_bytes(&sig.s),
            &curve::N,
        )),
        v: 55 - sig.v,
        ..sig
    };
    // A read-only method, and a token whose high-s twin has as many zero
    // bytes as it: every accepted call then costs exactly the same gas.
    let zeros = |sig: &Signature| sig.s.iter().filter(|&&b| b == 0).count();
    let tk = (0..)
        .map(|k| {
            let expire = far_future(&s.chain) + k;
            issue(
                &s.toolkit,
                TokenType::Method,
                expire,
                NO_INDEX,
                &method_ctx(&s),
            )
        })
        .find(|tk| zeros(&tk.signature) == zeros(&high_s(tk.signature)))
        .unwrap();
    let call = |s: &mut Setup, token: Token| {
        s.client
            .call_with_token(&mut s.chain, s.vault, 0, &payload, token)
            .unwrap()
    };

    // The first call learns pk_TS (if no earlier test in this process did).
    let first = call(&mut s, tk);
    assert!(first.status.is_success(), "{:?}", first.status);

    let twin = Token {
        signature: high_s(tk.signature),
        ..tk
    };
    for (what, token) in [("the same token", tk), ("its high-s twin", twin)] {
        let r = call(&mut s, token);
        assert!(r.status.is_success(), "{what}: {:?}", r.status);
        assert_eq!(r.gas_used, first.gas_used, "{what}");
    }

    let attacker = s.chain.funded_keypair(668, 10u128.pow(24));
    let mallory = OwnerToolkit::new(Keypair::from_seed(31337), Keypair::from_seed(31338));
    let with_sig = |edit: &dyn Fn(&mut Signature)| {
        let mut token = tk;
        edit(&mut token.signature);
        token
    };
    let refused = [
        ("v flipped", with_sig(&|sig| sig.v = 55 - sig.v)),
        (
            "another key",
            issue(
                &mallory,
                TokenType::Method,
                tk.expire,
                NO_INDEX,
                &method_ctx(&s),
            ),
        ),
        (
            "another sender",
            issue(
                &s.toolkit,
                TokenType::Method,
                tk.expire,
                NO_INDEX,
                &PayloadContext {
                    sender: attacker.address(),
                    ..method_ctx(&s)
                },
            ),
        ),
        (
            "another contract",
            issue(
                &s.toolkit,
                TokenType::Method,
                tk.expire,
                NO_INDEX,
                &PayloadContext {
                    contract: Address::from_low_u64(0xDEAD),
                    ..method_ctx(&s)
                },
            ),
        ),
        ("r = 0", with_sig(&|sig| sig.r = [0; 32])),
        ("s = 0", with_sig(&|sig| sig.s = [0; 32])),
        (
            "r = n",
            with_sig(&|sig| sig.r = curve::to_be_bytes(&curve::N)),
        ),
        ("r > n", with_sig(&|sig| sig.r = [0xFF; 32])),
    ];
    for (what, token) in refused {
        let r = call(&mut s, token);
        assert_eq!(
            r.revert_reason(),
            Some("SMACS: invalid token signature"),
            "{what}"
        );
    }
}
