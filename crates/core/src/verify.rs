//! Alg. 1 — contract-side token verification.
//!
//! ```text
//! Input: a transaction T
//! tk ← extractToken(T)
//! if now() > tk.expire                      → reject (expired)
//! if tk.index > −1 and reused(tk.index)     → reject (one-time reuse)²
//! tkData   ← tk.expire ‖ tk.index
//! addrData ← T.origin ‖ address(this)
//! data     ← tk.type ‖ tkData ‖ addrData
//! Super:    data
//! Method:   data ‖ msg.sig
//! Argument: data ‖ msg.sig ‖ msg.data
//! return SigVerify_pkTS(data, tk.signature)
//! ```
//!
//! ² The paper's pseudocode reads `not reused(...)`, which would reject
//! every *fresh* one-time token — a typo; the implemented condition matches
//! the surrounding prose ("check whether the underlying token has been used
//! before, and then permit or deny accordingly"). The reuse *marking* also
//! happens only after the signature verifies, so an attacker cannot burn
//! indexes by submitting forged tokens.
//!
//! Gas is attributed to the labeled sections the paper's tables report:
//! `parse` (multi-token array handling, Table III), `verify` (signature
//! path, Table II), `bitmap` (one-time bookkeeping, Table II).

use smacs_chain::{CallContext, Selector, VmError, SCHEDULE};
use smacs_primitives::{Address, Bytes};
use smacs_token::{split_tokens, Binding, Token, TokenArray, TokenType};

use crate::costs::{
    ARG_PER_PAYLOAD_BYTE_STEPS, METHOD_EXTRA_STEPS, PARSE_PER_ENTRY_STEPS, VERIFY_BASE_STEPS,
};
use crate::layout;
use crate::storage_bitmap::StorageBitmap;

/// What a successful verification yields: the validated token, the payload
/// calldata (the transaction's calldata with the token array stripped), and
/// the full array (for forwarding along a call chain).
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// The token that authorized this call.
    pub token: Token,
    /// Calldata with the token array stripped: selector + application args.
    pub payload: Vec<u8>,
    /// The complete token array, for forwarding to nested SMACS contracts.
    pub tokens: TokenArray,
}

/// Run Alg. 1 against the current call. Reverts (with a reason naming the
/// failed check) unless a valid token for `address(this)` is present.
pub fn verify_incoming(ctx: &mut CallContext<'_, '_>) -> Result<VerifyOutcome, VmError> {
    // ---- extractToken(T): split the token array out of msg.data ----
    ctx.begin_gas_section("parse");
    let data = ctx.msg_data_bytes();
    let split = split_tokens(&data);
    let (payload, tokens) = match split {
        Ok(parts) => parts,
        Err(e) => {
            ctx.end_gas_section();
            return ctx.revert(&format!("SMACS: token array malformed: {e}"));
        }
    };
    // Array scanning cost: free for the single-token fast path (the paper's
    // Table III reports no Parse cost for one token), per-entry above that.
    if tokens.len() > 1 {
        ctx.charge_compute(PARSE_PER_ENTRY_STEPS * tokens.len() as u64)?;
        ctx.charge(SCHEDULE.copy_cost(data.len()))?;
    }
    let payload = payload.to_vec();
    let this = ctx.this_address();
    let token = match tokens.token_for(this) {
        Some(tk) => *tk,
        None => {
            ctx.end_gas_section();
            return ctx.revert("SMACS: no token for this contract");
        }
    };
    ctx.end_gas_section();

    // ---- the verification proper ----
    ctx.begin_gas_section("verify");
    let result = verify_token_inner(ctx, &token, &payload);
    ctx.end_gas_section();
    result?;

    // ---- one-time bookkeeping (only after the signature verified) ----
    if token.is_one_time() {
        ctx.begin_gas_section("bitmap");
        let verdict = StorageBitmap::try_use(ctx, token.index as u128);
        ctx.end_gas_section();
        match verdict? {
            v if v.is_accepted() => {}
            _ => return ctx.revert("SMACS: one-time token already used or missed"),
        }
    }

    Ok(VerifyOutcome {
        token,
        payload,
        tokens,
    })
}

fn verify_token_inner(
    ctx: &mut CallContext<'_, '_>,
    token: &Token,
    payload: &[u8],
) -> Result<(), VmError> {
    // Solidity-level overhead the paper's prototype pays for token
    // extraction and abi.encodePacked reconstruction (see crate::costs).
    ctx.charge_compute(VERIFY_BASE_STEPS)?;

    // if now() > tk.expire → reject.
    if token.is_expired(ctx.now()) {
        return ctx.revert("SMACS: token expired");
    }

    // Reconstruct `data` from the transaction context.
    match token.ttype {
        TokenType::Super => {}
        TokenType::Method => ctx.charge_compute(METHOD_EXTRA_STEPS)?,
        TokenType::Argument => {
            ctx.charge_compute(METHOD_EXTRA_STEPS)?;
            ctx.charge_compute(ARG_PER_PAYLOAD_BYTE_STEPS * payload.len() as u64)?;
        }
    }
    let signing_payload = token_signing_payload(
        token,
        ctx.tx_origin(),
        ctx.this_address(),
        ctx.msg_data(),
        payload,
    );
    let digest = ctx.keccak(&signing_payload)?;

    // SigVerify_pkTS: ecrecover + compare against the stored TS address.
    // The address is read first so that `ecrecover` can be told whom to
    // expect: a known pk_TS is then checked without recovering it. The
    // result and both charges, all inside the `verify` section, are the
    // same in either order.
    let stored = layout::word_to_address(ctx.sload(layout::ts_address_slot())?);
    let recovered = ctx.ecrecover(digest, &token.signature, Some(stored))?;
    match recovered {
        Some(addr) if addr == stored && !stored.is_zero() => Ok(()),
        _ => ctx.revert("SMACS: invalid token signature"),
    }
}

/// Alg. 1's `data` for `token` in a call from `origin` to `this` whose
/// calldata is `msg_data` (`payload` is `msg_data` without the token
/// array): `tk.type ‖ tkData ‖ addrData`, then `msg.sig` for method tokens
/// and `msg.sig ‖ msg.data` for argument tokens, where an argument
/// token's `msg.sig` is its payload's first four bytes, as at issuance.
/// Pure, so the shield's recovery hint and the on-chain check derive the
/// digest identically.
pub(crate) fn token_signing_payload(
    token: &Token,
    origin: Address,
    this: Address,
    msg_data: &[u8],
    payload: &[u8],
) -> Vec<u8> {
    let binding = match token.ttype {
        TokenType::Super => Binding::Super,
        TokenType::Method => Binding::Method(Selector::from_calldata(msg_data).unwrap_or_default()),
        TokenType::Argument => Binding::Argument(payload),
    };
    let context = binding.context(origin, this);
    smacs_token::signing_payload(token.ttype, token.expire, token.index, &context)
}

/// Forward a call to the next SMACS-enabled contract on a call chain
/// (§IV-D): re-attach the *current* transaction's token array to
/// `payload` and issue the nested message call. The callee extracts its own
/// token from the same array.
pub fn forward_call(
    ctx: &mut CallContext<'_, '_>,
    to: Address,
    value: u128,
    payload: &[u8],
) -> Result<Bytes, VmError> {
    let data = ctx.msg_data_bytes();
    let (_, tokens) =
        split_tokens(&data).map_err(|e| VmError::Revert(format!("SMACS: forward: {e}")))?;
    ctx.charge(SCHEDULE.copy_cost(payload.len() + tokens.len() * smacs_token::array::ENTRY_SIZE))?;
    let nested = smacs_token::append_tokens(payload, &tokens);
    ctx.call(to, value, nested)
}
