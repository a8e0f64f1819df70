//! The signing payload: the byte string whose signature binds a token to
//! its usage context.
//!
//! At issuance the TS computes (paper §IV-A):
//!
//! ```text
//! signature = Sign_skTS( type ‖ expire ‖ index ‖ reqPayload )
//! ```
//!
//! and at verification the contract reconstructs the same bytes from its own
//! transaction context (Alg. 1):
//!
//! ```text
//! tkData   = tk.expire ‖ tk.index
//! addrData = T.origin ‖ address(this)
//! data     = tk.type ‖ tkData ‖ addrData
//! Method:   data ‖= msg.sig
//! Argument: data ‖= msg.sig ‖ msg.data
//! ```
//!
//! `sAddr` maps to `T.origin`, `cAddr` to `address(this)`, `methodId` to
//! `msg.sig`, and the argument list to `msg.data`. The "msg.data" bound by
//! an argument token is the *payload calldata* — the method selector plus
//! the ABI-encoded application arguments, **excluding** the appended token
//! array (the token cannot sign itself; see [`crate::array`] for the
//! embedding that makes the original calldata recoverable).
//!
//! Because both sides derive the identical byte string independently, "any
//! tiny change of the context (e.g., address, argument, etc.) will be caught
//! by the signature verification process" (§VII-A, substitution attack).

use smacs_chain::abi::Selector;
use smacs_crypto::keccak256;
use smacs_primitives::{Address, H256};

use crate::types::TokenType;

/// What a token binds beyond its sender and contract (Tab. I, Alg. 1):
/// nothing for a super token, `msg.sig` for a method token, and
/// `msg.sig ‖ msg.data` for an argument token, whose selector is its
/// calldata's first four bytes. The TS parses a request into one
/// ([`crate::TokenRequest::binding`]); the shield reads one off the call
/// it verifies. Both then sign or check the payload of
/// [`Binding::context`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding<'a> {
    /// A super token: any method, any arguments.
    Super,
    /// A method token: this selector, any arguments.
    Method(Selector),
    /// An argument token: exactly this payload calldata (selector and
    /// ABI-encoded arguments, without the token array).
    Argument(&'a [u8]),
}

impl Binding<'_> {
    /// The signing context of a token with this binding, used by `sender`
    /// against `contract`.
    pub fn context(&self, sender: Address, contract: Address) -> PayloadContext {
        let (selector, calldata) = match *self {
            Binding::Super => (None, None),
            Binding::Method(selector) => (Some(selector), None),
            Binding::Argument(calldata) => {
                (Selector::from_calldata(calldata), Some(calldata.to_vec()))
            }
        };
        PayloadContext {
            sender,
            contract,
            selector,
            calldata,
        }
    }
}

/// The context a signing payload binds: who may use the token, against
/// which contract, and (for method/argument tokens) how. Built by
/// [`Binding::context`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PayloadContext {
    /// The client account (`sAddr` at issuance; `tx.origin` at
    /// verification).
    pub sender: Address,
    /// The protected contract (`cAddr` at issuance; `address(this)` at
    /// verification).
    pub contract: Address,
    /// The bound method selector (`methodId` / `msg.sig`) — present for
    /// method and argument tokens.
    pub selector: Option<Selector>,
    /// The bound payload calldata (`msg.data` minus the token array) —
    /// present for argument tokens.
    pub calldata: Option<Vec<u8>>,
}

/// Build the canonical signing payload for a token.
///
/// Layout: `type (1) ‖ expire (4, BE) ‖ index (16, BE two's complement) ‖
/// sender (20) ‖ contract (20) [‖ selector (4)] [‖ calldata]`.
///
/// The selector is appended for [`TokenType::Method`] and
/// [`TokenType::Argument`]; the calldata only for [`TokenType::Argument`].
/// Fields irrelevant to the type are ignored even if present in `ctx`, so a
/// token can never be "upgraded" by replaying it against a different method.
pub fn signing_payload(
    ttype: TokenType,
    expire: u32,
    index: i128,
    ctx: &PayloadContext,
) -> Vec<u8> {
    let mut data =
        Vec::with_capacity(1 + 4 + 16 + 20 + 20 + 4 + ctx.calldata.as_ref().map_or(0, |c| c.len()));
    data.push(ttype.code());
    data.extend_from_slice(&expire.to_be_bytes());
    data.extend_from_slice(&index.to_be_bytes());
    data.extend_from_slice(ctx.sender.as_bytes());
    data.extend_from_slice(ctx.contract.as_bytes());
    match ttype {
        TokenType::Super => {}
        TokenType::Method => {
            let sel = ctx.selector.unwrap_or_default();
            data.extend_from_slice(&sel.0);
        }
        TokenType::Argument => {
            let sel = ctx.selector.unwrap_or_default();
            data.extend_from_slice(&sel.0);
            if let Some(calldata) = &ctx.calldata {
                data.extend_from_slice(calldata);
            }
        }
    }
    data
}

/// keccak256 of [`signing_payload`] — the digest the TS signs and the
/// contract verifies.
pub fn signing_digest(ttype: TokenType, expire: u32, index: i128, ctx: &PayloadContext) -> H256 {
    keccak256(&signing_payload(ttype, expire, index, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_chain::abi::selector;

    fn ctx() -> PayloadContext {
        PayloadContext {
            sender: Address::from_low_u64(0xAA),
            contract: Address::from_low_u64(0xBB),
            selector: Some(selector("withdraw(uint256)")),
            calldata: Some(vec![1, 2, 3, 4, 5]),
        }
    }

    #[test]
    fn binding_contexts_carry_what_their_type_signs() {
        let (sender, contract) = (Address::from_low_u64(0xAA), Address::from_low_u64(0xBB));
        let context = |binding: Binding| binding.context(sender, contract);
        let bare = PayloadContext {
            sender,
            contract,
            selector: None,
            calldata: None,
        };
        assert_eq!(context(Binding::Super), bare);
        let withdraw = selector("withdraw(uint256)");
        assert_eq!(
            context(Binding::Method(withdraw)),
            PayloadContext {
                selector: Some(withdraw),
                ..bare.clone()
            }
        );
        let calldata = [&withdraw.0[..], &[7; 32]].concat();
        assert_eq!(
            context(Binding::Argument(&calldata)),
            PayloadContext {
                selector: Some(withdraw),
                calldata: Some(calldata.clone()),
                ..bare
            }
        );
    }

    #[test]
    fn super_payload_ignores_method_fields() {
        let with = signing_payload(TokenType::Super, 100, -1, &ctx());
        let without = signing_payload(
            TokenType::Super,
            100,
            -1,
            &PayloadContext {
                selector: None,
                calldata: None,
                ..ctx()
            },
        );
        assert_eq!(with, without);
        assert_eq!(with.len(), 1 + 4 + 16 + 20 + 20);
    }

    #[test]
    fn method_payload_appends_selector_only() {
        let payload = signing_payload(TokenType::Method, 100, -1, &ctx());
        assert_eq!(payload.len(), 61 + 4);
        assert_eq!(&payload[61..], &selector("withdraw(uint256)").0);
    }

    #[test]
    fn argument_payload_appends_selector_and_calldata() {
        let payload = signing_payload(TokenType::Argument, 100, -1, &ctx());
        assert_eq!(payload.len(), 61 + 4 + 5);
        assert_eq!(&payload[65..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_field_changes_the_digest() {
        let base = signing_digest(TokenType::Argument, 100, -1, &ctx());
        assert_ne!(base, signing_digest(TokenType::Method, 100, -1, &ctx()));
        assert_ne!(base, signing_digest(TokenType::Argument, 101, -1, &ctx()));
        assert_ne!(base, signing_digest(TokenType::Argument, 100, 0, &ctx()));
        assert_ne!(
            base,
            signing_digest(
                TokenType::Argument,
                100,
                -1,
                &PayloadContext {
                    sender: Address::from_low_u64(0xAC),
                    ..ctx()
                }
            )
        );
        assert_ne!(
            base,
            signing_digest(
                TokenType::Argument,
                100,
                -1,
                &PayloadContext {
                    contract: Address::from_low_u64(0xBC),
                    ..ctx()
                }
            )
        );
        assert_ne!(
            base,
            signing_digest(
                TokenType::Argument,
                100,
                -1,
                &PayloadContext {
                    selector: Some(selector("other()")),
                    ..ctx()
                }
            )
        );
        assert_ne!(
            base,
            signing_digest(
                TokenType::Argument,
                100,
                -1,
                &PayloadContext {
                    calldata: Some(vec![1, 2, 3, 4, 6]),
                    ..ctx()
                }
            )
        );
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(
            signing_digest(TokenType::Super, 5, -1, &ctx()),
            signing_digest(TokenType::Super, 5, -1, &ctx())
        );
    }
}
