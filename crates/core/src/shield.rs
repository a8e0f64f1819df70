//! The SMACS shield: wrap any contract so that *every* externally callable
//! method verifies a token before its body executes.
//!
//! This is the runtime counterpart of the paper's Fig. 4 source
//! transformation: where the Solidity tool adds a `token` argument and an
//! `assert(verify(token))` prologue to each public/external method, the
//! shield interposes on the message-call boundary. Internal behaviour is
//! untouched — a wrapped contract's own nested logic (the `_h()` split in
//! Fig. 4) is plain Rust control flow and never re-verifies, exactly as the
//! transformed contract's `internal` methods don't.

use smacs_chain::{CallContext, Contract, VmError};
use smacs_crypto::{keccak256, Signature};
use smacs_primitives::{Address, Bytes, H256};
use smacs_token::split_tokens;
use std::sync::Arc;

use crate::layout;
use crate::storage_bitmap::StorageBitmap;
use crate::verify::{token_signing_payload, verify_incoming};

/// A SMACS-enabled contract: token verification in front of `inner`.
pub struct SmacsShield {
    inner: Arc<dyn Contract>,
    ts_address: Address,
    bitmap_bits: u64,
}

impl SmacsShield {
    /// Shield `inner`, trusting tokens signed by the key behind
    /// `ts_address` (the address form of `pk_TS`). `bitmap_bits` sizes the
    /// one-time bitmap (§IV-C: `token_lifetime × max_tx_per_second`); pass
    /// 0 to disable one-time tokens entirely.
    pub fn new(inner: Arc<dyn Contract>, ts_address: Address, bitmap_bits: u64) -> Self {
        SmacsShield {
            inner,
            ts_address,
            bitmap_bits,
        }
    }

    /// The wrapped logic.
    pub fn inner(&self) -> &Arc<dyn Contract> {
        &self.inner
    }

    /// The trusted TS address.
    pub fn ts_address(&self) -> Address {
        self.ts_address
    }
}

impl Contract for SmacsShield {
    fn name(&self) -> &'static str {
        // The shield is transparent in diagnostics: it reports the inner
        // contract's name with no marker, as the paper's transformed
        // contracts keep their names.
        self.inner.name()
    }

    fn code_len(&self) -> usize {
        // The paper stresses that SMACS keeps contracts simple: the only
        // code overhead is parsing + one signature verification. Model it
        // as a fixed increment over the legacy contract's code size.
        self.inner.code_len() + 1_536
    }

    fn constructor(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        // Preload pk_TS (§III-C) …
        ctx.sstore(
            layout::ts_address_slot(),
            layout::address_to_word(self.ts_address),
        )?;
        // … allocate the one-time bitmap (Table IV's one-time deployment
        // cost) …
        if self.bitmap_bits > 0 {
            StorageBitmap::init(ctx, self.bitmap_bits)?;
        }
        // … then run the wrapped contract's own constructor.
        self.inner.constructor(ctx)
    }

    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        // assert(verify(token)) before every method body (Fig. 4).
        verify_incoming(ctx)?;
        self.inner.execute(ctx)
    }

    fn fallback(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        // Plain value transfers carry no selector and no token array; the
        // paper's transformation protects public *methods*. Delegate so
        // deposits keep working; a contract wanting stricter policy can
        // reject in its own fallback.
        self.inner.fallback(ctx)
    }

    fn recover_hints(
        &self,
        origin: Address,
        this: Address,
        calldata: &[u8],
    ) -> Vec<(H256, Signature, Option<Address>)> {
        // Alg. 1's one recovery: the TS signature on this contract's token,
        // over the digest `verify_incoming` will rebuild, expecting pk_TS.
        let Ok((payload, tokens)) = split_tokens(calldata) else {
            return Vec::new();
        };
        let Some(token) = tokens.token_for(this) else {
            return Vec::new();
        };
        let data = token_signing_payload(token, origin, this, calldata, payload);
        vec![(keccak256(&data), token.signature, Some(self.ts_address))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Contract for Nop {
        fn name(&self) -> &'static str {
            "Nop"
        }
        fn code_len(&self) -> usize {
            2_000
        }
        fn execute(&self, _ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
            Ok(Bytes::new())
        }
    }

    #[test]
    fn shield_reports_inner_identity_with_code_overhead() {
        let shield = SmacsShield::new(Arc::new(Nop), Address::from_low_u64(1), 0);
        assert_eq!(shield.name(), "Nop");
        assert_eq!(shield.code_len(), 2_000 + 1_536);
        assert_eq!(shield.ts_address(), Address::from_low_u64(1));
    }

    /// The hint must be the exact pair Alg. 1 recovers; if it drifted, the
    /// parallel block prepass would silently recover the wrong digest and
    /// every shield check would fall back to a serial recovery.
    #[test]
    fn recover_hint_is_the_pair_alg1_recovers() {
        use crate::client::build_call_data;
        use smacs_chain::{abi, AbiValue};
        use smacs_crypto::{recover_address, Keypair};
        use smacs_primitives::U256;
        use smacs_token::TokenRequest;
        use smacs_ts::{RuleBook, TokenService, TokenServiceConfig};

        let ts = TokenService::new(
            Keypair::from_seed(7),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let contract = Address::from_low_u64(0xC0);
        let sender = Address::from_low_u64(0x5E);
        let shield = SmacsShield::new(Arc::new(Nop), ts.ts_address(), 0);
        let method = "f(uint256)";
        let payload = abi::encode_call(method, &[AbiValue::Uint(U256::from_u64(7))]);
        let requests = [
            TokenRequest::super_token(contract, sender),
            TokenRequest::method_token(contract, sender, method),
            TokenRequest::argument_token(contract, sender, method, Vec::new(), payload.clone()),
            TokenRequest::method_token(contract, sender, method).one_time(),
        ];
        for request in &requests {
            let token = ts.issue(request, 1_000).expect("permissive rules");
            let calldata = build_call_data(&payload, contract, token);
            let hints = shield.recover_hints(sender, contract, &calldata);
            assert_eq!(hints.len(), 1, "{request:?}");
            let (digest, signature, expected) = hints[0];
            assert_eq!(signature, token.signature);
            assert_eq!(expected, Some(ts.ts_address()));
            assert_eq!(
                recover_address(&digest, &signature),
                Some(ts.ts_address()),
                "{request:?}"
            );
            // The digest binds `tx.origin`: another sender's hint misses.
            let (foreign, _, _) = shield.recover_hints(contract, contract, &calldata)[0];
            assert_ne!(recover_address(&foreign, &signature), Some(ts.ts_address()));

            // No token array, or only a token for another contract: no hint.
            assert!(shield.recover_hints(sender, contract, &payload).is_empty());
            let elsewhere = build_call_data(&payload, Address::from_low_u64(0xC1), token);
            assert!(shield
                .recover_hints(sender, contract, &elsewhere)
                .is_empty());
        }
    }
}
