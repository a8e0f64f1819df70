//! The validation module: pluggable runtime-verification tools.
//!
//! "Defensive logics with arbitrary complexity can be plugged into SMACS"
//! (§V). A [`ValidationTool`] inspects the call an argument token would
//! authorize — the sender and the exact calldata the token binds — by
//! simulating it on an isolated fork of the chain (the TS's "local
//! testnet"), and vetoes issuance when it detects a problem. Tools see
//! argument requests only: "the argument token type allows us to craft
//! more advanced ACRs" (§IV-E), and only an argument token fixes the call.
//! The concrete tools the paper evaluates (Hydra uniformity, the ECF
//! re-entrancy checker) live in the `smacs-verifiers` crate and implement
//! this trait.

use smacs_chain::Chain;
use smacs_primitives::Address;

/// A runtime-verification tool consulted before an argument token is
/// issued.
pub trait ValidationTool: Send + Sync {
    /// Tool name for diagnostics and rejection messages.
    fn name(&self) -> &'static str;

    /// Inspect the call `sender` would make with `calldata` (selector and
    /// ABI-encoded arguments), simulating on `testnet` (a private fork —
    /// mutations are invisible to the real chain). Return `Err(reason)` to
    /// veto.
    fn validate(&self, sender: Address, calldata: &[u8], testnet: &mut Chain)
        -> Result<(), String>;
}
