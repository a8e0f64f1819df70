//! The validation module: pluggable runtime-verification tools.
//!
//! "Defensive logics with arbitrary complexity can be plugged into SMACS"
//! (§V). A [`ValidationTool`] inspects a token request — typically by
//! simulating the requested call on an isolated fork of the chain (the TS's
//! "local testnet") — and vetoes issuance when it detects a problem. The
//! concrete tools the paper evaluates (Hydra uniformity, the ECF
//! re-entrancy checker) live in the `smacs-verifiers` crate and implement
//! this trait.

use smacs_chain::Chain;
use smacs_token::{TokenRequest, TokenType};

/// A runtime-verification tool consulted before token issuance.
pub trait ValidationTool: Send + Sync {
    /// Tool name for diagnostics and rejection messages.
    fn name(&self) -> &'static str;

    /// Which token types this tool inspects. The paper's advanced rules
    /// ride on argument tokens ("the argument token type allows us to
    /// craft more advanced ACRs", §IV-E); that is the default.
    fn applies_to(&self, ttype: TokenType) -> bool {
        ttype == TokenType::Argument
    }

    /// Inspect `req`, simulating on `testnet` (a private fork — mutations
    /// are invisible to the real chain). Return `Err(reason)` to veto.
    fn validate(&self, req: &TokenRequest, testnet: &mut Chain) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct RejectEverything;
    impl ValidationTool for RejectEverything {
        fn name(&self) -> &'static str {
            "reject-everything"
        }
        fn validate(&self, _req: &TokenRequest, _testnet: &mut Chain) -> Result<(), String> {
            Err("nope".into())
        }
    }

    #[test]
    fn default_applicability_is_argument_only() {
        let tool = RejectEverything;
        assert!(tool.applies_to(TokenType::Argument));
        assert!(!tool.applies_to(TokenType::Super));
        assert!(!tool.applies_to(TokenType::Method));
    }
}
