//! Hydra uniformity (§V-A): N-of-N-version programming as an ACR.
//!
//! "This rule dictates that an argument token is issued only when the
//! outputs of all heads are identical when called with the payload
//! specified in the token request. In contrast to Hydra, heads in SMACS
//! are run by a TS on its local testnet … does not consume on-chain
//! resources, and therefore it is possible to implement more heads in our
//! case without introducing additional on-chain cost."

use smacs_chain::Chain;
use smacs_primitives::{Address, Bytes};
use smacs_ts::ValidationTool;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Result of one uniformity evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HydraVerdict {
    /// All heads produced the identical output.
    Uniform(Bytes),
    /// Output divergence between two heads.
    Divergent {
        /// Index of the first head in the configured list.
        head_a: usize,
        /// Index of the disagreeing head.
        head_b: usize,
    },
    /// A head's execution failed outright.
    HeadFailed {
        /// Index of the failing head.
        head: usize,
        /// The failure.
        reason: String,
    },
}

impl fmt::Display for HydraVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HydraVerdict::Uniform(_) => write!(f, "all heads uniform"),
            HydraVerdict::Divergent { head_a, head_b } => {
                write!(f, "heads {head_a} and {head_b} diverge")
            }
            HydraVerdict::HeadFailed { head, reason } => {
                write!(f, "head {head} failed: {reason}")
            }
        }
    }
}

/// The Hydra uniformity tool: the testnet hosts N head deployments of the
/// protected logic; requests are simulated against every head.
pub struct HydraTool {
    heads: Vec<Address>,
    simulations: AtomicUsize,
}

impl HydraTool {
    /// A tool over the given head deployments (at least two are needed for
    /// the comparison to mean anything).
    ///
    /// # Panics
    /// Panics if fewer than two heads are supplied.
    pub fn new(heads: Vec<Address>) -> Self {
        assert!(heads.len() >= 2, "hydra needs at least two heads");
        HydraTool {
            heads,
            simulations: AtomicUsize::new(0),
        }
    }

    /// Head simulations (`dry_run`s) run so far: one per head per
    /// evaluation that reaches it.
    pub fn simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Run the uniformity evaluation for `calldata` from `sender`. Each
    /// head is one dry run on `testnet`, which reverts every write before
    /// the next head runs, so every head starts from the same state — the
    /// heads are independent program instances with independent state, as
    /// in the Hydra framework (one simulation per head is also why the
    /// paper's Hydra-backed TS is an order of magnitude slower per request
    /// than the single-simulation ECF tool).
    pub fn evaluate(&self, testnet: &mut Chain, sender: Address, calldata: &[u8]) -> HydraVerdict {
        let calldata = Bytes::from(calldata.to_vec());
        let mut outputs: Vec<Bytes> = Vec::with_capacity(self.heads.len());
        for (i, &head) in self.heads.iter().enumerate() {
            self.simulations.fetch_add(1, Ordering::Relaxed);
            let (result, _gas, _trace, _) = testnet.dry_run(sender, head, 0, calldata.clone());
            match result {
                Ok(output) => outputs.push(output),
                Err(e) => {
                    return HydraVerdict::HeadFailed {
                        head: i,
                        reason: e.to_string(),
                    }
                }
            }
        }
        for i in 1..outputs.len() {
            if outputs[i] != outputs[0] {
                return HydraVerdict::Divergent {
                    head_a: 0,
                    head_b: i,
                };
            }
        }
        HydraVerdict::Uniform(outputs.into_iter().next().unwrap_or_default())
    }
}

impl ValidationTool for HydraTool {
    fn name(&self) -> &'static str {
        "hydra-uniformity"
    }

    fn validate(
        &self,
        sender: Address,
        calldata: &[u8],
        testnet: &mut Chain,
    ) -> Result<(), String> {
        match self.evaluate(testnet, sender, calldata) {
            HydraVerdict::Uniform(_) => Ok(()),
            verdict => Err(format!("hydra: {verdict}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_contracts::{AdderHead, BuggyAdderHead, HydraStyle};
    use std::sync::Arc;

    /// Deploy three honest heads (the paper implements its contract "in
    /// three different programming languages"; ours differ structurally)
    /// plus, optionally, a buggy fourth.
    fn testnet_with_heads(include_buggy: bool) -> (Chain, Vec<Address>, Address) {
        let mut chain = Chain::default_chain();
        let owner = chain.funded_keypair(1, 10u128.pow(20));
        let mut heads = Vec::new();
        for style in [
            HydraStyle::Direct,
            HydraStyle::ShiftAdd,
            HydraStyle::TwosComplement,
        ] {
            let (d, _) = chain
                .deploy(&owner, Arc::new(AdderHead::new(style)))
                .unwrap();
            heads.push(d.address);
        }
        if include_buggy {
            let (d, _) = chain.deploy(&owner, Arc::new(BuggyAdderHead)).unwrap();
            heads.push(d.address);
        }
        let sender = owner.address();
        (chain, heads, sender)
    }

    #[test]
    fn uniform_inputs_pass() {
        let (mut chain, heads, sender) = testnet_with_heads(false);
        let tool = HydraTool::new(heads);
        for x in [0u64, 1, 7, 1_000_000] {
            let verdict = tool.evaluate(&mut chain, sender, &AdderHead::add_payload(x));
            assert!(
                matches!(verdict, HydraVerdict::Uniform(_)),
                "x={x}: {verdict}"
            );
        }
    }

    #[test]
    fn buggy_head_divergence_detected_exactly_on_trigger() {
        let (mut chain, heads, sender) = testnet_with_heads(true);
        let tool = HydraTool::new(heads);
        // Benign input: even the buggy head agrees.
        let verdict = tool.evaluate(&mut chain, sender, &AdderHead::add_payload(7));
        assert!(matches!(verdict, HydraVerdict::Uniform(_)));
        // Trigger input: divergence.
        let verdict = tool.evaluate(
            &mut chain,
            sender,
            &AdderHead::add_payload(BuggyAdderHead::TRIGGER),
        );
        assert!(
            matches!(verdict, HydraVerdict::Divergent { head_b: 3, .. }),
            "{verdict}"
        );
    }

    #[test]
    fn head_failure_is_reported() {
        let (mut chain, heads, sender) = testnet_with_heads(false);
        let tool = HydraTool::new(heads);
        // Unknown method: every head reverts; the first failure is
        // surfaced.
        let verdict = tool.evaluate(
            &mut chain,
            sender,
            &smacs_chain::abi::encode_call("nosuch()", &[]),
        );
        assert!(matches!(verdict, HydraVerdict::HeadFailed { head: 0, .. }));
    }

    #[test]
    fn as_validation_tool_vetoes_divergent_requests() {
        let (chain, heads, sender) = testnet_with_heads(true);
        let tool = HydraTool::new(heads);
        let mut fork = chain.fork();
        assert!(tool
            .validate(sender, &AdderHead::add_payload(5), &mut fork)
            .is_ok());
        let mut fork = chain.fork();
        let trigger = AdderHead::add_payload(BuggyAdderHead::TRIGGER);
        let err = tool.validate(sender, &trigger, &mut fork).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least two heads")]
    fn single_head_is_rejected() {
        HydraTool::new(vec![Address::from_low_u64(1)]);
    }
}
