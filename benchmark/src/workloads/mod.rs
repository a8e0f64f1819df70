//! The five workloads. Each stresses a different set of layers; the README
//! records why each exists and which layer metric should move it.

use crate::driver::Lane;
use crate::world::Env;

pub mod batch_rules_churn;
pub mod block_replay;
pub mod chain_call;
pub mod method_token_http;
pub mod onetime_quorum;

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    method_token_http::MethodTokenHttp::NAME,
    onetime_quorum::OnetimeQuorum::NAME,
    chain_call::ChainCall::NAME,
    block_replay::BlockReplay::NAME,
    batch_rules_churn::BatchRulesChurn::NAME,
];

/// A world under load: set up from a seed, driven through its lanes,
/// audited, shut down.
pub trait Workload: Sized {
    type Lane: Lane;

    const NAME: &'static str;
    /// Open-loop arrivals per second (requests, batches or blocks). An
    /// absolute constant at ≤ 30 % of the closed-loop goodput measured when
    /// the benchmark was defined, so a faster or slower host stays below
    /// the queueing knee.
    const OPEN_RATE: f64;
    /// Ops of the single-lane traced pass.
    const TRACE_OPS: u64;
    /// Ops of the warm-up that ends set-up, all lanes together.
    const WARMUP_OPS: u64;

    /// Build the world and bring the servers up; the caller warms it up.
    fn setup(seed: u64, env: &Env) -> Self;

    fn lanes(&mut self) -> &mut [Self::Lane];

    /// The correctness checks that need more than one op's outcome, with
    /// `sample` issued tokens verified by `ecrecover`. Runs after the
    /// rounds, outside every timed window. `Ok` carries a one-line summary
    /// of what was checked.
    fn audit(&mut self, seed: u64, sample: usize) -> Result<String, String>;

    /// Stop every server and join every thread.
    fn shutdown(self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_primitives::json::ToJson;

    /// Every request the TS workloads would send first, and the block
    /// sequence's first transactions, as bytes.
    fn input_bytes(seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let issue = method_token_http::inputs(seed, 2);
        for order in &issue.orders {
            for &index in order.iter().take(64) {
                bytes.extend(issue.requests[index as usize].to_json().render().bytes());
            }
        }
        let batches = batch_rules_churn::inputs(seed, 2);
        for lane in &batches.batches {
            for batch in lane.iter().take(2) {
                bytes.extend(batch.denied.to_be_bytes());
                for request in &batch.requests {
                    bytes.extend(request.to_json().render().bytes());
                }
            }
        }
        let blocks = block_replay::BlockWorld::build(seed, 2);
        for (tx, signature) in blocks.blocks.iter().flatten() {
            bytes.extend(tx.signing_digest().0);
            bytes.extend(signature.to_bytes());
        }
        bytes
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_request_sequence() {
        let first = input_bytes(41);
        assert!(first.len() > 50_000);
        assert_eq!(first, input_bytes(41));
        assert_ne!(first, input_bytes(42));
    }

    #[test]
    fn batches_deny_exactly_one_request_in_eight() {
        let inputs = batch_rules_churn::inputs(5, 1);
        for batch in &inputs.batches[0] {
            assert_eq!(batch.requests.len(), batch_rules_churn::BATCH);
            assert_eq!(batch.denied.count_ones() as usize, batch_rules_churn::BATCH / 8);
            for (i, request) in batch.requests.iter().enumerate() {
                let denied = inputs.books[0].check(request).is_err();
                assert_eq!(denied, batch.denied >> i & 1 == 1);
                // The smaller book decides every request the same way.
                assert_eq!(denied, inputs.books[1].check(request).is_err());
            }
        }
    }
}
