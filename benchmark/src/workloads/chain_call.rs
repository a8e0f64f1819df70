//! `chain_call` — the paper's client path, end to end. One op fetches a
//! fresh argument token over HTTP, builds and signs a transaction carrying
//! it, submits it to the lane's chain and requires a `Success` receipt.
//! Argument tokens bind the calldata, so no client-side cache can answer:
//! the TS layers and the chain layers each do about half the work.
//!
//! A `Chain` is single-owner (`&mut self`), so every lane submits to its own
//! fork of the post-set-up chain; the Token Service is the one they share.
//! Two lanes behind one benchmark-side mutex fell into a convoy that read
//! 1.07 ms or 1.36 ms `closed_p50_us` in consecutive sweeps of one binary.

use super::Workload;
use crate::driver::Lane;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::world::{self, Env, Ts, WHITELIST};
use smacs_chain::{Chain, Transaction};
use smacs_contracts::BenchTarget;
use smacs_core::{build_call_data, OwnerToolkit, ShieldParams};
use smacs_crypto::Keypair;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::front::FrontEnd;
use smacs_ts::{HttpClient, TsApi};
use std::sync::Arc;

/// Wallets each lane cycles through; a wallet belongs to one lane, so its
/// nonce sequence never interleaves.
const WALLETS_PER_LANE: usize = 8;
/// Transactions per sealed block.
const BLOCK_TXS: u64 = 128;
/// Wei every wallet starts with.
pub const FUNDING: u128 = 10u128.pow(24);

/// The shield parameters of the paper's gas experiments: 1-hour tokens,
/// 0.35 tx/s (a 1,260-bit one-time bitmap).
pub fn gas_experiment_params() -> ShieldParams {
    ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    }
}

/// A chain with a funded owner and a shielded [`BenchTarget`] trusting the
/// TS key of `seed`.
fn shielded_target(seed: u64) -> (Chain, Address) {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(Rng::new(seed, &[0x0E4]).next_u64(), FUNDING);
    let toolkit = OwnerToolkit::new(owner, world::ts_keypair(seed));
    let (target, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(BenchTarget), &gas_experiment_params())
        .expect("deploy the shielded target");
    (chain, target.address)
}

pub struct CallLane {
    client: HttpClient,
    chain: Chain,
    /// Transactions this lane's chain has taken.
    submitted: u64,
    front: Arc<FrontEnd>,
    target: Address,
    wallets: Vec<(Keypair, u64)>,
    rng: Rng,
    cursor: usize,
    pub log: Vec<(TokenRequest, Token)>,
}

impl Lane for CallLane {
    fn op(&mut self, t: &mut Tracer) -> u32 {
        let slot = self.cursor % self.wallets.len();
        self.cursor += 1;
        let (keypair, nonce) = &mut self.wallets[slot];
        let payload = BenchTarget::ping_payload(self.rng.below(1 << 32), self.rng.below(1 << 32));
        let request = TokenRequest::argument_token(
            self.target,
            keypair.address(),
            BenchTarget::PING_SIG,
            Vec::new(),
            payload.clone(),
        );
        t.begin("ts.http_issue");
        let issued = self.client.issue(&request);
        t.end();
        let Ok(token) = issued else {
            return 0;
        };
        t.begin("core.build_call_data");
        let data = build_call_data(&payload, self.target, token);
        t.end();
        t.begin("chain.tx_sign");
        let signed = Transaction::call(*nonce, self.target, 0, data).sign(keypair);
        t.end();
        t.begin("chain.submit");
        let receipt = self.chain.submit(signed);
        t.end();
        self.submitted += 1;
        if self.submitted % BLOCK_TXS == 0 {
            // Sealing moves the chain clock 13 s on; the TS clock follows the
            // furthest chain, as wall time would, or tokens would be born
            // expired after 277 blocks.
            self.chain.seal_block();
            let now = self.chain.pending_env().timestamp;
            if self.front.time() < now {
                self.front.set_time(now);
            }
        }
        match receipt {
            Ok(receipt) if receipt.status.is_success() => {
                *nonce += 1;
                self.log.push((request, token));
                1
            }
            Ok(_) => {
                *nonce += 1; // a revert still consumes the nonce
                0
            }
            Err(_) => 0,
        }
    }
}

pub struct ChainCall {
    ts: Ts,
    lanes: Vec<CallLane>,
}

impl Workload for ChainCall {
    type Lane = CallLane;
    const NAME: &'static str = "chain_call";
    const OPEN_RATE: f64 = 200.0;
    const TRACE_OPS: u64 = 1_000;
    const WARMUP_OPS: u64 = 600;

    fn setup(seed: u64, env: &Env) -> Self {
        let (mut chain, target) = shielded_target(seed);
        // The whitelist's first accounts are the wallets that call.
        let accounts = world::keypairs(seed, 1, WHITELIST);
        let senders: Vec<Address> = accounts.iter().map(|kp| kp.address()).collect();
        let rules = world::method_whitelist(TokenType::Argument, BenchTarget::PING_SIG, &senders);
        let ts = Ts::start(
            world::ts_keypair(seed),
            rules,
            chain.pending_env().timestamp,
        );
        let mut wallets = accounts.into_iter();
        let mut lane_wallets = Vec::new();
        for _ in 0..env.lanes {
            let own: Vec<(Keypair, u64)> = wallets
                .by_ref()
                .take(WALLETS_PER_LANE)
                .map(|kp| {
                    chain.fund_account(kp.address(), FUNDING);
                    (kp, 0)
                })
                .collect();
            lane_wallets.push(own);
        }
        let lanes = lane_wallets
            .into_iter()
            .enumerate()
            .map(|(lane, wallets)| CallLane {
                client: HttpClient::connect(ts.endpoint.addr()),
                chain: chain.fork(),
                submitted: 0,
                front: ts.front.clone(),
                target,
                wallets,
                rng: Rng::new(seed, &[0xCA11, lane as u64]),
                cursor: 0,
                log: Vec::with_capacity(1 << 16),
            })
            .collect();
        ChainCall { ts, lanes }
    }

    fn lanes(&mut self) -> &mut [CallLane] {
        &mut self.lanes
    }

    fn audit(&mut self, seed: u64, sample: usize) -> Result<String, String> {
        let issued: Vec<_> = self
            .lanes
            .iter()
            .flat_map(|lane| &lane.log)
            .map(|(request, token)| (request, token))
            .collect();
        let audited = world::audit_tokens(seed, self.ts.address, &issued, sample)?;
        Ok(format!(
            "{} calls all returned Success receipts; {audited} of their tokens recovered to the TS address",
            issued.len()
        ))
    }

    fn shutdown(self) {
        drop(self.lanes);
        self.ts.endpoint.shutdown();
    }
}
