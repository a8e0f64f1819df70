//! `method_token_http` — the Token Service hot path and nothing else:
//! reactor, HTTP, JSON, rule lookup, sign. One op is an `issue` of a method
//! token over HTTP v2 against one public endpoint whose rule book is a
//! 4,096-sender method whitelist. No chain, no quorum.

use super::Workload;
use crate::driver::Lane;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::world::{self, Env, Ts, TOKEN_LIFETIME, TS_NOW, WHITELIST};
use smacs_contracts::BenchTarget;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{HttpClient, TsApi};
use std::sync::Arc;

/// The contract the tokens are for; nothing is deployed in this workload.
const CONTRACT: u64 = 0xC0DE;

/// The whitelisted senders' requests, and the seeded order in which each
/// lane cycles through them.
pub struct Inputs {
    pub senders: Vec<Address>,
    pub requests: Arc<Vec<TokenRequest>>,
    pub orders: Vec<Vec<u32>>,
}

pub fn inputs(seed: u64, lanes: usize) -> Inputs {
    let senders: Vec<Address> = world::keypairs(seed, 1, WHITELIST)
        .iter()
        .map(|kp| kp.address())
        .collect();
    let contract = Address::from_low_u64(CONTRACT);
    let requests = senders
        .iter()
        .map(|&s| TokenRequest::method_token(contract, s, BenchTarget::PING_SIG))
        .collect();
    let mut order: Vec<u32> = (0..WHITELIST as u32).collect();
    Rng::new(seed, &[0x0DE5]).shuffle(&mut order);
    let orders = (0..lanes)
        .map(|lane| order.iter().skip(lane).step_by(lanes).copied().collect())
        .collect();
    Inputs {
        senders,
        requests: Arc::new(requests),
        orders,
    }
}

pub struct IssueLane {
    client: HttpClient,
    requests: Arc<Vec<TokenRequest>>,
    order: Vec<u32>,
    cursor: usize,
    /// Every token issued, with the index of its request.
    pub log: Vec<(u32, Token)>,
}

impl Lane for IssueLane {
    fn op(&mut self, t: &mut Tracer) -> u32 {
        let index = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        t.begin("ts.http_issue");
        let issued = self.client.issue(&self.requests[index as usize]);
        t.end();
        match issued {
            Ok(token)
                if token.ttype == TokenType::Method
                    && token.expire as u64 == TS_NOW + TOKEN_LIFETIME
                    && !token.is_one_time() =>
            {
                self.log.push((index, token));
                1
            }
            _ => 0,
        }
    }
}

pub struct MethodTokenHttp {
    ts: Ts,
    requests: Arc<Vec<TokenRequest>>,
    lanes: Vec<IssueLane>,
}

impl Workload for MethodTokenHttp {
    type Lane = IssueLane;
    const NAME: &'static str = "method_token_http";
    const OPEN_RATE: f64 = 400.0;
    const TRACE_OPS: u64 = 2_000;
    const WARMUP_OPS: u64 = 2_000;

    fn setup(seed: u64, env: &Env) -> Self {
        let inputs = inputs(seed, env.lanes);
        let rules =
            world::method_whitelist(TokenType::Method, BenchTarget::PING_SIG, &inputs.senders);
        let ts = Ts::start(world::ts_keypair(seed), rules, TS_NOW);
        let lanes = inputs
            .orders
            .into_iter()
            .map(|order| IssueLane {
                client: HttpClient::connect(ts.endpoint.addr()),
                requests: inputs.requests.clone(),
                order,
                cursor: 0,
                log: Vec::with_capacity(1 << 18),
            })
            .collect();
        MethodTokenHttp {
            ts,
            requests: inputs.requests,
            lanes,
        }
    }

    fn lanes(&mut self) -> &mut [IssueLane] {
        &mut self.lanes
    }

    fn audit(&mut self, seed: u64, sample: usize) -> Result<String, String> {
        let issued: Vec<_> = self
            .lanes
            .iter()
            .flat_map(|lane| &lane.log)
            .map(|(index, token)| (&self.requests[*index as usize], token))
            .collect();
        let audited = world::audit_tokens(seed, self.ts.address, &issued, sample)?;
        Ok(format!(
            "{audited} of {} tokens recovered to the TS address",
            issued.len()
        ))
    }

    fn shutdown(self) {
        drop(self.lanes);
        self.ts.endpoint.shutdown();
    }
}
