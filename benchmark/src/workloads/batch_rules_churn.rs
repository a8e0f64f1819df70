//! `batch_rules_churn` — the same Token Service layers used differently:
//! large bodies, pool fan-out signing, denials, and rule *writes* beside
//! lock-free rule *reads*. One op is a 64-request `issue_batch` over HTTP
//! in which 1 request in 8 comes from a sender outside the whitelist and
//! must come back denied with no token; every 16th op of lane 0 first
//! replaces the 4,096-sender book through `set_rules`. A gain for small
//! single issues that costs batches or writers shows here. Latency is per
//! batch, goodput in token decisions.

use super::Workload;
use crate::driver::Lane;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::world::{self, Env, Ts, OWNER_SECRET, TOKEN_LIFETIME, TS_NOW, WHITELIST};
use smacs_contracts::BenchTarget;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{ErrorCode, HttpClient, RuleBook, TsApi};

pub const BATCH: usize = 64;
/// Denied requests per batch, at seeded positions.
const DENIED_PER_BATCH: usize = BATCH / 8;
/// Distinct batches each lane cycles through.
const BATCHES_PER_LANE: usize = 64;
/// Lane 0 replaces the rule book before every this-many-th op.
const CHURN_EVERY: usize = 16;
/// Whitelist entries present in one book and absent from the other; no
/// request comes from them, so a replacement never changes a decision.
const TOGGLED: usize = 64;
const CONTRACT: u64 = 0xC0DE;

pub struct Batch {
    pub requests: Vec<TokenRequest>,
    /// Bit `i` set: request `i` comes from outside the whitelist.
    pub denied: u64,
}

/// The rule books and each lane's batches.
pub struct Inputs {
    /// The full whitelist, and the same without its last [`TOGGLED`] entries.
    pub books: [RuleBook; 2],
    pub batches: Vec<Vec<Batch>>,
}

pub fn inputs(seed: u64, lanes: usize) -> Inputs {
    let accounts = world::keypairs(seed, 1, WHITELIST + WHITELIST / 8);
    let addresses: Vec<Address> = accounts.iter().map(|kp| kp.address()).collect();
    let (listed, outsiders) = addresses.split_at(WHITELIST);
    let requesters = &listed[..WHITELIST - TOGGLED];
    let book = |senders| world::method_whitelist(TokenType::Method, BenchTarget::PING_SIG, senders);
    let contract = Address::from_low_u64(CONTRACT);
    let batches = (0..lanes)
        .map(|lane| {
            let mut rng = Rng::new(seed, &[0xBA7C, lane as u64]);
            (0..BATCHES_PER_LANE)
                .map(|_| {
                    let mut positions: Vec<usize> = (0..BATCH).collect();
                    rng.shuffle(&mut positions);
                    let denied = positions[..DENIED_PER_BATCH]
                        .iter()
                        .fold(0u64, |mask, p| mask | 1 << p);
                    let requests = (0..BATCH)
                        .map(|i| {
                            let pool = if denied >> i & 1 == 1 {
                                outsiders
                            } else {
                                requesters
                            };
                            let sender = pool[rng.below(pool.len() as u64) as usize];
                            TokenRequest::method_token(contract, sender, BenchTarget::PING_SIG)
                        })
                        .collect();
                    Batch { requests, denied }
                })
                .collect()
        })
        .collect();
    Inputs {
        books: [book(listed), book(requesters)],
        batches,
    }
}

pub struct BatchLane {
    client: HttpClient,
    batches: Vec<Batch>,
    /// The books lane 0 alternates between; `None` on the other lanes.
    churn: Option<[RuleBook; 2]>,
    cursor: usize,
    pub rule_writes: u64,
    /// Every token granted: (batch, position, token).
    pub log: Vec<(u16, u8, Token)>,
}

impl Lane for BatchLane {
    fn op(&mut self, t: &mut Tracer) -> u32 {
        let turn = self.cursor;
        self.cursor += 1;
        if let Some(books) = &self.churn {
            if turn % CHURN_EVERY == CHURN_EVERY - 1 {
                let book = books[(turn / CHURN_EVERY + 1) % 2].clone();
                t.begin("ts.http_set_rules");
                let replaced = self.client.set_rules(OWNER_SECRET, book);
                t.end();
                if replaced.is_err() {
                    return 0;
                }
                self.rule_writes += 1;
            }
        }
        let index = turn % self.batches.len();
        let batch = &self.batches[index];
        t.begin("ts.http_issue_batch");
        let answered = self.client.issue_batch(&batch.requests);
        t.end();
        let Ok(results) = answered else {
            return 0;
        };
        if results.len() != BATCH {
            return 0;
        }
        let logged = self.log.len();
        for (i, result) in results.into_iter().enumerate() {
            let must_deny = batch.denied >> i & 1 == 1;
            match result {
                Ok(token)
                    if !must_deny
                        && token.ttype == TokenType::Method
                        && token.expire as u64 == TS_NOW + TOKEN_LIFETIME =>
                {
                    self.log.push((index as u16, i as u8, token));
                }
                // A denial decodes to an error item, which by construction
                // carries no token (`BatchItem::into_result`).
                Err(e) if must_deny && e.code == ErrorCode::RuleViolation => {}
                _ => {
                    self.log.truncate(logged);
                    return 0;
                }
            }
        }
        BATCH as u32
    }
}

pub struct BatchRulesChurn {
    ts: Ts,
    lanes: Vec<BatchLane>,
}

impl Workload for BatchRulesChurn {
    type Lane = BatchLane;
    const NAME: &'static str = "batch_rules_churn";
    /// Batches per second.
    const OPEN_RATE: f64 = 20.0;
    const TRACE_OPS: u64 = 200;
    const WARMUP_OPS: u64 = 64;

    fn setup(seed: u64, env: &Env) -> Self {
        let inputs = inputs(seed, env.lanes);
        let ts = Ts::start(world::ts_keypair(seed), inputs.books[0].clone(), TS_NOW);
        let mut churn = Some(inputs.books);
        let lanes = inputs
            .batches
            .into_iter()
            .map(|batches| BatchLane {
                client: HttpClient::connect(ts.endpoint.addr()),
                batches,
                churn: churn.take(),
                cursor: 0,
                rule_writes: 0,
                log: Vec::with_capacity(1 << 18),
            })
            .collect();
        BatchRulesChurn { ts, lanes }
    }

    fn lanes(&mut self) -> &mut [BatchLane] {
        &mut self.lanes
    }

    fn audit(&mut self, seed: u64, sample: usize) -> Result<String, String> {
        let issued: Vec<_> = self
            .lanes
            .iter()
            .flat_map(|lane| {
                lane.log.iter().map(|(batch, position, token)| {
                    (&lane.batches[*batch as usize].requests[*position as usize], token)
                })
            })
            .collect();
        let audited = world::audit_tokens(seed, self.ts.address, &issued, sample)?;
        let rule_writes: u64 = self.lanes.iter().map(|lane| lane.rule_writes).sum();
        Ok(format!(
            "{} grants, all to whitelisted senders, and every outsider denied without a token; {rule_writes} rule-book replacements; {audited} tokens recovered to the TS address",
            issued.len()
        ))
    }

    fn shutdown(self) {
        drop(self.lanes);
        self.ts.endpoint.shutdown();
    }
}
