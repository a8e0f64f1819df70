//! Builders the workloads share: seeded accounts, rule books, a Token
//! Service behind a real listener, and the post-run token audit.

use crate::host::Affinity;
use crate::rng::Rng;
use smacs_crypto::{recover_address, Keypair};
use smacs_primitives::Address;
use smacs_token::{signing_digest, PayloadContext, Token, TokenRequest, TokenType};
use smacs_ts::front::{EndpointScope, FrontEnd};
use smacs_ts::{
    Endpoint, HttpServerConfig, ListPolicy, RuleBook, TokenService, TokenServiceConfig, TypeRules,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The TS-local clock of the workloads that run no chain.
pub const TS_NOW: u64 = 1_700_000_000;
/// Lifetime the TS grants (its default), so lanes can check `expire`.
pub const TOKEN_LIFETIME: u64 = 3_600;
/// The owner credential of every Token Service the benchmark starts.
pub const OWNER_SECRET: &str = "benchmark-owner";
/// Size of the sender whitelist the rule books carry.
pub const WHITELIST: usize = 4_096;
/// Tokens audited by `ecrecover` after the rounds, per TS workload and run.
pub const AUDIT_SAMPLE: usize = 1_000;

/// Where a run may write, and how wide the generator may be.
pub struct Env {
    /// Scratch directory inside the checkout, on a real filesystem.
    pub out_dir: PathBuf,
    /// Generator lanes: half the hardware threads.
    pub lanes: usize,
}

/// The Token Service's signing key for `seed`.
pub fn ts_keypair(seed: u64) -> Keypair {
    Keypair::from_seed(Rng::new(seed, &[0x7500]).next_u64())
}

/// `n` externally owned accounts for `(seed, tag)`. Deriving a real key per
/// account is the deterministic single-threaded preparation that makes
/// set-up a measurable quantity rather than a few milliseconds of noise.
pub fn keypairs(seed: u64, tag: u64, n: usize) -> Vec<Keypair> {
    let mut rng = Rng::new(seed, &[0xACC7, tag]);
    (0..n).map(|_| Keypair::from_seed(rng.next_u64())).collect()
}

/// A rule book admitting `ttype` requests for `method` from `senders` only
/// (Fig. 6: a per-method whitelist under an open type-level policy).
pub fn method_whitelist(ttype: TokenType, method: &str, senders: &[Address]) -> RuleBook {
    let mut list = ListPolicy::deny_all();
    for sender in senders {
        list.insert(sender.to_hex());
    }
    let mut rules = TypeRules::permissive();
    rules.method.insert(method.into(), list);
    let mut book = RuleBook::deny_all();
    book.types.insert(ttype, rules);
    book
}

/// One Token Service behind one public listener.
pub struct Ts {
    pub front: Arc<FrontEnd>,
    pub endpoint: Endpoint,
    pub address: Address,
}

impl Ts {
    /// Start the service and its listener, on the program's CPUs.
    pub fn start(signer: Keypair, rules: RuleBook, now: u64) -> Ts {
        let _cpus = Affinity::program();
        let address = signer.address();
        let service = TokenService::new(signer, rules, TokenServiceConfig::default());
        let front = Arc::new(FrontEnd::new(service, OWNER_SECRET, now));
        let endpoint = Endpoint::bind(
            front.clone(),
            EndpointScope::Public,
            HttpServerConfig::default(),
        )
        .expect("bind a loopback listener");
        Ts {
            front,
            endpoint,
            address,
        }
    }
}

/// The address that signed `token` for `request`, as the shield would
/// recover it.
pub fn token_signer(request: &TokenRequest, token: &Token) -> Option<Address> {
    let ctx = PayloadContext {
        sender: request.sender,
        contract: request.contract,
        selector: request.selector(),
        calldata: match request.ttype {
            TokenType::Argument => request.calldata.clone(),
            _ => None,
        },
    };
    recover_address(
        &signing_digest(token.ttype, token.expire, token.index, &ctx),
        &token.signature,
    )
}

/// Audit a seeded sample of `sample` of the `issued` tokens (or all of
/// them): each token must `ecrecover` to the TS address and carry the type
/// its request asked for.
pub fn audit_tokens<'a>(
    seed: u64,
    ts_address: Address,
    issued: &[(&'a TokenRequest, &'a Token)],
    sample: usize,
) -> Result<usize, String> {
    if issued.is_empty() {
        return Err("no token was issued".into());
    }
    let mut rng = Rng::new(seed, &[0xA0D1]);
    let sample = sample.min(issued.len());
    for k in 0..sample {
        // All of a short log; a seeded draw from a long one.
        let (request, token) = if sample == issued.len() {
            issued[k]
        } else {
            issued[rng.below(issued.len() as u64) as usize]
        };
        if token.ttype != request.ttype || token.is_one_time() != request.one_time {
            return Err(format!("token shape differs from its request: {token:?}"));
        }
        if token_signer(request, token) != Some(ts_address) {
            return Err(format!("token does not recover to the TS: {token:?}"));
        }
    }
    Ok(sample)
}
