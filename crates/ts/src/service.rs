//! The access-granting module: request checking and token issuance.
//!
//! §IV-B(a): "To apply for a token, a client sends a token request
//! specifying the intended type together with a compatible reqPayload …
//! When receiving the token request, the TS parses and checks it against
//! the rules. Once verified, a token is issued according to the request"
//! — by signing `type ‖ expire ‖ index ‖ reqPayload` with `sk_TS`.

use parking_lot::Mutex;
use smacs_chain::abi::{self, AbiType, AbiValue};
use smacs_chain::Chain;
use smacs_crypto::{Keypair, Signature};
use smacs_primitives::{hexutil, Address, WorkerPool, H256};
use smacs_token::{signing_digest, ArgBinding, Binding, Token, TokenRequest, TokenType, NO_INDEX};
use std::fmt;
use std::mem;
use std::sync::Arc;

use crate::replica::CounterCluster;
use crate::rules::{RuleBook, RuleViolation};
use crate::validation::ValidationTool;

/// Why issuance failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IssueError {
    /// The request itself was malformed (Tab. I field matrix).
    InvalidRequest(String),
    /// An ACR rejected the request.
    RuleViolation(RuleViolation),
    /// A validation tool vetoed the request.
    ToolRejected {
        /// The vetoing tool.
        tool: &'static str,
        /// Its reason.
        reason: String,
    },
    /// The replicated counter lost quorum (§VII-B availability).
    CounterUnavailable,
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
            IssueError::RuleViolation(v) => write!(f, "rule violation: {v}"),
            IssueError::ToolRejected { tool, reason } => {
                write!(f, "validation tool {tool} rejected: {reason}")
            }
            IssueError::CounterUnavailable => write!(f, "one-time counter unavailable"),
        }
    }
}

impl std::error::Error for IssueError {}

/// TS configuration.
#[derive(Clone, Debug)]
pub struct TokenServiceConfig {
    /// Lifetime granted to issued tokens, in seconds.
    pub token_lifetime_secs: u64,
}

impl Default for TokenServiceConfig {
    fn default() -> Self {
        // The paper's Table IV analysis assumes 1-hour one-time tokens.
        TokenServiceConfig {
            token_lifetime_secs: 3_600,
        }
    }
}

/// A Token Service instance for one (or more) SMACS-enabled contracts.
pub struct TokenService {
    sk_ts: Keypair,
    /// The current rule book. The lock is held only to clone or swap the
    /// inner `Arc`: a request (or a whole batch) checks against the book
    /// it cloned, and `set_rules` swaps in a whole new one. Every replica
    /// of a [`crate::cluster::ReplicaSet`] holds the same handle.
    rules: Arc<Mutex<Arc<RuleBook>>>,
    tools: Vec<Arc<dyn ValidationTool>>,
    testnet: Option<Chain>,
    /// Where one-time indexes come from: a one-node, memory-only cluster
    /// unless [`TokenService::with_replicated_counter`] replaced it.
    counter: CounterCluster,
    /// Pool for batch signing fan-out (shared process-wide by default).
    pool: Arc<WorkerPool>,
    config: TokenServiceConfig,
}

impl TokenService {
    /// A TS with the given signing key and initial rules; no validation
    /// tools, a one-node memory-only counter (indexes 0, 1, 2, …),
    /// process-shared worker pool.
    pub fn new(sk_ts: Keypair, rules: RuleBook, config: TokenServiceConfig) -> Self {
        TokenService {
            sk_ts,
            rules: Arc::new(Mutex::new(Arc::new(rules))),
            tools: Vec::new(),
            testnet: None,
            counter: CounterCluster::new(1),
            pool: WorkerPool::shared().clone(),
            config,
        }
    }

    /// Attach a local testnet fork for validation tools to simulate on
    /// ("TSes … simulate the runtime behavior of the smart contract in an
    /// isolated off-chain environment", §IV-E).
    pub fn with_testnet(mut self, fork: Chain) -> Self {
        self.testnet = Some(fork);
        self
    }

    /// Plug in a validation tool (§V).
    pub fn with_tool(mut self, tool: Arc<dyn ValidationTool>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Use a replicated counter for one-time indexes (§VII-B) in place of
    /// the one-node default.
    pub fn with_replicated_counter(mut self, cluster: CounterCluster) -> Self {
        self.counter = cluster;
        self
    }

    /// Check rules against a book shared with sibling replicas instead of
    /// a service-private one — what [`crate::cluster::ReplicaSet`] wires
    /// so one owner update reaches every replica.
    pub(crate) fn with_shared_rules(mut self, rules: Arc<Mutex<Arc<RuleBook>>>) -> Self {
        self.rules = rules;
        self
    }

    /// Fan batch signing across `pool` instead of the process-shared
    /// default — benches and tests use this to pin an exact parallelism
    /// degree. (An [`crate::http::Endpoint`] serves connections on its own
    /// pool, never on this one.)
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The address form of `pk_TS` — what shielded contracts store.
    pub fn ts_address(&self) -> Address {
        self.sk_ts.address()
    }

    /// Owner-side dynamic rule update ("these rules can be updated
    /// dynamically by the owner", §III-C). Swaps in the whole book at
    /// once; in-flight requests finish against the book they cloned. With
    /// a shared handle, the replacement reaches every replica holding it.
    pub fn set_rules(&self, rules: RuleBook) {
        let rules = Arc::new(rules);
        let replaced = mem::replace(&mut *self.rules.lock(), rules);
        drop(replaced); // after the lock is released
    }

    /// Owner-side targeted rule edit (read-copy-update). The current book
    /// is cloned and `edit` runs on the copy with the rule lock held, so
    /// concurrent edits are serialised and none is lost; issuers wait for
    /// the lock meanwhile, which makes this the one slow rule write.
    pub fn update_rules<F: FnOnce(&mut RuleBook)>(&self, edit: F) {
        let replaced = {
            let mut current = self.rules.lock();
            let mut next = RuleBook::clone(&current);
            edit(&mut next);
            mem::replace(&mut *current, Arc::new(next))
        };
        drop(replaced);
    }

    /// The current book, cloned out of the lock as an `Arc`.
    pub(crate) fn current_rules(&self) -> Arc<RuleBook> {
        self.rules.lock().clone()
    }

    /// Handle one token request at TS-local time `now`.
    pub fn issue(&self, req: &TokenRequest, now: u64) -> Result<Token, IssueError> {
        let minted = self.mint(&self.current_rules(), req, now)?;
        Ok(minted.token(self.sk_ts.sign_digest(&minted.digest)))
    }

    /// Everything `issue` does before the signature, judged by `rules`:
    /// parse the request, check the rules, run the tools, and compute the
    /// digest to sign.
    fn mint(&self, rules: &RuleBook, req: &TokenRequest, now: u64) -> Result<Minted, IssueError> {
        // 1. Parse (Tab. I): what the token binds.
        let binding = req
            .binding()
            .map_err(|e| IssueError::InvalidRequest(e.to_string()))?;

        // 2. ACR compliance, against a book no lock guards. An argument
        //    token's argument policies judge the calldata it binds.
        let not_configured = RuleViolation::TypeNotConfigured(req.ttype);
        let rules = rules
            .types
            .get(&req.ttype)
            .ok_or(IssueError::RuleViolation(not_configured))?;
        let args = match (binding, req.method.as_deref()) {
            (Binding::Argument(calldata), Some(method)) if !rules.argument.is_empty() => {
                bind_args(method, calldata, &req.args).map_err(IssueError::InvalidRequest)?
            }
            _ => Vec::new(),
        };
        rules.check(req, &args).map_err(IssueError::RuleViolation)?;

        // 3. Validation tools simulate an argument token's call on the
        //    local testnet.
        if let Binding::Argument(calldata) = binding {
            for tool in &self.tools {
                let rejected = |reason| IssueError::ToolRejected {
                    tool: tool.name(),
                    reason,
                };
                let Some(testnet) = &self.testnet else {
                    return Err(rejected("no testnet attached".into()));
                };
                tool.validate(req.sender, calldata, &mut testnet.fork())
                    .map_err(rejected)?;
            }
        }

        // 4. The digest to sign: expiry from lifetime, index from the
        //    counter when the one-time property is requested. The expiry
        //    saturates at the wire's u32 rather than wrapping into a token
        //    born expired.
        let expire = now
            .saturating_add(self.config.token_lifetime_secs)
            .min(u32::MAX.into()) as u32;
        let index = if req.one_time {
            let next = self.counter.next_index();
            next.ok_or(IssueError::CounterUnavailable)? as i128
        } else {
            NO_INDEX
        };
        let ctx = binding.context(req.sender, req.contract);
        Ok(Minted {
            ttype: req.ttype,
            expire,
            index,
            digest: signing_digest(req.ttype, expire, index, &ctx),
        })
    }

    /// The fewest requests a chunk of a batch gets: a chunk costs a pool
    /// hand-off, and its signatures share one inversion pair.
    const PARALLEL_BATCH_MIN: usize = 8;

    /// Handle a batch of token requests at TS-local time `now`, returning
    /// per-request outcomes in order (partial-failure semantics: one
    /// denial never poisons its neighbours). This is the server half of
    /// the v2 `issue_batch` op — per-request transport, parsing, and
    /// dispatch overhead is paid once per batch.
    ///
    /// The batch is cut by [`WorkerPool::map_chunks`] into at most one
    /// chunk per pool thread, each of at least `PARALLEL_BATCH_MIN`
    /// requests (a smaller batch is one chunk, run on the calling thread).
    /// Each chunk mints its requests in order and signs the minted digests
    /// with one [`Keypair::sign_digests`] call, so its signatures share one
    /// field and one scalar inversion; the tokens are byte-identical to
    /// [`TokenService::issue`]'s.
    ///
    /// One rule book, cloned once, judges the whole batch. Results keep
    /// request order regardless of which worker signed what. One-time
    /// indexes stay unique (the counter serializes allocation); they rise
    /// in request order within a chunk, but their order across chunks is
    /// unspecified.
    pub fn issue_batch(
        &self,
        requests: &[TokenRequest],
        now: u64,
    ) -> Vec<Result<Token, IssueError>> {
        let rules = self.current_rules();
        self.pool
            .map_chunks(requests, Self::PARALLEL_BATCH_MIN, |chunk| {
                let minted: Vec<_> = chunk
                    .iter()
                    .map(|req| self.mint(&rules, req, now))
                    .collect();
                let digests: Vec<H256> = minted.iter().flatten().map(|m| m.digest).collect();
                let mut signatures = self.sk_ts.sign_digests(&digests).into_iter();
                minted
                    .into_iter()
                    .map(|m| Ok(m?.token(signatures.next().expect("one per digest"))))
                    .collect()
            })
    }
}

/// A granted request: its token's fields and the digest `sk_TS` signs.
struct Minted {
    ttype: TokenType,
    expire: u32,
    index: i128,
    digest: H256,
}

impl Minted {
    fn token(&self, signature: Signature) -> Token {
        Token {
            ttype: self.ttype,
            expire: self.expire,
            index: self.index,
            signature,
        }
    }
}

/// The bindings `arg0, arg1, …` of `calldata` (which begins with a
/// selector): its arguments decoded with the parameter types `method`
/// names, rendered as clients declare them (a uint in decimal, an address
/// as `0x…` hex, `true`/`false`, bytes as `0x…` hex, a string verbatim).
/// The `declared` args, if any, must be exactly these.
fn bind_args(
    method: &str,
    calldata: &[u8],
    declared: &[ArgBinding],
) -> Result<Vec<ArgBinding>, String> {
    let unreadable = || "cannot read the method's parameter types".to_string();
    let params = method
        .split_once('(')
        .and_then(|(_, rest)| rest.strip_suffix(')'))
        .ok_or_else(unreadable)?;
    let types = params
        .split(',')
        .filter(|_| !params.is_empty())
        .map(|name| match name {
            "uint256" => Ok(AbiType::Uint),
            "address" => Ok(AbiType::Address),
            "bool" => Ok(AbiType::Bool),
            "bytes" => Ok(AbiType::Bytes),
            "string" => Ok(AbiType::String),
            _ => Err(unreadable()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let values = abi::decode(&calldata[4..], &types)
        .map_err(|e| format!("calldata does not decode: {e}"))?;
    let args: Vec<ArgBinding> = values
        .into_iter()
        .enumerate()
        .map(|(i, value)| ArgBinding {
            name: format!("arg{i}"),
            value: match value {
                AbiValue::Uint(v) => v.to_dec_string(),
                AbiValue::Address(a) => a.to_hex(),
                AbiValue::Bool(b) => b.to_string(),
                AbiValue::Bytes(b) => hexutil::encode_prefixed(&b),
                AbiValue::String(s) => s,
            },
        })
        .collect();
    if !declared.is_empty() && declared != args {
        return Err("declared args differ from the calldata's".into());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ListPolicy;
    use smacs_token::PayloadContext;

    fn service() -> TokenService {
        TokenService::new(
            Keypair::from_seed(1000),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
    }

    fn contract() -> Address {
        Address::from_low_u64(0xC0)
    }

    fn sender() -> Address {
        Address::from_low_u64(0x5E)
    }

    #[test]
    fn issues_tokens_with_lifetime_expiry() {
        let ts = service();
        let req = TokenRequest::super_token(contract(), sender());
        let tk = ts.issue(&req, 1_000_000).unwrap();
        assert_eq!(tk.ttype, TokenType::Super);
        assert_eq!(tk.expire, 1_003_600);
        assert_eq!(tk.index, NO_INDEX);
    }

    #[test]
    fn expiry_saturates_instead_of_wrapping() {
        let req = TokenRequest::super_token(contract(), sender());
        let tk = service().issue(&req, u64::from(u32::MAX) - 10).unwrap();
        assert_eq!(tk.expire, u32::MAX);
        let forever = TokenService::new(
            Keypair::from_seed(1000),
            RuleBook::permissive(),
            TokenServiceConfig {
                token_lifetime_secs: u64::MAX,
            },
        );
        assert_eq!(forever.issue(&req, 1_000).unwrap().expire, u32::MAX);
    }

    #[test]
    fn one_time_indexes_are_consecutive() {
        // "counter is initialized to 0, whenever a new one-time token is
        // being issued, it is incremented by 1" (§IV-C).
        let ts = service();
        let req = TokenRequest::super_token(contract(), sender()).one_time();
        let indexes: Vec<i128> = (0..5).map(|_| ts.issue(&req, 0).unwrap().index).collect();
        assert_eq!(indexes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn signature_verifies_against_ts_address() {
        let ts = service();
        let req = TokenRequest::method_token(contract(), sender(), "f(uint256)");
        let tk = ts.issue(&req, 500).unwrap();
        let ctx = PayloadContext {
            sender: sender(),
            contract: contract(),
            selector: Some(abi::selector("f(uint256)")),
            calldata: None,
        };
        let digest = signing_digest(tk.ttype, tk.expire, tk.index, &ctx);
        assert_eq!(
            smacs_crypto::recover_address(&digest, &tk.signature),
            Some(ts.ts_address())
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        let ts = service();
        let mut req = TokenRequest::method_token(contract(), sender(), "f()");
        req.method = None;
        assert!(matches!(
            ts.issue(&req, 0),
            Err(IssueError::InvalidRequest(_))
        ));
    }

    #[test]
    fn rules_are_enforced_and_dynamically_updatable() {
        let ts = service();
        // Lock supers down to a whitelist excluding our sender.
        ts.update_rules(|book| {
            book.rules_mut(TokenType::Super).sender = Some(ListPolicy::deny_all());
        });
        let req = TokenRequest::super_token(contract(), sender());
        assert!(matches!(
            ts.issue(&req, 0),
            Err(IssueError::RuleViolation(RuleViolation::SenderRejected(_)))
        ));
        // Owner whitelists the sender at runtime — no contract change.
        ts.update_rules(|book| {
            if let Some(policy) = &mut book.rules_mut(TokenType::Super).sender {
                policy.insert(sender().to_hex());
            }
        });
        assert!(ts.issue(&req, 0).is_ok());
    }

    #[test]
    fn argument_policies_judge_the_decoded_calldata() {
        let sig = "f(uint256,address,bool,bytes,string)";
        let calldata = abi::encode_call(
            sig,
            &[
                AbiValue::Uint(smacs_primitives::U256::from_u64(7)),
                AbiValue::Address(contract()),
                AbiValue::Bool(true),
                AbiValue::Bytes(vec![0xab, 0x01]),
                AbiValue::String("hé".into()),
            ],
        );
        let request = |args: &[(&str, &str)]| {
            let args = args.iter().map(|&(name, value)| ArgBinding {
                name: name.into(),
                value: value.into(),
            });
            TokenRequest::argument_token(
                contract(),
                sender(),
                sig,
                args.collect(),
                calldata.clone(),
            )
        };
        let hex = contract().to_hex();
        let decoded = [
            ("arg0", "7"),
            ("arg1", hex.as_str()),
            ("arg2", "true"),
            ("arg3", "0xab01"),
            ("arg4", "hé"),
        ];
        let named = |args: &[(&str, &str)]| request(args).args;
        assert_eq!(bind_args(sig, &calldata, &[]), Ok(named(&decoded)));

        // Without an argument policy nothing is decoded.
        let ts = service();
        assert!(ts.issue(&request(&[("arg0", "8")]), 0).is_ok());

        let blacklist = |name: &str, value: &str| {
            ts.update_rules(|book| {
                let policy = ListPolicy::Blacklist([value.to_string()].into());
                book.rules_mut(TokenType::Argument)
                    .argument
                    .insert(name.into(), policy);
            })
        };
        let invalid =
            |req: TokenRequest| matches!(ts.issue(&req, 0), Err(IssueError::InvalidRequest(_)));
        blacklist("arg0", "8");
        assert!(ts.issue(&request(&[]), 0).is_ok());
        assert!(ts.issue(&request(&decoded), 0).is_ok());
        // Declared args that are not the calldata's are refused.
        assert!(invalid(request(&[("arg0", "8")])));
        assert!(invalid(request(&decoded[..4])));
        // So are calldata that does not decode and unreadable types.
        let mut short = request(&[]);
        short.calldata = Some(calldata[..100].to_vec());
        assert!(invalid(short));
        for method in ["f(uint8)", "f(uint256", "f", "f(uint256,)"] {
            let selector = abi::selector(method).0;
            let unreadable = TokenRequest::argument_token(
                contract(),
                sender(),
                method,
                vec![],
                [&selector[..], &calldata[4..]].concat(),
            );
            assert!(invalid(unreadable), "{method}");
        }
        let no_params = abi::encode_call("g()", &[]);
        let no_params =
            TokenRequest::argument_token(contract(), sender(), "g()", vec![], no_params);
        assert!(ts.issue(&no_params, 0).is_ok());

        // The policy finds the value in the calldata, declared or not.
        blacklist("arg4", "hé");
        let rejected = Err(IssueError::RuleViolation(RuleViolation::ArgumentRejected {
            name: "arg4".into(),
            value: "hé".into(),
        }));
        assert_eq!(ts.issue(&request(&[]), 0).map(|_| ()), rejected);
        assert_eq!(ts.issue(&request(&decoded), 0).map(|_| ()), rejected);
    }

    #[test]
    fn tools_veto_argument_tokens() {
        struct VetoTool;
        impl ValidationTool for VetoTool {
            fn name(&self) -> &'static str {
                "veto"
            }
            fn validate(&self, _: Address, _: &[u8], _: &mut Chain) -> Result<(), String> {
                Err("simulated attack detected".into())
            }
        }
        let ts = service()
            .with_testnet(Chain::default_chain().fork())
            .with_tool(Arc::new(VetoTool));
        // Super and method tokens unaffected (tools judge argument tokens
        // only).
        assert!(ts
            .issue(&TokenRequest::super_token(contract(), sender()), 0)
            .is_ok());
        assert!(ts
            .issue(&TokenRequest::method_token(contract(), sender(), "f()"), 0)
            .is_ok());
        // Argument tokens vetoed.
        let calldata = abi::encode_call("f()", &[]);
        let req = TokenRequest::argument_token(contract(), sender(), "f()", vec![], calldata);
        assert!(matches!(
            ts.issue(&req, 0),
            Err(IssueError::ToolRejected { tool: "veto", .. })
        ));
    }

    #[test]
    fn tool_without_testnet_fails_closed() {
        struct NeedsNet;
        impl ValidationTool for NeedsNet {
            fn name(&self) -> &'static str {
                "needs-net"
            }
            fn validate(&self, _: Address, _: &[u8], _: &mut Chain) -> Result<(), String> {
                Ok(())
            }
        }
        let ts = service().with_tool(Arc::new(NeedsNet));
        let calldata = abi::encode_call("f()", &[]);
        let req = TokenRequest::argument_token(contract(), sender(), "f()", vec![], calldata);
        assert!(matches!(
            ts.issue(&req, 0),
            Err(IssueError::ToolRejected { .. })
        ));
    }

    #[test]
    fn parallel_batch_preserves_order_and_partial_failure() {
        let ts = service().with_pool(WorkerPool::new(4, 64));
        let requests: Vec<TokenRequest> = (0..32)
            .map(|i| {
                let mut req = TokenRequest::method_token(
                    contract(),
                    Address::from_low_u64(100 + i),
                    "f(uint256)",
                );
                if i % 3 == 0 {
                    req.method = None; // malformed: must fail in place
                }
                req
            })
            .collect();
        let results = ts.issue_batch(&requests, 7_000);
        assert_eq!(results.len(), 32);
        for (i, result) in results.iter().enumerate() {
            if i % 3 == 0 {
                assert!(
                    matches!(result, Err(IssueError::InvalidRequest(_))),
                    "slot {i}: {result:?}"
                );
            } else {
                let token = result.as_ref().expect("valid request minted");
                assert_eq!(token.expire, 7_000 + 3_600);
                // The signature binds the *matching* request's payload —
                // parallel fan-out must not cross wires between slots.
                let ctx = PayloadContext {
                    sender: requests[i].sender,
                    contract: contract(),
                    selector: Some(abi::selector("f(uint256)")),
                    calldata: None,
                };
                let digest = signing_digest(token.ttype, token.expire, token.index, &ctx);
                assert_eq!(
                    smacs_crypto::recover_address(&digest, &token.signature),
                    Some(ts.ts_address()),
                    "slot {i} signed someone else's payload"
                );
            }
        }
    }

    /// Every chunking of every batch size gives `issue`'s answer per
    /// request: the same token bytes, or the same error.
    #[test]
    fn issue_batch_matches_issue_per_item() {
        let mut whitelist = ListPolicy::deny_all();
        let requests: Vec<TokenRequest> = (0..65)
            .map(|i| {
                let sender = Address::from_low_u64(100 + i);
                let mut req = TokenRequest::method_token(contract(), sender, "f(uint256)");
                if i % 3 == 0 {
                    req.method = None; // malformed
                }
                if i % 5 != 0 {
                    whitelist.insert(sender.to_hex()); // else denied
                }
                req
            })
            .collect();
        for threads in [1, 2, 4] {
            let ts = service().with_pool(WorkerPool::new(threads, 64));
            ts.update_rules(|book| {
                book.rules_mut(TokenType::Method).sender = Some(whitelist.clone())
            });
            let alone: Vec<_> = requests.iter().map(|req| ts.issue(req, 9_000)).collect();
            assert!(alone
                .iter()
                .any(|r| matches!(r, Err(IssueError::RuleViolation(_)))));
            for size in 1..=requests.len() {
                let batch = ts.issue_batch(&requests[..size], 9_000);
                assert_eq!(batch, alone[..size], "{threads} threads, size {size}");
            }
        }
    }

    #[test]
    fn parallel_batch_one_time_indexes_stay_unique() {
        let ts = service().with_pool(WorkerPool::new(4, 64));
        let requests: Vec<TokenRequest> = (0..64)
            .map(|i| TokenRequest::super_token(contract(), Address::from_low_u64(1 + i)).one_time())
            .collect();
        let results = ts.issue_batch(&requests, 0);
        let mut indexes: Vec<i128> = results
            .iter()
            .map(|r| r.as_ref().expect("minted").index)
            .collect();
        indexes.sort_unstable();
        indexes.dedup();
        assert_eq!(indexes.len(), 64, "one-time indexes must never repeat");
    }

    #[test]
    fn small_batches_stay_sequential_and_ordered() {
        // Below the parallel threshold the counter allocates in request
        // order — pin that so the fast path stays deterministic.
        let ts = service();
        let requests: Vec<TokenRequest> = (0..4)
            .map(|i| TokenRequest::super_token(contract(), Address::from_low_u64(1 + i)).one_time())
            .collect();
        let indexes: Vec<i128> = ts
            .issue_batch(&requests, 0)
            .iter()
            .map(|r| r.as_ref().unwrap().index)
            .collect();
        assert_eq!(indexes, vec![0, 1, 2, 3]);
    }

    /// Read-copy-update edits racing each other and an issuer: none is
    /// lost.
    #[test]
    fn concurrent_rule_edits_are_never_lost() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ts = service();
        ts.update_rules(|book| {
            book.rules_mut(TokenType::Super).sender = Some(ListPolicy::deny_all());
        });
        let whitelisted = |k: u64| Address::from_low_u64(1 + k).to_hex();
        let editing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let issuer = scope.spawn(|| {
                let req = TokenRequest::super_token(contract(), Address::from_low_u64(1));
                let mut attempts = 0;
                while editing.load(Ordering::SeqCst) {
                    let _ = ts.issue(&req, 0);
                    attempts += 1;
                }
                attempts
            });
            let editors: Vec<_> = (0..4u64)
                .map(|t| {
                    let ts = &ts;
                    scope.spawn(move || {
                        for k in t * 250..(t + 1) * 250 {
                            ts.update_rules(|book| {
                                if let Some(policy) = &mut book.rules_mut(TokenType::Super).sender {
                                    policy.insert(whitelisted(k));
                                }
                            });
                        }
                    })
                })
                .collect();
            for editor in editors {
                editor.join().unwrap();
            }
            editing.store(false, Ordering::SeqCst);
            assert!(issuer.join().unwrap() > 0);
        });
        let book = ts.current_rules();
        let expected = (0..1_000).map(whitelisted).collect();
        assert_eq!(
            book.types[&TokenType::Super].sender,
            Some(ListPolicy::Whitelist(expected))
        );
    }

    #[test]
    fn services_that_do_not_share_rules_never_see_each_others_updates() {
        let (a, b) = (service(), service());
        let req = TokenRequest::super_token(contract(), sender());
        for _ in 0..2 {
            a.set_rules(RuleBook::deny_all());
            b.set_rules(RuleBook::permissive());
            assert!(a.issue(&req, 0).is_err());
            assert!(b.issue(&req, 0).is_ok());
            b.set_rules(RuleBook::deny_all());
            a.set_rules(RuleBook::permissive());
            assert!(a.issue(&req, 0).is_ok());
            assert!(b.issue(&req, 0).is_err());
        }
        assert_eq!(*a.current_rules(), RuleBook::permissive());
        assert_eq!(*b.current_rules(), RuleBook::deny_all());
    }

    #[test]
    fn a_replaced_book_stays_as_it_was() {
        let ts = service();
        let before = ts.current_rules();
        ts.set_rules(RuleBook::deny_all());
        // The book a request cloned before the swap is unaffected.
        assert_eq!(*before, RuleBook::permissive());
        assert_eq!(*ts.current_rules(), RuleBook::deny_all());
    }
}
