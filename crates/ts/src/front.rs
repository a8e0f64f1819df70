//! The front end: the TS's web interface and its in-process [`TsApi`].
//!
//! Owners and clients "interact with the TS through an HTTPS-enabled web
//! interface" (§IV). [`FrontEnd`] is that interface over one
//! [`TokenService`]: it implements [`TsApi`] directly (what co-located
//! callers, examples and experiments use), and
//! [`FrontEnd::handle_json_scoped`] serves the same ops as protocol-v2
//! envelopes, `{"v": 2, "op": …, "body": …}` — the full grammar lives in
//! [`crate::api`].
//!
//! The server dispatch is one `match` on the op name. Each arm decodes its
//! body, calls the [`TsApi`] method on the front end (or, for the
//! `counter_*` family, the attached [`CounterNode`]), and writes the success
//! body into the response envelope. The `counter_*` arms sit behind a scope
//! guard: an [`EndpointScope::Public`] endpoint refuses them with
//! `counter_unavailable` before their body is decoded.
//!
//! Every byte it answers is a v2 response envelope: a body that is not
//! JSON gets `bad_envelope`, and an object without `v` (the removed,
//! unversioned v1 shape) gets `unsupported_version`.

use parking_lot::RwLock;
use smacs_crypto::keccak256;
use smacs_primitives::json::{FromJson, Json, JsonError, ObjectWriter, ToJson};
use smacs_primitives::{Address, H256};
use smacs_token::{Token, TokenRequest};

use crate::api::{
    ApiError, BatchItem, BatchRequestBody, BatchResponseBody, CounterCommitBody, CounterStateBody,
    CounterVoteBody, DiscoverBody, DiscoverResponseBody, ErrorCode, IssueBody, PongBody,
    RequestEnvelope, RulesSetBody, SetRulesBody, TokenHex, TsApi, MAX_BATCH, PROTOCOL_VERSION,
};
use crate::discovery::ContractMetadata;
use crate::replica::{CounterNode, Reply, Vote};
use crate::rules::RuleBook;
use crate::service::TokenService;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which op families a network endpoint dispatches.
///
/// The `counter_*` vote ops are replica-internal: a hostile client that
/// could reach them would burn or skip arbitrary one-time index ranges
/// and subvert the quorum. Only the dedicated vote endpoint serves them;
/// the client-facing endpoint refuses them with `counter_unavailable`
/// even when the front end has a counter node attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EndpointScope {
    /// Client-facing endpoint: the `counter_*` ops are refused.
    #[default]
    Public,
    /// Replica-internal vote endpoint: full dispatch, `counter_*`
    /// included.
    Vote,
}

/// The front end: a service, the digest of its owner secret, the TS-local
/// clock, and the discovery metadata this TS publishes.
pub struct FrontEnd {
    service: TokenService,
    /// `keccak256` of the owner secret; `set_rules` compares digests, never
    /// the secret itself.
    owner_digest: H256,
    /// TS-local clock (seconds); tests and experiments drive it manually.
    now: AtomicU64,
    directory: RwLock<HashMap<Address, ContractMetadata>>,
    /// This replica's counter node, when it participates in a wire-level
    /// counter quorum: the `counter_*` ops vote against it — but only
    /// through a [`EndpointScope::Vote`] dispatch; the public endpoint
    /// never reaches it. `None` (the single-service case) answers those
    /// ops `counter_unavailable` everywhere.
    counter: Option<Arc<CounterNode>>,
}

impl FrontEnd {
    /// Wrap a service.
    pub fn new(service: TokenService, owner_secret: impl Into<String>, now: u64) -> Self {
        FrontEnd {
            service,
            owner_digest: keccak256(owner_secret.into().as_bytes()),
            now: AtomicU64::new(now),
            directory: RwLock::new(HashMap::new()),
            counter: None,
        }
    }

    /// Attach the replica's counter node so this front end answers the
    /// `counter_*` vote ops (builder form; used by `ReplicaSet`).
    pub fn with_counter(mut self, node: Arc<CounterNode>) -> Self {
        self.counter = Some(node);
        self
    }

    /// The wrapped service (owner-side escape hatch: attach tools, edit
    /// rules without the secret, read diagnostics).
    pub fn service(&self) -> &TokenService {
        &self.service
    }

    /// Advance the TS-local clock.
    pub fn advance_time(&self, secs: u64) {
        self.now.fetch_add(secs, Ordering::SeqCst);
    }

    /// Set the TS-local clock (experiments time-travel; production feeds
    /// wall time).
    pub fn set_time(&self, now: u64) {
        self.now.store(now, Ordering::SeqCst);
    }

    /// The TS-local clock.
    pub fn time(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Publish discovery metadata for a contract this TS protects; served
    /// by the `discover` op.
    pub fn publish(&self, contract: Address, metadata: ContractMetadata) {
        self.directory.write().insert(contract, metadata);
    }

    /// Whether `secret` is the owner's. Fixed-size digests are compared
    /// with an XOR fold, so how long the check takes says nothing about
    /// how much of `secret` was right.
    fn is_owner(&self, secret: &str) -> bool {
        let given = keccak256(secret.as_bytes());
        let diff = given
            .0
            .iter()
            .zip(&self.owner_digest.0)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        diff == 0
    }

    /// The local counter node's answer to `vote`: `counter_unavailable`
    /// when this front end isn't part of a counter quorum, or its node is
    /// down.
    fn vote(&self, vote: Vote) -> Result<Reply, ApiError> {
        let node = self.counter.as_ref().ok_or_else(|| {
            ApiError::new(
                ErrorCode::CounterUnavailable,
                "no counter node at this endpoint",
            )
        })?;
        node.handle(vote).ok_or_else(|| {
            ApiError::new(ErrorCode::CounterUnavailable, "counter node not answering")
        })
    }

    /// Handle one raw JSON request body with [`EndpointScope::Public`]
    /// dispatch — the safe default for anything a client can reach.
    pub fn handle_json(&self, body: &str) -> String {
        self.handle_json_scoped(body, EndpointScope::Public)
    }

    /// Handle one raw JSON request body and answer a v2 response
    /// envelope. `scope` selects which op families this endpoint serves —
    /// only [`EndpointScope::Vote`] (the replica-internal vote endpoint)
    /// dispatches the `counter_*` family.
    pub fn handle_json_scoped(&self, body: &str, scope: EndpointScope) -> String {
        self.dispatch(body, scope)
            .unwrap_or_else(|e| envelope(None, Some(&e)))
    }

    /// Open the envelope, run its op, and write the success envelope.
    fn dispatch(&self, text: &str, scope: EndpointScope) -> Result<String, ApiError> {
        let (op, body) = open_envelope(text)?;
        match &*op {
            "issue" => {
                let token = self.issue(&decode(body)?)?;
                ok(&IssueBody {
                    token_hex: encode_token_hex(&token),
                })
            }
            "issue_batch" => {
                let batch: BatchRequestBody = decode(body)?;
                let results = self.issue_batch(&batch.requests)?;
                ok(&BatchResponseBody {
                    results: results.iter().map(BatchItem::from_result).collect(),
                })
            }
            "set_rules" => {
                let SetRulesBody {
                    owner_secret,
                    rules,
                } = decode(body)?;
                self.set_rules(&owner_secret, rules)?;
                ok(&RulesSetBody {})
            }
            "discover" => {
                let DiscoverBody { contract } = decode(body)?;
                ok(&DiscoverResponseBody {
                    metadata: self.discover(contract)?,
                })
            }
            "ping" => {
                self.ping()?;
                ok(&PongBody { pong: true })
            }
            "counter_prepare" | "counter_commit" if scope == EndpointScope::Public => {
                Err(ApiError::new(
                    ErrorCode::CounterUnavailable,
                    "counter votes are replica-internal: not served on this endpoint",
                ))
            }
            "counter_prepare" => ok(&CounterStateBody {
                committed: self.vote(Vote::Prepare)?.committed,
            }),
            "counter_commit" => {
                let CounterCommitBody { value } = decode(body)?;
                let vote = self.vote(Vote::Commit(value))?;
                ok(&CounterVoteBody {
                    accepted: vote.accepted,
                    committed: vote.committed,
                })
            }
            other => Err(ApiError::new(
                ErrorCode::BadEnvelope,
                format!("unknown op {other:?}"),
            )),
        }
    }
}

impl TsApi for FrontEnd {
    fn issue(&self, request: &TokenRequest) -> Result<Token, ApiError> {
        Ok(self.service.issue(request, self.time())?)
    }

    fn issue_batch(
        &self,
        requests: &[TokenRequest],
    ) -> Result<Vec<Result<Token, ApiError>>, ApiError> {
        if requests.len() > MAX_BATCH {
            return Err(ApiError::new(
                ErrorCode::BadEnvelope,
                format!("batch of {} exceeds limit {MAX_BATCH}", requests.len()),
            ));
        }
        Ok(self
            .service
            .issue_batch(requests, self.time())
            .into_iter()
            .map(|r| r.map_err(ApiError::from))
            .collect())
    }

    fn set_rules(&self, owner_secret: &str, rules: RuleBook) -> Result<(), ApiError> {
        if !self.is_owner(owner_secret) {
            return Err(ApiError::new(ErrorCode::Unauthorized, "bad owner secret"));
        }
        self.service.set_rules(rules);
        Ok(())
    }

    fn discover(&self, contract: Address) -> Result<Option<ContractMetadata>, ApiError> {
        Ok(self.directory.read().get(&contract).cloned())
    }

    fn ping(&self) -> Result<(), ApiError> {
        Ok(())
    }
}

/// Parse a request envelope into its op name and (still undecoded) body,
/// both borrowed from `text`.
fn open_envelope(text: &str) -> Result<(Cow<'_, str>, Json<'_>), ApiError> {
    let bad_envelope =
        |e: JsonError| ApiError::new(ErrorCode::BadEnvelope, format!("bad envelope: {e}"));
    let mut json = Json::parse(text).map_err(bad_envelope)?;
    if matches!(json, Json::Obj(_)) && json.get("v").is_none() {
        return Err(ApiError::new(
            ErrorCode::UnsupportedVersion,
            "protocol v1 (no `v` member) was removed: send a v2 envelope",
        ));
    }
    // The body moves out of the tree; the envelope is read from the rest.
    let body = json.take("body");
    let envelope = RequestEnvelope::from_json(&json).map_err(bad_envelope)?;
    if envelope.v != PROTOCOL_VERSION {
        return Err(ApiError::new(
            ErrorCode::UnsupportedVersion,
            format!("unsupported protocol version {}", envelope.v),
        ));
    }
    Ok((envelope.op, body))
}

/// Decode an op's body; a body of the wrong shape is a bad envelope. The
/// tree is freed here, before the op runs.
fn decode<'a, T: FromJson<'a>>(body: Json<'a>) -> Result<T, ApiError> {
    T::from_json(&body).map_err(|e| ApiError::new(ErrorCode::BadEnvelope, format!("bad body: {e}")))
}

/// A success envelope carrying `body`.
fn ok(body: &dyn ToJson) -> Result<String, ApiError> {
    Ok(envelope(Some(body), None))
}

/// Write a v2 response envelope: the members of a
/// [`crate::api::ResponseEnvelope`], with the body encoding itself in place.
fn envelope(body: Option<&dyn ToJson>, error: Option<&ApiError>) -> String {
    let mut out = String::new();
    ObjectWriter::new(&mut out)
        .member("v", &PROTOCOL_VERSION)
        .member("ok", &error.is_none())
        .member("body", &body)
        .member("error", &error)
        .end();
    out
}

/// The `token_hex` response field for `token`: its 86-byte wire image,
/// hex-encoded as the envelope is written.
pub fn encode_token_hex(token: &Token) -> TokenHex {
    TokenHex(*token)
}

/// Decode a hex token string returned by the front end, through a
/// fixed-size buffer.
pub fn decode_token_hex(s: &str) -> Option<Token> {
    let mut bytes = [0u8; Token::SIZE];
    hex::decode_to_slice(s, &mut bytes).ok()?;
    Token::from_bytes(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ResponseEnvelope;
    use crate::service::TokenServiceConfig;
    use smacs_crypto::Keypair;
    use smacs_token::TokenType;

    fn front() -> FrontEnd {
        let service = TokenService::new(
            Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        FrontEnd::new(service, "hunter2", 1_000)
    }

    fn request() -> TokenRequest {
        TokenRequest::super_token(Address::from_low_u64(1), Address::from_low_u64(2))
    }

    fn v2(op: &str, body: &impl ToJson) -> String {
        format!(
            r#"{{"v":2,"op":"{op}","body":{}}}"#,
            smacs_primitives::json::to_string(body)
        )
    }

    /// The answer to `text`, over an owned tree so it outlives the text.
    fn answer(front: &FrontEnd, text: &str, scope: EndpointScope) -> ResponseEnvelope<'static> {
        let answer = front.handle_json_scoped(text, scope);
        let tree = Json::parse(&answer).expect("JSON").to_json();
        ResponseEnvelope::from_json(&tree).expect("a v2 response envelope")
    }

    /// The success body of `response`, decoded.
    fn ok_body<T: for<'a> FromJson<'a>>(response: ResponseEnvelope) -> T {
        assert!(response.ok, "{response:?}");
        T::from_json(&response.body.expect("success body")).expect("body shape")
    }

    fn error(response: ResponseEnvelope) -> ApiError {
        assert!(!response.ok, "{response:?}");
        response.error.expect("error member")
    }

    #[test]
    fn issue_round_trip_through_json() {
        let front = front();
        let response = answer(&front, &v2("issue", &request()), EndpointScope::Public);
        let body: IssueBody = ok_body(response);
        let token = body.token_hex.0;
        assert_eq!(token.ttype, TokenType::Super);
        assert_eq!(token.expire, 1_000 + 3_600);
    }

    #[test]
    fn denial_reports_reason_but_not_rules() {
        let front = front();
        front.service().set_rules(RuleBook::deny_all());
        let response = answer(&front, &v2("issue", &request()), EndpointScope::Public);
        let err = error(response);
        assert_eq!(err.code, ErrorCode::RuleViolation);
        // The denial must not leak list contents.
        assert!(!err.message.contains("0x"), "leaked rule detail: {err:?}");
    }

    #[test]
    fn owner_secret_gates_rule_updates() {
        let front = front();
        // Empty, a prefix, one character too many, and the right length
        // with the last byte wrong.
        for wrong in ["", "wrong", "hunter", "hunter22", "hunter3"] {
            let bad = front.set_rules(wrong, RuleBook::deny_all()).unwrap_err();
            assert_eq!(bad.code, ErrorCode::Unauthorized, "{wrong:?}");
            assert_eq!(*front.service().current_rules(), RuleBook::permissive());
            // Service still permissive.
            front.issue(&request()).unwrap();
        }

        front.set_rules("hunter2", RuleBook::deny_all()).unwrap();
        assert_eq!(
            front.issue(&request()).unwrap_err().code,
            ErrorCode::RuleViolation
        );
    }

    #[test]
    fn malformed_json_is_an_error() {
        let response = answer(&front(), "{not json", EndpointScope::Public);
        assert_eq!(error(response).code, ErrorCode::BadEnvelope);
    }

    #[test]
    fn ping_pong() {
        let front = front();
        front.ping().unwrap();
        let response = answer(&front, r#"{"v":2,"op":"ping"}"#, EndpointScope::Public);
        let body: PongBody = ok_body(response);
        assert!(body.pong);
    }

    #[test]
    fn clock_advances_expiry() {
        let front = front();
        front.advance_time(100);
        assert_eq!(front.issue(&request()).unwrap().expire, 1_100 + 3_600);
    }

    #[test]
    fn token_hex_rejects_garbage() {
        assert!(decode_token_hex("zz").is_none());
        assert!(decode_token_hex(&"00".repeat(Token::SIZE)).is_none()); // bad type byte
    }

    #[test]
    fn counter_ops_without_a_node_fail_closed() {
        let front = front();
        for text in [
            r#"{"v":2,"op":"counter_prepare"}"#,
            r#"{"v":2,"op":"counter_commit","body":{"value":0}}"#,
        ] {
            let err = error(answer(&front, text, EndpointScope::Vote));
            assert_eq!(err.code, ErrorCode::CounterUnavailable, "{text}");
        }
    }

    #[test]
    fn public_scope_refuses_counter_ops_even_with_a_node_attached() {
        let node = CounterNode::new();
        let front = front().with_counter(node.clone());
        let commit = r#"{"v":2,"op":"counter_commit","body":{"value":0}}"#;

        // Public dispatch (what the client-facing listener uses) must not
        // let an outsider burn indexes…
        let response = front.handle_json_scoped(commit, EndpointScope::Public);
        assert!(
            response.contains("counter_unavailable"),
            "public endpoint served a vote op: {response}"
        );
        assert_eq!(node.committed(), 0, "refused vote must not touch state");
        // …and `handle_json` defaults to the public scope.
        assert!(front.handle_json(commit).contains("counter_unavailable"));
        // The scope guard runs before the body is decoded: a malformed
        // vote body is refused the same way, not parsed.
        let malformed = r#"{"v":2,"op":"counter_commit","body":{"value":"x"}}"#;
        let err = error(answer(&front, malformed, EndpointScope::Public));
        assert_eq!(err.code, ErrorCode::CounterUnavailable);

        // The vote scope (the dedicated replica-internal endpoint) serves
        // the same envelope.
        let response = front.handle_json_scoped(commit, EndpointScope::Vote);
        assert!(
            response.contains("\"accepted\""),
            "vote refused: {response}"
        );
        assert_eq!(node.committed(), 1);
    }

    #[test]
    fn counter_ops_vote_against_the_attached_node() {
        let node = CounterNode::new();
        let front = front().with_counter(node.clone());
        let vote = |text: &str| answer(&front, text, EndpointScope::Vote);
        let commit = r#"{"v":2,"op":"counter_commit","body":{"value":0}}"#;

        let state: CounterStateBody = ok_body(vote(r#"{"v":2,"op":"counter_prepare"}"#));
        assert_eq!(state.committed, 0);

        // In-order commit accepted; replayed duplicate rejected.
        let first: CounterVoteBody = ok_body(vote(commit));
        assert!(first.accepted);
        assert_eq!(first.committed, 1);
        let replay: CounterVoteBody = ok_body(vote(commit));
        assert!(!replay.accepted, "duplicate vote must be rejected");

        // The frontier read has one name on the wire.
        let err = error(vote(r#"{"v":2,"op":"counter_catchup"}"#));
        assert_eq!(err.code, ErrorCode::BadEnvelope);

        // A crashed/partitioned node refuses votes with the same
        // fail-closed code the issuance path uses.
        node.crash();
        let err = error(vote(r#"{"v":2,"op":"counter_prepare"}"#));
        assert_eq!(err.code, ErrorCode::CounterUnavailable);
    }
}
