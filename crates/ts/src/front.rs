//! The JSON front-end: what flows over the TS's web interface.
//!
//! Owners and clients "interact with the TS through an HTTPS-enabled web
//! interface" (§IV). It speaks one protocol, v2: versioned
//! `{"v": 2, "op": …, "body": …}` envelopes with machine-readable error
//! codes and batch issuance — the full grammar lives in [`crate::api`].
//! Every byte it answers is a v2 response envelope: a body that is not
//! JSON gets `bad_envelope`, and an object without `v` (the removed,
//! unversioned v1 shape) gets `unsupported_version`.
//!
//! [`FrontEnd::handle_json`] decodes an envelope into an [`ApiRequest`]
//! and dispatches it through [`FrontEnd::handle_api`] — the single code
//! path the in-process client exercises too.

use parking_lot::RwLock;
use smacs_primitives::json::{FromJson, Json, JsonError, ObjectWriter, ToJson};
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest};

use crate::api::{
    ApiError, BatchItem, BatchRequestBody, BatchResponseBody, CounterCommitBody, CounterStateBody,
    CounterVoteBody, DiscoverBody, DiscoverResponseBody, ErrorCode, IssueBody, PongBody,
    RequestEnvelope, RulesSetBody, SetRulesBody, WireError, MAX_BATCH, PROTOCOL_VERSION,
};
use crate::discovery::{ContractMetadata, ServiceDirectory};
use crate::replica::CounterNode;
use crate::rules::RuleBook;
use crate::service::TokenService;
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

/// A structured v2 API request — the transport-independent form both
/// [`crate::api::InProcessClient`] and the HTTP server dispatch.
#[derive(Clone, Debug)]
pub enum ApiRequest {
    /// Client: request one token.
    Issue(TokenRequest),
    /// Client: request up to [`MAX_BATCH`] tokens in one round trip.
    IssueBatch(Vec<TokenRequest>),
    /// Owner: replace the rule book.
    SetRules {
        /// Owner authentication secret.
        owner_secret: String,
        /// The new rules.
        rules: RuleBook,
    },
    /// Anyone: look up published contract metadata (§VII-B discovery).
    Discover {
        /// The contract of interest.
        contract: Address,
    },
    /// Anyone: liveness probe.
    Ping,
    /// Peer replica: phase-1 read of this replica's counter frontier.
    CounterPrepare,
    /// Peer replica: phase-2 vote to burn one-time index `value`.
    CounterCommit {
        /// The proposed index.
        value: u64,
    },
    /// Peer replica: recovery read of this replica's counter frontier.
    CounterCatchup,
}

/// A successful v2 API response.
#[derive(Clone, Debug)]
pub enum ApiOk {
    /// One minted token.
    Token(Token),
    /// Per-request batch outcomes, in request order.
    Batch(Vec<Result<Token, ApiError>>),
    /// Rules replaced.
    RulesSet,
    /// Discovery result (`None`: contract unknown to this TS).
    Discovered(Option<ContractMetadata>),
    /// Pong.
    Pong,
    /// The local counter node's frontier (`counter_prepare` /
    /// `counter_catchup`).
    CounterState {
        /// The node's next free one-time index.
        committed: u64,
    },
    /// The local counter node's `counter_commit` vote.
    CounterVote {
        /// True iff the node burned the proposed value.
        accepted: bool,
        /// The node's frontier after the vote.
        committed: u64,
    },
}

/// The front end: a service, its owner secret, the TS-local clock, and the
/// discovery metadata this TS publishes.
pub struct FrontEnd {
    service: TokenService,
    owner_secret: String,
    /// TS-local clock (seconds); tests and experiments drive it manually.
    now: std::sync::atomic::AtomicU64,
    directory: RwLock<ServiceDirectory>,
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
            owner_secret: owner_secret.into(),
            now: std::sync::atomic::AtomicU64::new(now),
            directory: RwLock::new(ServiceDirectory::new()),
            counter: None,
        }
    }

    /// Attach the replica's counter node so this front end answers the
    /// `counter_*` vote ops (builder form; used by `ReplicaSet`).
    pub fn with_counter(mut self, node: Arc<CounterNode>) -> Self {
        self.counter = Some(node);
        self
    }

    /// The wrapped service.
    pub fn service(&self) -> &TokenService {
        &self.service
    }

    /// Advance the TS-local clock.
    pub fn advance_time(&self, secs: u64) {
        self.now
            .fetch_add(secs, std::sync::atomic::Ordering::SeqCst);
    }

    /// Set the TS-local clock.
    pub fn set_time(&self, now: u64) {
        self.now.store(now, std::sync::atomic::Ordering::SeqCst);
    }

    /// The TS-local clock.
    pub fn time(&self) -> u64 {
        self.now.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Publish discovery metadata for a contract this TS protects; served
    /// by the `discover` op.
    pub fn publish(&self, contract: Address, metadata: ContractMetadata) {
        self.directory.write().publish(contract, metadata);
    }

    /// Handle a structured v2 request — the one dispatch every transport
    /// funnels into.
    pub fn handle_api(&self, request: ApiRequest) -> Result<ApiOk, ApiError> {
        match request {
            ApiRequest::Issue(request) => self
                .service
                .issue(&request, self.time())
                .map(ApiOk::Token)
                .map_err(ApiError::from),
            ApiRequest::IssueBatch(requests) => {
                if requests.len() > MAX_BATCH {
                    return Err(ApiError::new(
                        ErrorCode::BadEnvelope,
                        format!("batch of {} exceeds limit {MAX_BATCH}", requests.len()),
                    ));
                }
                Ok(ApiOk::Batch(
                    self.service
                        .issue_batch(&requests, self.time())
                        .into_iter()
                        .map(|r| r.map_err(ApiError::from))
                        .collect(),
                ))
            }
            ApiRequest::SetRules {
                owner_secret,
                rules,
            } => {
                if owner_secret != self.owner_secret {
                    return Err(ApiError::new(ErrorCode::Unauthorized, "bad owner secret"));
                }
                self.service.set_rules(rules);
                Ok(ApiOk::RulesSet)
            }
            ApiRequest::Discover { contract } => Ok(ApiOk::Discovered(
                self.directory.read().metadata(contract).cloned(),
            )),
            ApiRequest::Ping => Ok(ApiOk::Pong),
            ApiRequest::CounterPrepare => self
                .counter_node()?
                .prepare()
                .map(|committed| ApiOk::CounterState { committed })
                .ok_or_else(counter_refusing),
            ApiRequest::CounterCommit { value } => self
                .counter_node()?
                .commit(value)
                .map(|vote| ApiOk::CounterVote {
                    accepted: vote.accepted,
                    committed: vote.committed,
                })
                .ok_or_else(counter_refusing),
            ApiRequest::CounterCatchup => self
                .counter_node()?
                .catchup()
                .map(|committed| ApiOk::CounterState { committed })
                .ok_or_else(counter_refusing),
        }
    }

    /// The local counter node, or `counter_unavailable` when this front
    /// end isn't part of a counter quorum.
    fn counter_node(&self) -> Result<&Arc<CounterNode>, ApiError> {
        self.counter.as_ref().ok_or_else(|| {
            ApiError::new(
                ErrorCode::CounterUnavailable,
                "no counter node at this endpoint",
            )
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
        let result = decode_request(body).and_then(|req| {
            if scope == EndpointScope::Public && is_counter_op(&req) {
                Err(ApiError::new(
                    ErrorCode::CounterUnavailable,
                    "counter votes are replica-internal: not served on this endpoint",
                ))
            } else {
                self.handle_api(req)
            }
        });
        encode_response(&result)
    }
}

/// Whether a request belongs to the replica-internal `counter_*` family.
fn is_counter_op(request: &ApiRequest) -> bool {
    matches!(
        request,
        ApiRequest::CounterPrepare | ApiRequest::CounterCommit { .. } | ApiRequest::CounterCatchup
    )
}

/// Parse a request body into an [`ApiRequest`].
fn decode_request(body: &str) -> Result<ApiRequest, ApiError> {
    let bad_envelope =
        |e: JsonError| ApiError::new(ErrorCode::BadEnvelope, format!("bad envelope: {e}"));
    let mut json = Json::parse(body).map_err(bad_envelope)?;
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
    let bad_body = |e: JsonError| ApiError::new(ErrorCode::BadEnvelope, format!("bad body: {e}"));
    match envelope.op.as_str() {
        "issue" => Ok(ApiRequest::Issue(
            TokenRequest::from_json(&body).map_err(bad_body)?,
        )),
        "issue_batch" => Ok(ApiRequest::IssueBatch(
            BatchRequestBody::from_json(&body)
                .map_err(bad_body)?
                .requests,
        )),
        "set_rules" => {
            let body = SetRulesBody::from_json(&body).map_err(bad_body)?;
            Ok(ApiRequest::SetRules {
                owner_secret: body.owner_secret,
                rules: body.rules,
            })
        }
        "discover" => Ok(ApiRequest::Discover {
            contract: DiscoverBody::from_json(&body).map_err(bad_body)?.contract,
        }),
        "ping" => Ok(ApiRequest::Ping),
        "counter_prepare" => Ok(ApiRequest::CounterPrepare),
        "counter_commit" => Ok(ApiRequest::CounterCommit {
            value: CounterCommitBody::from_json(&body).map_err(bad_body)?.value,
        }),
        "counter_catchup" => Ok(ApiRequest::CounterCatchup),
        other => Err(ApiError::new(
            ErrorCode::BadEnvelope,
            format!("unknown op {other:?}"),
        )),
    }
}

/// The error a live quorum member answers with while its node is crashed
/// or partitioned away from the consensus group.
fn counter_refusing() -> ApiError {
    ApiError::new(ErrorCode::CounterUnavailable, "counter node not answering")
}

/// Write an API outcome as a v2 response envelope: the members of a
/// [`crate::api::ResponseEnvelope`], with the body encoding itself in place.
fn encode_response(result: &Result<ApiOk, ApiError>) -> String {
    let envelope = |body: Option<&dyn ToJson>, error: Option<&WireError>| {
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .member("v", &PROTOCOL_VERSION)
            .member("ok", &error.is_none())
            .member("body", &body)
            .member("error", &error)
            .end();
        out
    };
    let body: &dyn ToJson = match result {
        Err(e) => return envelope(None, Some(&WireError::from(e))),
        Ok(ApiOk::Token(token)) => &IssueBody {
            token_hex: encode_token_hex(token),
        },
        Ok(ApiOk::Batch(results)) => &BatchResponseBody {
            results: results.iter().map(BatchItem::from_result).collect(),
        },
        Ok(ApiOk::RulesSet) => &RulesSetBody {},
        Ok(ApiOk::Discovered(metadata)) => &DiscoverResponseBody {
            metadata: metadata.clone(),
        },
        Ok(ApiOk::Pong) => &PongBody { pong: true },
        Ok(ApiOk::CounterState { committed }) => &CounterStateBody {
            committed: *committed,
        },
        Ok(ApiOk::CounterVote {
            accepted,
            committed,
        }) => &CounterVoteBody {
            accepted: *accepted,
            committed: *committed,
        },
    };
    envelope(Some(body), None)
}

/// Hex-encode a token's 86-byte wire image (the `token_hex` response
/// fields).
pub fn encode_token_hex(token: &Token) -> String {
    hex::encode(token.to_bytes())
}

/// Decode a hex token string returned by the front end.
pub fn decode_token_hex(s: &str) -> Option<Token> {
    Token::from_bytes(&hex::decode(s).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ResponseEnvelope;
    use crate::service::TokenServiceConfig;
    use smacs_crypto::Keypair;
    use smacs_primitives::Address;
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

    fn issue(front: &FrontEnd) -> Result<Token, ApiError> {
        match front.handle_api(ApiRequest::Issue(request()))? {
            ApiOk::Token(token) => Ok(token),
            other => panic!("expected a token, got {other:?}"),
        }
    }

    fn deny_all(front: &FrontEnd, owner_secret: &str) -> Result<ApiOk, ApiError> {
        front.handle_api(ApiRequest::SetRules {
            owner_secret: owner_secret.into(),
            rules: RuleBook::deny_all(),
        })
    }

    fn envelope(text: &str) -> ResponseEnvelope {
        smacs_primitives::json::from_str(text).expect("a v2 response envelope")
    }

    #[test]
    fn issue_round_trip_through_json() {
        let front = front();
        let body = smacs_primitives::json::to_string(&RequestEnvelope {
            v: PROTOCOL_VERSION,
            op: "issue".into(),
            body: Some(request().to_json()),
        });
        let response = envelope(&front.handle_json(&body));
        assert!(response.ok, "{response:?}");
        let body = IssueBody::from_json(&response.body.unwrap()).unwrap();
        let token = decode_token_hex(&body.token_hex).unwrap();
        assert_eq!(token.ttype, TokenType::Super);
        assert_eq!(token.expire, 1_000 + 3_600);
    }

    #[test]
    fn denial_reports_reason_but_not_rules() {
        let front = front();
        front.service().set_rules(RuleBook::deny_all());
        let err = issue(&front).unwrap_err();
        assert_eq!(err.code, ErrorCode::RuleViolation);
        // The denial must not leak list contents.
        assert!(!err.message.contains("0x"), "leaked rule detail: {err:?}");
    }

    #[test]
    fn owner_secret_gates_rule_updates() {
        let front = front();
        let bad = deny_all(&front, "wrong").unwrap_err();
        assert_eq!(bad.code, ErrorCode::Unauthorized);
        // Service still permissive.
        issue(&front).unwrap();

        assert!(matches!(deny_all(&front, "hunter2"), Ok(ApiOk::RulesSet)));
        assert_eq!(issue(&front).unwrap_err().code, ErrorCode::RuleViolation);
    }

    #[test]
    fn malformed_json_is_an_error() {
        let response = envelope(&front().handle_json("{not json"));
        assert!(!response.ok);
        assert_eq!(response.error.unwrap().code, "bad_envelope");
    }

    #[test]
    fn ping_pong() {
        assert!(matches!(
            front().handle_api(ApiRequest::Ping),
            Ok(ApiOk::Pong)
        ));
    }

    #[test]
    fn clock_advances_expiry() {
        let front = front();
        front.advance_time(100);
        assert_eq!(issue(&front).unwrap().expire, 1_100 + 3_600);
    }

    #[test]
    fn token_hex_rejects_garbage() {
        assert!(decode_token_hex("zz").is_none());
        assert!(decode_token_hex(&"00".repeat(Token::SIZE)).is_none()); // bad type byte
    }

    #[test]
    fn counter_ops_without_a_node_fail_closed() {
        let front = front();
        for request in [
            ApiRequest::CounterPrepare,
            ApiRequest::CounterCommit { value: 0 },
            ApiRequest::CounterCatchup,
        ] {
            let err = front.handle_api(request).unwrap_err();
            assert_eq!(err.code, ErrorCode::CounterUnavailable);
        }
    }

    #[test]
    fn public_scope_refuses_counter_ops_even_with_a_node_attached() {
        let service = TokenService::new(
            Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let node = CounterNode::new();
        let front = FrontEnd::new(service, "hunter2", 1_000).with_counter(node.clone());
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
        let service = TokenService::new(
            Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let node = CounterNode::new();
        let front = FrontEnd::new(service, "hunter2", 1_000).with_counter(node.clone());

        let Ok(ApiOk::CounterState { committed }) = front.handle_api(ApiRequest::CounterPrepare)
        else {
            panic!("prepare refused");
        };
        assert_eq!(committed, 0);

        // In-order commit accepted; replayed duplicate rejected.
        let Ok(ApiOk::CounterVote {
            accepted,
            committed,
        }) = front.handle_api(ApiRequest::CounterCommit { value: 0 })
        else {
            panic!("commit refused");
        };
        assert!(accepted);
        assert_eq!(committed, 1);
        let Ok(ApiOk::CounterVote { accepted, .. }) =
            front.handle_api(ApiRequest::CounterCommit { value: 0 })
        else {
            panic!("commit refused");
        };
        assert!(!accepted, "duplicate vote must be rejected");

        // A crashed/partitioned node refuses votes with the same
        // fail-closed code the issuance path uses.
        node.crash();
        let err = front
            .handle_api(ApiRequest::CounterCatchup)
            .expect_err("dead node answers counter_unavailable");
        assert_eq!(err.code, ErrorCode::CounterUnavailable);
    }
}
