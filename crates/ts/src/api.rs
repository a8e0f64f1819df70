//! The transport-agnostic Token Service API and its wire protocol v2.
//!
//! Every client-facing operation of the TS goes through one trait,
//! [`TsApi`], with two first-class implementations:
//!
//! - [`InProcessClient`] — wraps a [`TokenService`] (via [`FrontEnd`])
//!   directly, no serialization; what examples, tests, and co-located
//!   services use;
//! - [`crate::http::HttpClient`] — speaks protocol v2 over a keep-alive
//!   HTTP connection to a [`crate::http::Endpoint`].
//!
//! Both run the exact same dispatch ([`FrontEnd::handle_api`]), so the wire
//! path is exercised by construction wherever the in-process path is.
//!
//! # Protocol v2
//!
//! Requests are versioned envelopes:
//!
//! ```json
//! {"v": 2, "op": "issue", "body": { ...TokenRequest... }}
//! ```
//!
//! | op            | body                                    | ok body                     |
//! |---------------|-----------------------------------------|-----------------------------|
//! | `issue`       | a `TokenRequest`                        | `{"token_hex": "…"}`        |
//! | `issue_batch` | `{"requests": [TokenRequest…]}` (≤ 256) | `{"results": [item…]}`      |
//! | `set_rules`   | `{"owner_secret": "…", "rules": {…}}`   | `{}`                        |
//! | `discover`    | `{"contract": "0x…"}`                   | `{"metadata": {…} \| null}` |
//! | `ping`        | _absent_                                | `{"pong": true}`            |
//!
//! Replicas additionally speak the **counter op family** to each other —
//! the one-time counter quorum's votes on the wire. These ops are
//! replica-internal: they are dispatched *only* on each replica's
//! dedicated vote endpoint ([`crate::front::EndpointScope::Vote`]); the
//! client-facing endpoint — and any front end with no counter node —
//! refuses them with `counter_unavailable`, so an outside client can
//! never burn or skip one-time index ranges:
//!
//! | op                | body               | ok body                              |
//! |-------------------|--------------------|--------------------------------------|
//! | `counter_prepare` | _absent_           | `{"committed": n}` (phase-1 read)    |
//! | `counter_commit`  | `{"value": n}`     | `{"accepted": bool, "committed": n}` |
//! | `counter_catchup` | _absent_           | `{"committed": n}` (recovery read)   |
//!
//! Responses mirror the envelope: `{"v": 2, "ok": true, "body": {…}}` on
//! success, `{"v": 2, "ok": false, "error": {"code": "…", "message": "…"}}`
//! on failure. Batch items carry per-item `ok`/`token_hex`/`error` — a
//! batch with failing entries is still an `ok` envelope (partial-failure
//! semantics), so one denied request never costs the round trip.
//!
//! Error codes ([`ErrorCode`]) are machine-readable and mirror
//! [`IssueError`]'s variants one-to-one; messages stay coarse, because
//! rules are private to the TS (§VII-A d).
//!
//! A request without `v` (the unversioned v1 shape) is answered
//! `unsupported_version` — see [`FrontEnd::handle_json`].

use smacs_primitives::json::Json;
use smacs_primitives::{json_codec, Address};
use smacs_token::{Token, TokenRequest};
use std::fmt;
use std::sync::Arc;

use crate::discovery::ContractMetadata;
use crate::front::{encode_token_hex, ApiOk, ApiRequest, FrontEnd};
use crate::rules::RuleBook;
use crate::service::{IssueError, TokenService};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// Ceiling on `issue_batch` sizes — one envelope may mint at most this
/// many tokens.
pub const MAX_BATCH: usize = 256;

/// Machine-readable API failure categories. The first four mirror
/// [`IssueError`] variant-for-variant; the rest are envelope/transport
/// level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The token request was malformed (Tab. I field matrix).
    InvalidRequest,
    /// An ACR rejected the request.
    RuleViolation,
    /// A validation tool vetoed the request.
    ToolRejected,
    /// The replicated one-time counter lost quorum.
    CounterUnavailable,
    /// Owner authentication failed.
    Unauthorized,
    /// The envelope itself was malformed (bad JSON shape, unknown op,
    /// oversized batch).
    BadEnvelope,
    /// The `v` field named a protocol version this server does not speak.
    UnsupportedVersion,
    /// The transport failed (connection refused, reset, short read). Only
    /// produced client-side.
    Transport,
    /// Anything else — including error codes minted by a newer server
    /// that this client does not know.
    Internal,
}

impl ErrorCode {
    /// The wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::RuleViolation => "rule_violation",
            ErrorCode::ToolRejected => "tool_rejected",
            ErrorCode::CounterUnavailable => "counter_unavailable",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::BadEnvelope => "bad_envelope",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Transport => "transport",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire string; unknown codes fold to [`ErrorCode::Internal`]
    /// so newer servers stay usable from older clients.
    pub fn parse(s: &str) -> ErrorCode {
        match s {
            "invalid_request" => ErrorCode::InvalidRequest,
            "rule_violation" => ErrorCode::RuleViolation,
            "tool_rejected" => ErrorCode::ToolRejected,
            "counter_unavailable" => ErrorCode::CounterUnavailable,
            "unauthorized" => ErrorCode::Unauthorized,
            "bad_envelope" => ErrorCode::BadEnvelope,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "transport" => ErrorCode::Transport,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured API failure: a machine-readable code plus a coarse
/// human-readable message (deliberately detail-free for rule denials,
/// §VII-A d).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// What category of failure.
    pub code: ErrorCode,
    /// Coarse description, suitable for logs and end users.
    pub message: String,
}

impl ApiError {
    /// Build an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// A client-side transport failure.
    pub fn transport(e: impl fmt::Display) -> ApiError {
        ApiError::new(ErrorCode::Transport, e.to_string())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<IssueError> for ApiError {
    fn from(e: IssueError) -> ApiError {
        let code = match &e {
            IssueError::InvalidRequest(_) => ErrorCode::InvalidRequest,
            IssueError::RuleViolation(_) => ErrorCode::RuleViolation,
            IssueError::ToolRejected { .. } => ErrorCode::ToolRejected,
            IssueError::CounterUnavailable => ErrorCode::CounterUnavailable,
        };
        // The Display string is a coarse reason: no rule contents.
        ApiError::new(code, e.to_string())
    }
}

// ---- wire envelope types (codecs generated by `json_codec!`) ----

json_codec! {
    /// A v2 request envelope.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RequestEnvelope {
        /// Protocol version; must be [`PROTOCOL_VERSION`].
        pub v: u32,
        /// Operation name.
        pub op: String,
        /// Operation payload; absent for `ping`.
        pub body: Option<Json>,
    }
}

json_codec! {
    /// A v2 response envelope.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ResponseEnvelope {
        /// Protocol version of the answering server.
        pub v: u32,
        /// Whether the operation succeeded.
        pub ok: bool,
        /// Success payload (when `ok`).
        pub body: Option<Json>,
        /// Failure payload (when `!ok`).
        pub error: Option<WireError>,
    }
}

json_codec! {
    /// The wire form of an [`ApiError`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct WireError {
        /// [`ErrorCode`] wire string.
        pub code: String,
        /// Coarse human-readable message.
        pub message: String,
    }
}

json_codec! {
    /// `issue` success body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct IssueBody {
        /// Hex of the 86-byte token wire image.
        pub token_hex: String,
    }
}

json_codec! {
    /// `issue_batch` request body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BatchRequestBody {
        /// The requests, issued independently in order.
        pub requests: Vec<TokenRequest>,
    }
}

json_codec! {
    /// One entry of an `issue_batch` response.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BatchItem {
        /// Whether this entry minted a token.
        pub ok: bool,
        /// The token (when `ok`).
        pub token_hex: Option<String>,
        /// The failure (when `!ok`).
        pub error: Option<WireError>,
    }
}

json_codec! {
    /// `issue_batch` success body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BatchResponseBody {
        /// Per-request outcomes, in request order.
        pub results: Vec<BatchItem>,
    }
}

json_codec! {
    /// `set_rules` request body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SetRulesBody {
        /// Owner bearer secret.
        pub owner_secret: String,
        /// Replacement rule book.
        pub rules: RuleBook,
    }
}

json_codec! {
    /// `discover` request body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DiscoverBody {
        /// The contract whose metadata is wanted.
        pub contract: Address,
    }
}

json_codec! {
    /// `discover` success body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DiscoverResponseBody {
        /// Published metadata, if the contract is known to this TS.
        pub metadata: Option<ContractMetadata>,
    }
}

json_codec! {
    /// `counter_prepare` / `counter_catchup` success body: the answering
    /// node's committed frontier.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CounterStateBody {
        /// The node's next free one-time index.
        pub committed: u64,
    }
}

json_codec! {
    /// `counter_commit` request body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CounterCommitBody {
        /// The index the coordinator proposes to burn.
        pub value: u64,
    }
}

json_codec! {
    /// `counter_commit` success body: the node's vote.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CounterVoteBody {
        /// True iff the node burned `value` (it was exactly its frontier).
        pub accepted: bool,
        /// The node's frontier after the vote.
        pub committed: u64,
    }
}

impl From<&ApiError> for WireError {
    fn from(e: &ApiError) -> WireError {
        WireError {
            code: e.code.as_str().into(),
            message: e.message.clone(),
        }
    }
}

impl From<WireError> for ApiError {
    fn from(w: WireError) -> ApiError {
        ApiError::new(ErrorCode::parse(&w.code), w.message)
    }
}

impl BatchItem {
    /// Wire form of one batch outcome.
    pub fn from_result(result: &Result<Token, ApiError>) -> BatchItem {
        match result {
            Ok(token) => BatchItem {
                ok: true,
                token_hex: Some(encode_token_hex(token)),
                error: None,
            },
            Err(e) => BatchItem {
                ok: false,
                token_hex: None,
                error: Some(WireError::from(e)),
            },
        }
    }

    /// Decode one batch outcome; malformed items fold to
    /// [`ErrorCode::Internal`].
    pub fn into_result(self) -> Result<Token, ApiError> {
        if self.ok {
            let hex = self
                .token_hex
                .ok_or_else(|| ApiError::new(ErrorCode::Internal, "ok item without token_hex"))?;
            crate::front::decode_token_hex(&hex)
                .ok_or_else(|| ApiError::new(ErrorCode::Internal, "undecodable token_hex"))
        } else {
            Err(self
                .error
                .map(ApiError::from)
                .unwrap_or_else(|| ApiError::new(ErrorCode::Internal, "failed item without error")))
        }
    }
}

// ---- the trait ----

/// The client-facing Token Service surface, identical in-process and over
/// the wire.
pub trait TsApi: Send + Sync {
    /// Request one token.
    fn issue(&self, request: &TokenRequest) -> Result<Token, ApiError>;

    /// Request up to [`MAX_BATCH`] tokens in one round trip. The outer
    /// `Result` fails only at the envelope level (oversized batch,
    /// transport); individual denials surface per-item.
    fn issue_batch(
        &self,
        requests: &[TokenRequest],
    ) -> Result<Vec<Result<Token, ApiError>>, ApiError>;

    /// Owner: replace the rule book (authenticated by the owner secret).
    fn set_rules(&self, owner_secret: &str, rules: RuleBook) -> Result<(), ApiError>;

    /// Look up the deployment metadata this TS publishes for `contract`
    /// (§VII-B service discovery).
    fn discover(&self, contract: Address) -> Result<Option<ContractMetadata>, ApiError>;

    /// Liveness probe.
    fn ping(&self) -> Result<(), ApiError>;
}

// ---- the in-process implementation ----

/// [`TsApi`] over a co-located [`FrontEnd`] — no serialization, but the
/// same [`FrontEnd::handle_api`] dispatch the wire path runs.
#[derive(Clone)]
pub struct InProcessClient {
    front: Arc<FrontEnd>,
}

impl InProcessClient {
    /// Wrap a bare [`TokenService`] (the common case for tests, examples,
    /// and experiments): builds the [`FrontEnd`] internally.
    pub fn new(
        service: TokenService,
        owner_secret: impl Into<String>,
        now: u64,
    ) -> InProcessClient {
        InProcessClient {
            front: Arc::new(FrontEnd::new(service, owner_secret, now)),
        }
    }

    /// Wrap an existing front end (e.g. one also served over HTTP).
    pub fn from_front(front: Arc<FrontEnd>) -> InProcessClient {
        InProcessClient { front }
    }

    /// The wrapped front end.
    pub fn front(&self) -> &Arc<FrontEnd> {
        &self.front
    }

    /// The wrapped service (owner-side escape hatch: attach tools, edit
    /// rules without the secret, read diagnostics).
    pub fn service(&self) -> &TokenService {
        self.front.service()
    }

    /// Set the TS-local clock (experiments time-travel; production feeds
    /// wall time).
    pub fn set_time(&self, now: u64) {
        self.front.set_time(now);
    }

    /// Advance the TS-local clock.
    pub fn advance_time(&self, secs: u64) {
        self.front.advance_time(secs);
    }

    /// Publish discovery metadata for a contract this TS protects.
    pub fn publish(&self, contract: Address, metadata: ContractMetadata) {
        self.front.publish(contract, metadata);
    }
}

impl TsApi for InProcessClient {
    fn issue(&self, request: &TokenRequest) -> Result<Token, ApiError> {
        match self.front.handle_api(ApiRequest::Issue(request.clone()))? {
            ApiOk::Token(token) => Ok(token),
            other => Err(unexpected(&other)),
        }
    }

    fn issue_batch(
        &self,
        requests: &[TokenRequest],
    ) -> Result<Vec<Result<Token, ApiError>>, ApiError> {
        match self
            .front
            .handle_api(ApiRequest::IssueBatch(requests.to_vec()))?
        {
            ApiOk::Batch(results) => Ok(results),
            other => Err(unexpected(&other)),
        }
    }

    fn set_rules(&self, owner_secret: &str, rules: RuleBook) -> Result<(), ApiError> {
        match self.front.handle_api(ApiRequest::SetRules {
            owner_secret: owner_secret.into(),
            rules,
        })? {
            ApiOk::RulesSet => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn discover(&self, contract: Address) -> Result<Option<ContractMetadata>, ApiError> {
        match self.front.handle_api(ApiRequest::Discover { contract })? {
            ApiOk::Discovered(metadata) => Ok(metadata),
            other => Err(unexpected(&other)),
        }
    }

    fn ping(&self) -> Result<(), ApiError> {
        match self.front.handle_api(ApiRequest::Ping)? {
            ApiOk::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(got: &ApiOk) -> ApiError {
    ApiError::new(ErrorCode::Internal, format!("mismatched response {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TokenServiceConfig;
    use smacs_crypto::Keypair;
    use smacs_token::TokenType;

    fn client() -> InProcessClient {
        InProcessClient::new(
            TokenService::new(
                Keypair::from_seed(1),
                RuleBook::permissive(),
                TokenServiceConfig::default(),
            ),
            "hunter2",
            1_000,
        )
    }

    fn request() -> TokenRequest {
        TokenRequest::super_token(Address::from_low_u64(1), Address::from_low_u64(2))
    }

    #[test]
    fn issue_through_the_trait() {
        let api = client();
        let token = api.issue(&request()).unwrap();
        assert_eq!(token.ttype, TokenType::Super);
        assert_eq!(token.expire, 1_000 + 3_600);
        api.advance_time(50);
        assert_eq!(api.issue(&request()).unwrap().expire, 1_050 + 3_600);
    }

    #[test]
    fn batch_reports_per_item_outcomes() {
        let api = client();
        let mut bad = request();
        bad.args.push(smacs_token::request::ArgBinding {
            name: "x".into(),
            value: "1".into(),
        });
        let results = api.issue_batch(&[request(), bad, request()]).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err().code,
            ErrorCode::InvalidRequest
        );
        assert!(results[2].is_ok());
    }

    #[test]
    fn oversized_batch_rejected_at_envelope_level() {
        let api = client();
        let requests = vec![request(); MAX_BATCH + 1];
        let err = api.issue_batch(&requests).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadEnvelope);
    }

    #[test]
    fn set_rules_requires_secret_and_discover_reads_directory() {
        let api = client();
        assert_eq!(
            api.set_rules("wrong", RuleBook::deny_all())
                .unwrap_err()
                .code,
            ErrorCode::Unauthorized
        );
        api.set_rules("hunter2", RuleBook::deny_all()).unwrap();
        assert_eq!(
            api.issue(&request()).unwrap_err().code,
            ErrorCode::RuleViolation
        );

        let contract = Address::from_low_u64(0xC0);
        assert_eq!(api.discover(contract).unwrap(), None);
        api.publish(
            contract,
            ContractMetadata {
                name: "Vault".into(),
                compiler: "smacs 0.1".into(),
                token_service_url: Some("http://127.0.0.1:1".into()),
                replica_urls: Vec::new(),
            },
        );
        assert_eq!(api.discover(contract).unwrap().unwrap().name, "Vault");
        api.ping().unwrap();
    }

    #[test]
    fn error_codes_round_trip_the_wire_strings() {
        for code in [
            ErrorCode::InvalidRequest,
            ErrorCode::RuleViolation,
            ErrorCode::ToolRejected,
            ErrorCode::CounterUnavailable,
            ErrorCode::Unauthorized,
            ErrorCode::BadEnvelope,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Transport,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), code);
        }
        assert_eq!(ErrorCode::parse("made_up_code"), ErrorCode::Internal);
    }

    #[test]
    fn rule_denials_stay_coarse_over_the_api() {
        let api = client();
        api.service().set_rules(RuleBook::deny_all());
        let err = api.issue(&request()).unwrap_err();
        assert_eq!(err.code, ErrorCode::RuleViolation);
        assert!(
            !err.message.contains("0x"),
            "leaked rule detail: {}",
            err.message
        );
    }
}
