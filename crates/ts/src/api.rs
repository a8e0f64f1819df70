//! The transport-agnostic Token Service API and its wire protocol v2.
//!
//! Every client-facing operation of the TS goes through one trait,
//! [`TsApi`]:
//!
//! - in process, [`FrontEnd`](crate::front::FrontEnd) implements it over
//!   its [`crate::service::TokenService`] — no serialization; what
//!   examples, tests, and co-located services use;
//! - on the wire, [`crate::http::HttpClient`] (one keep-alive connection to
//!   a [`crate::http::Endpoint`]) and [`crate::failover::FailoverClient`]
//!   (a replica list with retries) speak protocol v2, and the endpoint
//!   answers through the same front end's
//!   [`handle_json_scoped`](crate::front::FrontEnd::handle_json_scoped).
//!
//! `tests/protocol.rs::in_process_and_wire_answers_agree` pins that both
//! paths give the same answer to every op.
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
//! | `counter_prepare` | _absent_           | `{"committed": n}` (frontier read)   |
//! | `counter_commit`  | `{"value": n}`     | `{"accepted": bool, "committed": n}` |
//!
//! The frontier read is both phase 1 of an allocation and how a
//! recovering node learns the frontier it must catch up to.
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
//! `unsupported_version` — see [`crate::front::FrontEnd::handle_json`].

use smacs_primitives::json::{FromJson, Json, JsonError, ToJson};
use smacs_primitives::{json_codec, Address};
use smacs_token::{Token, TokenRequest};
use std::borrow::Cow;
use std::fmt;

use crate::discovery::ContractMetadata;
use crate::front::{decode_token_hex, encode_token_hex};
use crate::rules::RuleBook;
use crate::service::IssueError;

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
    /// Every code, in declaration order.
    const ALL: [ErrorCode; 9] = [
        ErrorCode::InvalidRequest,
        ErrorCode::RuleViolation,
        ErrorCode::ToolRejected,
        ErrorCode::CounterUnavailable,
        ErrorCode::Unauthorized,
        ErrorCode::BadEnvelope,
        ErrorCode::UnsupportedVersion,
        ErrorCode::Transport,
        ErrorCode::Internal,
    ];

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
        ErrorCode::ALL
            .into_iter()
            .find(|code| code.as_str() == s)
            .unwrap_or(ErrorCode::Internal)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for ErrorCode {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson<'_> for ErrorCode {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(ErrorCode::parse)
            .ok_or_else(|| JsonError("expected error code".into()))
    }
}

json_codec! {
    /// A structured API failure: a machine-readable code plus a coarse
    /// human-readable message (deliberately detail-free for rule denials,
    /// §VII-A d). Also its own wire form.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ApiError {
        /// What category of failure.
        pub code: ErrorCode,
        /// Coarse description, suitable for logs and end users.
        pub message: String,
    }
}

impl ApiError {
    /// Build an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
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
// Envelopes are only decoded into these, borrowing the message text: senders
// write the members straight into the message, and decoders take the body.

json_codec! {
    /// A v2 request envelope.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RequestEnvelope<'a> {
        /// Protocol version; must be [`PROTOCOL_VERSION`].
        pub v: u32,
        /// Operation name.
        pub op: Cow<'a, str>,
        /// Operation payload; absent for `ping`.
        pub body: Option<Json<'a>>,
    }
}

json_codec! {
    /// A v2 response envelope.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ResponseEnvelope<'a> {
        /// Protocol version of the answering server.
        pub v: u32,
        /// Whether the operation succeeded.
        pub ok: bool,
        /// Success payload (when `ok`).
        pub body: Option<Json<'a>>,
        /// Failure payload (when `!ok`).
        pub error: Option<ApiError>,
    }
}

/// A token on the wire: the hex of its 86-byte image, written straight
/// into the message and decoded straight into a fixed-size buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenHex(pub Token);

impl ToJson for TokenHex {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        hex::encode_to(self.0.to_bytes(), out);
        out.push('"');
    }
}

impl FromJson<'_> for TokenHex {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .and_then(decode_token_hex)
            .map(TokenHex)
            .ok_or_else(|| JsonError("undecodable token_hex".into()))
    }
}

json_codec! {
    /// `issue` success body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct IssueBody {
        /// The minted token.
        pub token_hex: TokenHex,
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
        pub token_hex: Option<TokenHex>,
        /// The failure (when `!ok`).
        pub error: Option<ApiError>,
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
    /// `set_rules` success body: `{}`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RulesSetBody {}
}

json_codec! {
    /// `ping` success body.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PongBody {
        /// Always `true`.
        pub pong: bool,
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
    /// `counter_prepare` (the frontier read) success body: the answering
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
                error: Some(e.clone()),
            },
        }
    }

    /// Decode one batch outcome; an item missing its token or its error
    /// folds to [`ErrorCode::Internal`].
    pub fn into_result(self) -> Result<Token, ApiError> {
        if self.ok {
            self.token_hex
                .map(|token| token.0)
                .ok_or_else(|| ApiError::new(ErrorCode::Internal, "ok item without token_hex"))
        } else {
            Err(self
                .error
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::FrontEnd;
    use crate::service::{TokenService, TokenServiceConfig};
    use smacs_crypto::Keypair;
    use smacs_primitives::json;
    use smacs_token::TokenType;

    fn client() -> FrontEnd {
        FrontEnd::new(
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
        let front = client();
        let api: &dyn TsApi = &front;
        let token = api.issue(&request()).unwrap();
        assert_eq!(token.ttype, TokenType::Super);
        assert_eq!(token.expire, 1_000 + 3_600);
        front.advance_time(50);
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
                service_urls: vec!["http://127.0.0.1:1".into()],
            },
        );
        assert_eq!(api.discover(contract).unwrap().unwrap().name, "Vault");

        // An unprotected contract is published with no TS URL.
        let legacy = Address::from_low_u64(0xC1);
        api.publish(
            legacy,
            ContractMetadata {
                name: "Legacy".into(),
                compiler: "solc 0.4.24".into(),
                service_urls: Vec::new(),
            },
        );
        let found = api.discover(legacy).unwrap().unwrap();
        assert_eq!(
            (found.name.as_str(), found.service_urls),
            ("Legacy", Vec::new())
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
            let error = ApiError::new(code, "m");
            let text = json::to_string(&error);
            assert_eq!(json::from_str::<ApiError>(&text).unwrap(), error);
        }
        assert_eq!(ErrorCode::parse("made_up_code"), ErrorCode::Internal);
        let unknown = json::from_str::<ApiError>(r#"{"code":"made_up_code","message":"m"}"#);
        assert_eq!(unknown.unwrap(), ApiError::new(ErrorCode::Internal, "m"));
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
