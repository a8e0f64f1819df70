//! Front-end protocol coverage: the removed v1 shape, malformed-envelope
//! rejection, batch partial-failure semantics, and keep-alive connection
//! reuse.

use smacs_crypto::Keypair;
use smacs_primitives::json::{FromJson, Json, ToJson};
use smacs_primitives::Address;
use smacs_token::{TokenRequest, TokenType};
use smacs_ts::api::ResponseEnvelope;
use smacs_ts::front::{decode_token_hex, EndpointScope, FrontEnd};
use smacs_ts::{
    Endpoint, ErrorCode, HttpClient, HttpServerConfig, ListPolicy, RuleBook, TokenService,
    TokenServiceConfig, TsApi, MAX_BATCH, PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn front() -> Arc<FrontEnd> {
    Arc::new(FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        1_000,
    ))
}

fn serve(front: Arc<FrontEnd>) -> Endpoint {
    Endpoint::bind(front, EndpointScope::Public, HttpServerConfig::default()).unwrap()
}

fn request(low: u64) -> TokenRequest {
    TokenRequest::super_token(Address::from_low_u64(0xC0), Address::from_low_u64(low))
}

fn v2(op: &str, body: Json) -> String {
    Json::Obj(vec![
        ("v".into(), Json::Int(PROTOCOL_VERSION as i128)),
        ("op".into(), Json::Str(op.into())),
        ("body".into(), body),
    ])
    .render()
}

fn parse(response: &str) -> Json {
    Json::parse(response).expect("valid response JSON")
}

fn error_code(response: &Json) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error code")
}

// ---- the removed v1 protocol ----

/// The unversioned v1 bodies, byte for byte what the seed's clients sent:
/// a one-time `issue_token` for `request(1)`, a deny-all `set_rules` with
/// the right owner secret, and `ping`.
const V1_BODIES: [&str; 3] = [
    r#"{"op":"issue_token","request":{"ttype":"super","contract":"0x00000000000000000000000000000000000000c0","sender":"0x0000000000000000000000000000000000000001","method":null,"args":[],"calldata":null,"one_time":true}}"#,
    r#"{"op":"set_rules","owner_secret":"owner-secret","rules":{"types":{}}}"#,
    r#"{"op":"ping"}"#,
];

#[test]
fn v1_bodies_answer_unsupported_version_and_change_nothing() {
    let front = front();
    for body in V1_BODIES {
        let response = parse(&front.handle_json(body));
        assert_eq!(response.get("v").and_then(Json::as_int), Some(2));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(error_code(&response), "unsupported_version", "{body}");
    }
    // Nothing was minted (the first one-time index is still free) and the
    // deny-all rules were not applied (the request is granted).
    let response = parse(&front.handle_json(&v2("issue", request(1).one_time().to_json())));
    let token_hex = response
        .get("body")
        .and_then(|b| b.get("token_hex"))
        .and_then(Json::as_str)
        .expect("granted");
    assert_eq!(decode_token_hex(token_hex).unwrap().index, 0);
}

// ---- malformed envelopes ----

#[test]
fn malformed_envelopes_are_rejected_with_machine_readable_codes() {
    let front = front();

    // Unsupported version.
    let response = parse(&front.handle_json(r#"{"v":3,"op":"ping"}"#));
    assert_eq!(error_code(&response), "unsupported_version");

    // Unknown op.
    let response = parse(&front.handle_json(r#"{"v":2,"op":"mint_money"}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Missing op entirely.
    let response = parse(&front.handle_json(r#"{"v":2}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Body of the wrong shape for the op.
    let response = parse(&front.handle_json(r#"{"v":2,"op":"issue","body":{"nope":1}}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Wrong type for the version member.
    let response = parse(&front.handle_json(r#"{"v":"two","op":"ping"}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Oversized batch.
    let requests: Vec<Json> = (0..MAX_BATCH + 1)
        .map(|i| request(i as u64).to_json())
        .collect();
    let body = Json::Obj(vec![("requests".into(), Json::Arr(requests))]);
    let response = parse(&front.handle_json(&v2("issue_batch", body)));
    assert_eq!(error_code(&response), "bad_envelope");

    // Invalid-but-parseable requests are *not* envelope errors: they run
    // the normal issuance checks.
    let mut bad = request(1);
    bad.ttype = TokenType::Method; // method token without a methodId
    let response = parse(&front.handle_json(&v2("issue", bad.to_json())));
    assert_eq!(error_code(&response), "invalid_request");

    // Unparseable JSON is a bad envelope too, and so is a JSON value that
    // is not an object.
    for body in ["{not json", "[1,2]", &"[".repeat(1 << 20)] {
        assert_eq!(error_code(&parse(&front.handle_json(body))), "bad_envelope");
    }
}

// ---- batch partial failure ----

#[test]
fn batch_partial_failure_keeps_per_item_outcomes_in_order() {
    let front = front();
    // Whitelist exactly one sender for super tokens.
    let mut rules = RuleBook::deny_all();
    let mut senders = ListPolicy::deny_all();
    senders.insert(Address::from_low_u64(1).to_hex());
    rules.rules_mut(TokenType::Super).sender = Some(senders);
    front.service().set_rules(rules);

    let body = Json::Obj(vec![(
        "requests".into(),
        Json::Arr(vec![
            request(1).to_json(), // allowed
            request(2).to_json(), // denied by rules
            request(1).to_json(), // allowed again
        ]),
    )]);
    let response = parse(&front.handle_json(&v2("issue_batch", body)));
    // Partial failure is still an ok envelope.
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response
        .get("body")
        .and_then(|b| b.get("results"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        results[1]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("rule_violation")
    );
    assert_eq!(results[2].get("ok").and_then(Json::as_bool), Some(true));
    assert!(results[0].get("token_hex").and_then(Json::as_str).is_some());
}

#[test]
fn batch_partial_failure_over_the_http_client() {
    let server = serve(front());
    let client = HttpClient::connect(server.addr());
    let mut bad = request(2);
    bad.args.push(smacs_token::request::ArgBinding {
        name: "x".into(),
        value: "1".into(),
    });
    let results = client.issue_batch(&[request(1), bad, request(3)]).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().code,
        ErrorCode::InvalidRequest
    );
    assert!(results[2].is_ok());
    server.shutdown();
}

// ---- counter availability over the wire (§VII-B) ----

/// A front end whose one-time counter is a 3-node quorum cluster with two
/// nodes down — quorum lost, one-time issuance must fail closed.
fn quorumless_front() -> Arc<FrontEnd> {
    let cluster = smacs_ts::CounterCluster::new(3);
    cluster.kill(1);
    cluster.kill(2);
    Arc::new(FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_replicated_counter(cluster),
        "owner-secret",
        1_000,
    ))
}

#[test]
fn counter_unavailable_round_trips_the_v2_wire() {
    let front = quorumless_front();

    // One-time issuance: fail-closed with the machine-readable code, and
    // a message that leaks no cluster internals.
    let response = parse(&front.handle_json(&v2("issue", request(1).one_time().to_json())));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&response), "counter_unavailable");

    // Expiry issuance needs no counter: same service, still succeeding.
    let response = parse(&front.handle_json(&v2("issue", request(1).to_json())));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    // And through the typed HTTP client the code arrives as the enum.
    let server = serve(front);
    let client = HttpClient::connect(server.addr());
    let err = client.issue(&request(2).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::CounterUnavailable);
    client.issue(&request(2)).unwrap();
    server.shutdown();
}

#[test]
fn batch_partial_failure_with_counter_unavailable() {
    // A quorum-lost batch degrades per item: one-time slots answer
    // `counter_unavailable`, plain slots still mint — one coordination
    // outage never poisons the whole batch.
    let server = serve(quorumless_front());
    let client = HttpClient::connect(server.addr());
    let results = client
        .issue_batch(&[
            request(1),
            request(2).one_time(),
            request(3),
            request(4).one_time(),
        ])
        .unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().code,
        ErrorCode::CounterUnavailable
    );
    assert!(results[2].is_ok());
    assert_eq!(
        results[3].as_ref().unwrap_err().code,
        ErrorCode::CounterUnavailable
    );
    server.shutdown();
}

// ---- keep-alive ----

#[test]
fn one_connection_serves_many_requests() {
    let server = serve(front());
    let addr = server.addr();

    // Raw socket: three requests down the same connection, three distinct
    // responses back, server keeps the connection open throughout.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..3u64 {
        let body = v2("issue", request(10 + i).to_json());
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        stream.flush().unwrap();

        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let mut content_length = 0usize;
        let mut keep_alive = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            if line == "connection: keep-alive" {
                keep_alive = true;
            }
        }
        assert!(keep_alive, "server must advertise keep-alive");
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        let response = Json::parse(&String::from_utf8(body).unwrap()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    drop(stream);

    // The HttpClient reuses its connection the same way: issue repeatedly
    // and confirm the local port never changes.
    let client = HttpClient::connect(addr);
    client.ping().unwrap();
    for i in 0..4 {
        client.issue(&request(20 + i)).unwrap();
    }
    server.shutdown();
}

#[test]
fn post_without_content_length_is_rejected_with_400_and_close() {
    // Guessing a length would desynchronize the keep-alive stream, so the
    // server must refuse to frame such a request and hang up.
    let server = serve(front());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "POST / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.to_ascii_lowercase().contains("connection: close"));
    // The refusal is a v2 error envelope the typed client can decode.
    let body = &response[response.find("\r\n\r\n").unwrap() + 4..];
    let envelope = ResponseEnvelope::from_json(&parse(body)).unwrap();
    assert!(!envelope.ok);
    assert_eq!(envelope.error.unwrap().code, "bad_envelope");
    server.shutdown();
}

// ---- envelope codec round trips ----

#[test]
fn envelope_types_round_trip_through_their_codecs() {
    use smacs_ts::api::{RequestEnvelope, WireError};

    let req = RequestEnvelope {
        v: PROTOCOL_VERSION,
        op: "issue".into(),
        body: Some(request(1).to_json()),
    };
    let text = smacs_primitives::json::to_string(&req);
    assert_eq!(
        RequestEnvelope::from_json(&Json::parse(&text).unwrap()).unwrap(),
        req
    );

    let resp = ResponseEnvelope {
        v: PROTOCOL_VERSION,
        ok: false,
        body: None,
        error: Some(WireError {
            code: "rule_violation".into(),
            message: "denied".into(),
        }),
    };
    let text = smacs_primitives::json::to_string(&resp);
    assert_eq!(
        ResponseEnvelope::from_json(&Json::parse(&text).unwrap()).unwrap(),
        resp
    );

    // `body` may be omitted entirely on the wire (ping).
    let sparse = RequestEnvelope::from_json(&Json::parse(r#"{"v":2,"op":"ping"}"#).unwrap());
    assert_eq!(sparse.unwrap().body, None);
}
