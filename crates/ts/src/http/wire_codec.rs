//! Wire goldens and the envelope fuzz.
//!
//! `tests/wire.golden.txt` pins the exact bytes of a fixed set of
//! protocol-v2 envelopes, one `label json` line each:
//!
//! - every request the three senders put on the wire — [`HttpClient`],
//!   [`FailoverClient`] and a counter quorum's wire member — recorded off the
//!   socket by a proxy that answers each one through a real [`FrontEnd`];
//! - the response to each of them;
//! - every refusal body: the front end's, one per error path, and the HTTP
//!   server's own.
//!
//! After an intended wire change, rewrite the file with
//!
//! ```text
//! cargo test -p smacs-ts --lib http::wire_codec::regenerate_golden -- --ignored
//! ```
//!
//! and review the diff. An unintended diff means the wire moved.
//!
//! The two fuzzers below feed seeded mutations of these envelopes to the
//! front end's dispatch, and mutations of a request head to the HTTP head
//! parser.

use super::{
    read_body, read_head, write_request, write_response, BODY_TOO_LARGE_BODY, FAULTED_BODY,
    HEAD_TOO_LARGE_BODY, MAX_HEAD_BYTES, NOT_POST_BODY, NOT_UTF8_BODY, NO_LENGTH_BODY,
    OVERLOADED_BODY,
};
use crate::api::{ResponseEnvelope, MAX_BATCH, PROTOCOL_VERSION};
use crate::discovery::ContractMetadata;
use crate::front::{EndpointScope, FrontEnd};
use crate::replica::{CounterCluster, CounterNode, Member, Vote};
use crate::rules::{ListPolicy, RuleBook};
use crate::service::{TokenService, TokenServiceConfig};
use crate::validation::ValidationTool;
use crate::{ErrorCode, FailoverClient, HttpClient, TsApi};
use proptest::test_runner::TestRng;
use smacs_chain::abi::{self, AbiValue};
use smacs_chain::Chain;
use smacs_crypto::Keypair;
use smacs_primitives::{json, Address};
use smacs_token::request::ArgBinding;
use smacs_token::{TokenRequest, TokenType};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

const GOLDEN: &str = include_str!("../../tests/wire.golden.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/wire.golden.txt");
const OWNER: &str = "owner-secret";
/// A method and argument strings that need every kind of escaping: quotes,
/// backslashes, control characters, and non-ASCII up to the astral plane.
const TRICKY_METHOD: &str = "f(string)\"\\\u{1}é€😀";
const TRICKY_VALUE: &str = "q\"b\\s\u{7}\n\u{1f}\tè";

fn addr(n: u64) -> Address {
    Address::from_low_u64(n)
}

fn contract() -> Address {
    addr(0xC0)
}

/// Supers for everyone but `0xbad`; the transfer method for senders 1 and
/// 2 only; argument tokens unless `to` is a blacklisted value.
fn book() -> RuleBook {
    let mut book = RuleBook::permissive();
    book.rules_mut(TokenType::Super).sender =
        Some(ListPolicy::Blacklist([addr(0xBAD).to_hex()].into()));
    book.rules_mut(TokenType::Method).method.insert(
        "transfer(address,uint256)".into(),
        ListPolicy::Whitelist([addr(1).to_hex(), addr(2).to_hex()].into()),
    );
    book.rules_mut(TokenType::Argument).argument.insert(
        "to".into(),
        ListPolicy::Blacklist(["0xEVIL".to_string(), "quote\"d\\".to_string()].into()),
    );
    book
}

fn argument_request() -> TokenRequest {
    TokenRequest::argument_token(
        contract(),
        addr(3),
        TRICKY_METHOD,
        vec![
            ArgBinding {
                name: "to".into(),
                value: TRICKY_VALUE.into(),
            },
            ArgBinding {
                name: "memo\t".into(),
                value: "😀€".into(),
            },
        ],
        vec![0x00, 0x01, 0xab, 0xff],
    )
}

/// An argument request declaring the one binding its calldata decodes to.
fn bound_argument_request() -> TokenRequest {
    let calldata = abi::encode_call("vote(bool)", &[AbiValue::Bool(true)]);
    let arg = ArgBinding {
        name: "arg0".into(),
        value: "true".into(),
    };
    TokenRequest::argument_token(contract(), addr(3), "vote(bool)", vec![arg], calldata)
}

/// The front end every recorded request is answered by: [`book`]
/// installed, a counter node attached, clock at 1,000, one contract
/// published.
fn front() -> Arc<FrontEnd> {
    let service = TokenService::new(
        Keypair::from_seed(42),
        book(),
        TokenServiceConfig::default(),
    );
    let front = FrontEnd::new(service, OWNER, 1_000).with_counter(CounterNode::new());
    front.publish(
        contract(),
        ContractMetadata {
            name: "Vault \"v2\"".into(),
            compiler: "smacs 0.1".into(),
            service_urls: vec![
                "http://127.0.0.1:8545".into(),
                "http://127.0.0.1:8546".into(),
            ],
        },
    );
    Arc::new(front)
}

/// Vetoes every argument token (here always for want of a testnet).
struct Veto;

impl ValidationTool for Veto {
    fn name(&self) -> &'static str {
        "veto"
    }

    fn validate(&self, _: Address, _: &[u8], _: &mut Chain) -> Result<(), String> {
        Err("vetoed".into())
    }
}

/// Request/response bodies in the order the proxy answered them.
type Log = Arc<Mutex<Vec<(String, String)>>>;

/// A loopback HTTP server that answers every request through `front` with
/// vote scope (so the counter ops are served too) and logs the body it
/// received next to the body it answered.
struct Proxy {
    addr: SocketAddr,
    log: Log,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Proxy {
    fn start(front: Arc<FrontEnd>) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        let log = Log::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (log2, stop2) = (log.clone(), stop.clone());
        let acceptor = std::thread::spawn(move || {
            let mut connections = Vec::new();
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let (front, log) = (front.clone(), log2.clone());
                let stream = stream.expect("accept");
                connections.push(std::thread::spawn(move || answer(&front, stream, &log)));
            }
            connections
        });
        Proxy {
            addr,
            log,
            stop,
            acceptor,
        }
    }

    /// The one exchange since the last call.
    fn take(&self) -> (String, String) {
        let mut log = self.log.lock().expect("log lock");
        assert_eq!(log.len(), 1, "expected exactly one round trip");
        log.pop().expect("one exchange")
    }

    /// Join every thread; every client must have been dropped.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        for connection in self.acceptor.join().expect("acceptor") {
            connection.join().expect("connection");
        }
    }
}

fn answer(front: &FrontEnd, stream: TcpStream, log: &Log) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    while let Ok(Some((_, headers))) = read_head(&mut reader) {
        let length = headers.content_length.expect("clients frame every request");
        let body = read_body(&mut reader, length).expect("request body");
        let response = front.handle_json_scoped(&body, EndpointScope::Vote);
        log.lock().expect("log lock").push((body, response.clone()));
        write_response(&mut stream, 200, false, &response).expect("answer");
    }
}

fn refused<T>(result: Result<T, crate::ApiError>) -> ErrorCode {
    result.err().expect("refused").code
}

/// The golden file's contents, produced by the code under test.
fn transcript() -> String {
    let front = front();
    let proxy = Proxy::start(front.clone());
    let http = HttpClient::connect(proxy.addr);
    let failover = FailoverClient::new(vec![proxy.addr]);
    let votes = Member::Peer(HttpClient::connect(proxy.addr).into());

    let mut lines =
        vec!["# Protocol-v2 wire goldens; see crates/ts/src/http/wire_codec.rs.".to_string()];
    let mut exchange = |label: &str| {
        let (request, response) = proxy.take();
        lines.push(format!("{label}.request {request}"));
        lines.push(format!("{label}.response {response}"));
    };
    let sup = |n| TokenRequest::super_token(contract(), addr(n));
    let transfer = |n| TokenRequest::method_token(contract(), addr(n), "transfer(address,uint256)");

    http.set_rules(OWNER, book()).expect("set_rules");
    exchange("set_rules");
    http.issue(&sup(1)).expect("super");
    exchange("issue.super");
    failover.issue(&sup(1).one_time()).expect("one-time super");
    exchange("issue.one_time");
    failover.issue(&transfer(2)).expect("method");
    exchange("issue.method");
    // The calldata does not begin with the tricky method's selector, so
    // the request binds no call its token could be spent on.
    assert_eq!(
        refused(http.issue(&argument_request())),
        ErrorCode::InvalidRequest
    );
    exchange("issue.argument");
    http.issue(&bound_argument_request())
        .expect("bound argument");
    exchange("issue.argument_bound");
    let mut invalid = sup(4);
    invalid.args = argument_request().args;
    let batch = failover
        .issue_batch(&[sup(1), sup(0xBAD), transfer(3), invalid, argument_request()])
        .expect("batch");
    let codes: Vec<_> = batch
        .iter()
        .map(|r| r.as_ref().err().map(|e| e.code))
        .collect();
    assert_eq!(
        codes,
        [
            None,
            Some(ErrorCode::RuleViolation),
            Some(ErrorCode::RuleViolation),
            Some(ErrorCode::InvalidRequest),
            Some(ErrorCode::InvalidRequest)
        ]
    );
    exchange("issue_batch");
    assert!(http.discover(contract()).expect("discover").is_some());
    exchange("discover.known");
    assert!(failover.discover(addr(0xD0)).expect("discover").is_none());
    exchange("discover.unknown");
    http.ping().expect("ping");
    exchange("ping");
    assert_eq!(votes.send(Vote::Prepare).expect("read").committed, 0);
    exchange("counter_prepare");
    assert!(votes.send(Vote::Commit(0)).expect("vote").accepted);
    exchange("counter_commit");
    assert!(!votes.send(Vote::Commit(0)).expect("vote").accepted);
    exchange("counter_commit.stale");

    // Refusals a sender receives.
    assert_eq!(
        refused(http.set_rules("wrong", RuleBook::deny_all())),
        ErrorCode::Unauthorized
    );
    exchange("refusal.unauthorized");
    assert_eq!(refused(http.issue(&sup(0xBAD))), ErrorCode::RuleViolation);
    exchange("refusal.rule_violation");
    let mut no_method = transfer(1);
    no_method.method = None;
    assert_eq!(
        refused(failover.issue(&no_method)),
        ErrorCode::InvalidRequest
    );
    exchange("refusal.invalid_request");
    assert_eq!(
        refused(http.issue_batch(&vec![sup(1); MAX_BATCH + 1])),
        ErrorCode::BadEnvelope
    );
    let (_, response) = proxy.take();
    lines.push(format!("refusal.oversized_batch.response {response}"));
    drop((http, failover, votes));
    proxy.stop();

    // Refusals answered to hand-written bodies.
    let node = CounterNode::new();
    let crashed = FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            book(),
            TokenServiceConfig::default(),
        ),
        OWNER,
        1_000,
    )
    .with_counter(node.clone());
    node.crash();
    let quorum_nodes: Vec<_> = (0..3).map(|_| CounterNode::new()).collect();
    let quorum_lost = CounterCluster::from_nodes(quorum_nodes.clone());
    quorum_nodes[1].crash();
    quorum_nodes[2].crash();
    let degraded = FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            book(),
            TokenServiceConfig::default(),
        )
        .with_replicated_counter(quorum_lost)
        .with_tool(Arc::new(Veto)),
        OWNER,
        1_000,
    );
    let one_time = format!(
        r#"{{"v":2,"op":"issue","body":{}}}"#,
        json::to_string(&sup(1).one_time())
    );
    let argument = format!(
        r#"{{"v":2,"op":"issue","body":{}}}"#,
        json::to_string(&bound_argument_request())
    );
    let commit = r#"{"v":2,"op":"counter_commit","body":{"value":1}}"#;
    let refusals: [(&str, &FrontEnd, &str, EndpointScope); 11] = [
        ("not_json", &front, "{not json", EndpointScope::Public),
        ("not_an_object", &front, "[1,2]", EndpointScope::Public),
        ("v1", &front, r#"{"op":"ping"}"#, EndpointScope::Public),
        (
            "v3",
            &front,
            r#"{"v":3,"op":"ping"}"#,
            EndpointScope::Public,
        ),
        (
            "unknown_op",
            &front,
            r#"{"v":2,"op":"mint_money"}"#,
            EndpointScope::Public,
        ),
        (
            "bad_body",
            &front,
            r#"{"v":2,"op":"issue","body":{"nope":1}}"#,
            EndpointScope::Public,
        ),
        ("counter_public", &front, commit, EndpointScope::Public),
        (
            "counter_not_answering",
            &crashed,
            commit,
            EndpointScope::Vote,
        ),
        ("no_counter_node", &degraded, commit, EndpointScope::Vote),
        ("quorum_lost", &degraded, &one_time, EndpointScope::Public),
        ("tool_rejected", &degraded, &argument, EndpointScope::Public),
    ];
    for (label, front, body, scope) in refusals {
        lines.push(format!(
            "refusal.{label}.response {}",
            front.handle_json_scoped(body, scope)
        ));
    }
    for (label, body) in [
        ("overloaded", OVERLOADED_BODY),
        ("faulted", FAULTED_BODY),
        ("head_too_large", HEAD_TOO_LARGE_BODY),
        ("not_post", NOT_POST_BODY),
        ("no_length", NO_LENGTH_BODY),
        ("body_too_large", BODY_TOO_LARGE_BODY),
        ("not_utf8", NOT_UTF8_BODY),
    ] {
        lines.push(format!("refusal.http.{label}.response {body}"));
    }
    lines.push(String::new());
    lines.join("\n")
}

#[test]
fn golden_envelopes_are_byte_identical() {
    let actual = transcript();
    for (number, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of wire.golden.txt", number + 1);
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count());
}

#[test]
#[ignore = "rewrites tests/wire.golden.txt: run only after an intended wire change"]
fn regenerate_golden() {
    std::fs::write(GOLDEN_PATH, transcript()).expect("write the golden file");
}

/// Seeded mutations of the golden request envelopes — byte flips,
/// truncations and splices of two envelopes — fed to both dispatch
/// scopes: every answer must be a v2 response envelope, and nothing may
/// panic.
#[test]
fn mutated_envelopes_always_get_a_v2_answer() {
    let seeds: Vec<&[u8]> = GOLDEN
        .lines()
        .filter_map(|line| {
            let (label, body) = line.split_once(' ')?;
            label.ends_with(".request").then_some(body.as_bytes())
        })
        .collect();
    assert!(seeds.len() >= 15, "golden requests missing");
    let front = front();
    let cases = if cfg!(debug_assertions) { 300 } else { 10_000 };
    let mut rng = TestRng::deterministic("mutated_envelopes_always_get_a_v2_answer", 0);
    let pick = |rng: &mut TestRng| seeds[rng.below(seeds.len() as u64) as usize];
    for case in 0..cases {
        let mut bytes = pick(&mut rng).to_vec();
        let len = bytes.len() as u64;
        match rng.below(3) {
            0 => {
                for _ in 0..=rng.below(4) {
                    let i = rng.below(len) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                }
            }
            1 => bytes.truncate(rng.below(len + 1) as usize),
            _ => {
                let other = pick(&mut rng);
                bytes.truncate(rng.below(len + 1) as usize);
                bytes.extend_from_slice(&other[rng.below(other.len() as u64 + 1) as usize..]);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let scope = if case % 2 == 0 {
            EndpointScope::Public
        } else {
            EndpointScope::Vote
        };
        let answer = front.handle_json_scoped(&text, scope);
        let envelope: ResponseEnvelope = json::from_str(&answer)
            .unwrap_or_else(|e| panic!("case {case}: {e}: {text:?} -> {answer}"));
        assert_eq!(envelope.v, PROTOCOL_VERSION, "case {case}: {answer}");
        assert_eq!(
            envelope.ok,
            envelope.error.is_none(),
            "case {case}: {answer}"
        );
    }
}

/// Seeded mutations of the head [`HttpClient`] sends — byte flips,
/// truncations, a missing blank line, padding past the head cap, and
/// inserted, duplicated, signed or whitespace-padded `Content-Length`
/// lines — read by `read_head` from memory with a body behind them. It
/// never panics, never reads past `MAX_HEAD_BYTES`, and returns a length
/// only when every `Content-Length` line of the head it read holds the
/// same digits-only value.
#[test]
fn mutated_heads_frame_only_agreeing_digit_lengths() {
    let body = r#"{"v":2,"op":"ping","body":null}"#;
    let client = HttpClient::connect("127.0.0.1:8080".parse().unwrap());
    let mut golden = Vec::new();
    write_request(&mut golden, &client.request_head, body).unwrap();
    let golden = std::str::from_utf8(&golden[..golden.len() - body.len()]).unwrap();
    let golden_lines: Vec<&str> = golden.split_inclusive('\n').collect();
    let (exact, huge) = (body.len().to_string(), u128::MAX.to_string());
    let values = [
        "0", "5", "500", &exact, &huge, "+5", "-5", " 5 ", "\t5", "", "5 5", "5,5", "0x1f", "٥",
    ];
    let names = ["Content-Length", "content-length", "CONTENT-LENGTH"];
    let cases = if cfg!(debug_assertions) { 300 } else { 10_000 };
    let mut rng = TestRng::deterministic("mutated_heads_frame_only_agreeing_digit_lengths", 0);
    for case in 0..cases {
        let mut lines: Vec<String> = golden_lines.iter().map(|l| l.to_string()).collect();
        for _ in 0..=rng.below(2) {
            let at = 1 + rng.below(lines.len() as u64) as usize;
            let value = values[rng.below(values.len() as u64) as usize];
            let name = names[rng.below(names.len() as u64) as usize];
            match rng.below(5) {
                0 => lines.insert(at, format!("{name}:{value}\r\n")),
                1 => {
                    let length = lines.iter().find(|l| l.starts_with("Content-Length"));
                    let line = length.cloned().unwrap_or_default();
                    lines.insert(at, line);
                }
                2 => {
                    if lines.last().is_some_and(|l| l == "\r\n") {
                        lines.pop();
                    }
                }
                3 => {
                    let pad = "a".repeat(rng.below(2 * MAX_HEAD_BYTES as u64) as usize);
                    lines.insert(at, format!("X-Pad: {pad}\r\n"));
                }
                _ => {
                    for line in lines.iter_mut().filter(|l| l.starts_with("Content-Length")) {
                        *line = format!("{name}:{value}\r\n");
                    }
                }
            }
        }
        let mut bytes = lines.concat().into_bytes();
        match rng.below(3) {
            0 => {
                for _ in 0..=rng.below(4) {
                    let i = rng.below(bytes.len() as u64) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                }
            }
            1 => bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize),
            _ => {}
        }
        bytes.extend_from_slice(body.as_bytes());

        let mut reader = std::io::Cursor::new(&bytes[..]);
        let result = read_head(&mut reader);
        let read = reader.position() as usize;
        assert!(read <= MAX_HEAD_BYTES, "case {case}: read {read} bytes");
        let Ok(Some((_, headers))) = result else {
            continue;
        };
        let head = std::str::from_utf8(&bytes[..read]).unwrap();
        let lengths: Vec<Option<usize>> = head
            .split_inclusive('\n')
            .skip(1)
            .filter_map(|line| {
                let line = line.trim_end().to_ascii_lowercase();
                let value = line.strip_prefix("content-length:")?.trim().to_string();
                let digits = value.bytes().all(|b| b.is_ascii_digit());
                Some(if digits { value.parse().ok() } else { None })
            })
            .collect();
        let agreed = match lengths.first() {
            Some(&Some(n)) if lengths.iter().all(|&l| l == Some(n)) => Some(n),
            _ => None,
        };
        assert_eq!(headers.content_length, agreed, "case {case}: {head:?}");
    }
}
