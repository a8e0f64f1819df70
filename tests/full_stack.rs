//! Full-stack integration: the complete SMACS deployment story across all
//! crates — HTTP front end, service discovery, shielded contracts, token
//! issuance, on-chain verification, and the replicated counter.

use smacs::chain::Chain;
use smacs::contracts::BenchTarget;
use smacs::core::client::ClientWallet;
use smacs::core::fetcher::TokenFetcher;
use smacs::core::owner::{OwnerToolkit, ShieldParams};
use smacs::crypto::Keypair;
use smacs::primitives::Address;
use smacs::token::{TokenRequest, TokenType};
use smacs::ts::api::ResponseEnvelope;
use smacs::ts::discovery::ContractMetadata;
use smacs::ts::front::{EndpointScope, FrontEnd};
use smacs::ts::{
    CounterCluster, CounterNode, Endpoint, ErrorCode, FailoverClient, HttpClient, HttpServerConfig,
    ListPolicy, RuleBook, TokenService, TokenServiceConfig, TsApi,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn small_shield() -> ShieldParams {
    ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    }
}

/// The whole §III-C lifecycle over the real wire protocol: discover the TS
/// through contract metadata, fetch tokens over HTTP through the `TsApi`
/// surface (cached by a `TokenFetcher`), spend them on-chain, and rotate
/// rules — all against the same keep-alive connection.
#[test]
fn discovery_http_issuance_and_onchain_spend() {
    // Owner side.
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let alice = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(5_000));
    let (target, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(BenchTarget), &small_shield())
        .unwrap();

    let mut rules = RuleBook::deny_all();
    let mut senders = ListPolicy::deny_all();
    senders.insert(alice.address().to_hex());
    rules.rules_mut(TokenType::Method).sender = Some(senders);
    let service = TokenService::new(
        toolkit.ts_keypair().clone(),
        rules,
        TokenServiceConfig::default(),
    );
    let now = chain.pending_env().timestamp;
    let front = Arc::new(FrontEnd::new(service, "owner-secret", now));
    let server = Endpoint::bind(
        front.clone(),
        EndpointScope::Public,
        HttpServerConfig::default(),
    )
    .unwrap();

    // Service discovery (§VII-B): the TS itself publishes the contract
    // metadata, and the client reads it over the wire via `discover`.
    front.publish(
        target.address,
        ContractMetadata {
            name: "BenchTarget".into(),
            compiler: "smacs-chain 0.1".into(),
            service_urls: vec![server.url()],
        },
    );
    let api = HttpClient::connect(server.addr());
    let metadata = api
        .discover(target.address)
        .unwrap()
        .expect("TS discoverable");
    assert_eq!(metadata.service_urls, vec![server.url()]);
    // The published URL round-trips into a working client.
    let api = FailoverClient::from_urls(&metadata.service_urls).unwrap();

    // Client side: fetch a token over HTTP through the caching fetcher.
    let api: Arc<dyn TsApi> = Arc::new(api);
    let fetcher = TokenFetcher::new(api.clone());
    let request =
        TokenRequest::method_token(target.address, alice.address(), BenchTarget::PING_SIG);
    let token = fetcher.fetch(&request, now).expect("alice whitelisted");

    // Spend it on-chain.
    let payload = BenchTarget::ping_payload(19, 23);
    let receipt = alice
        .call_with_token(&mut chain, target.address, 0, &payload, token)
        .unwrap();
    assert!(receipt.status.is_success(), "{:?}", receipt.status);

    // A second call is served from the client-side cache — same token, no
    // extra round trip.
    let again = fetcher.fetch(&request, now).unwrap();
    assert_eq!(again, token);
    assert_eq!(fetcher.stats(), (1, 1));

    // Owner rotates the rules over the same API: alice is revoked.
    assert_eq!(
        api.set_rules("wrong-secret", RuleBook::deny_all())
            .unwrap_err()
            .code,
        ErrorCode::Unauthorized
    );
    api.set_rules("owner-secret", RuleBook::deny_all()).unwrap();
    let err = api.issue(&request).unwrap_err();
    assert_eq!(err.code, ErrorCode::RuleViolation);

    server.shutdown();
}

/// Protocol v1 is gone: the unversioned bodies the seed's clients sent,
/// byte for byte and one request per `Connection: close` connection as
/// they sent them, each get a v2 `unsupported_version` envelope from a live
/// endpoint — and change nothing: no index is burned, no rule is replaced.
#[test]
fn v1_bodies_get_unsupported_version_over_http() {
    let service = TokenService::new(
        Keypair::from_seed(5_002),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    let front = Arc::new(FrontEnd::new(service, "owner-secret", 0));
    let server = Endpoint::bind(front, EndpointScope::Public, HttpServerConfig::default()).unwrap();

    let issue =
        TokenRequest::super_token(Address::from_low_u64(0xC0), Address::from_low_u64(1)).one_time();
    for body in [
        r#"{"op":"issue_token","request":{"ttype":"super","contract":"0x00000000000000000000000000000000000000c0","sender":"0x0000000000000000000000000000000000000001","method":null,"args":[],"calldata":null,"one_time":true}}"#,
        r#"{"op":"set_rules","owner_secret":"owner-secret","rules":{"types":{}}}"#,
        r#"{"op":"ping"}"#,
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap(); // the server hangs up
        let json = &response[response.find("\r\n\r\n").unwrap() + 4..];
        let envelope: ResponseEnvelope = smacs::primitives::json::from_str(json).unwrap();
        assert!(!envelope.ok, "{response}");
        assert_eq!(envelope.error.unwrap().code, ErrorCode::UnsupportedVersion);
    }

    // The v1 issue burned no index and the v1 deny-all changed no rule.
    let token = HttpClient::connect(server.addr()).issue(&issue).unwrap();
    assert_eq!(token.index, 0);
    server.shutdown();
}

/// One-time issuance through a replicated counter cluster keeps indexes
/// unique across leader failure, and the tokens spend correctly on-chain.
#[test]
fn replicated_counter_backed_one_time_tokens() {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let alice = ClientWallet::new(chain.funded_keypair(2, 10u128.pow(24)));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(5_001));
    let (target, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(BenchTarget), &small_shield())
        .unwrap();

    let nodes: Vec<_> = (0..3).map(|_| CounterNode::new()).collect();
    let cluster = CounterCluster::from_nodes(nodes.clone());
    let service = FrontEnd::new(
        TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_replicated_counter(cluster.clone()),
        "owner-secret",
        chain.pending_env().timestamp,
    );

    let payload = BenchTarget::ping_payload(1, 1);
    let request = TokenRequest::argument_token(
        target.address,
        alice.address(),
        BenchTarget::PING_SIG,
        vec![],
        payload.clone(),
    )
    .one_time();

    // Two tokens before the leader dies, two after: indexes stay unique,
    // all four spend exactly once.
    let mut tokens = Vec::new();
    tokens.push(service.issue(&request).unwrap());
    tokens.push(service.issue(&request).unwrap());
    nodes[0].crash();
    tokens.push(service.issue(&request).unwrap());
    tokens.push(service.issue(&request).unwrap());

    let mut seen = std::collections::HashSet::new();
    for token in &tokens {
        assert!(seen.insert(token.index), "index {} duplicated", token.index);
    }
    for token in tokens {
        let receipt = alice
            .call_with_token(&mut chain, target.address, 0, &payload, token)
            .unwrap();
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        // And never twice.
        let receipt = alice
            .call_with_token(&mut chain, target.address, 0, &payload, token)
            .unwrap();
        assert!(!receipt.status.is_success());
    }

    // Quorum loss fails closed.
    nodes[1].crash();
    assert_eq!(
        service.issue(&request).unwrap_err().code,
        ErrorCode::CounterUnavailable
    );
}

/// The Fig. 4 pipeline: a legacy Solidity source transforms into a
/// SMACS-enabled source whose semantics match the runtime shield's.
#[test]
fn adoption_tool_and_shield_agree_on_what_is_guarded() {
    let legacy = r#"
        contract Wallet {
            mapping(address=>uint) balance;
            function deposit() public payable {
                balance[msg.sender] += msg.value;
            }
            function sweep() external {
                drain();
            }
            function drain() public {
                balance[msg.sender] = 0;
            }
            function audit() internal {
                drain();
            }
        }
    "#;
    let unit = smacs::lang::parse(legacy).unwrap();
    let enabled = smacs::lang::smacs_enable(&unit);
    let contract = enabled.contract("Wallet").unwrap();

    // Every externally callable method is guarded…
    for name in ["deposit", "sweep", "drain"] {
        let f = contract.function(name).unwrap();
        assert_eq!(
            f.params.last().map(|p| p.name.as_str()),
            Some("token"),
            "{name} must take a token"
        );
    }
    // …and exactly the internally-called public method was split.
    assert!(contract.function("_drain").is_some());
    assert!(contract.function("_deposit").is_none());
    assert!(contract.function("_sweep").is_none());
    // The internal auditor calls the private half (no re-verification),
    // mirroring how the runtime shield only guards the message-call
    // boundary.
    let printed = smacs::lang::print_source(&enabled);
    let audit_src = &printed[printed.find("function audit").unwrap()..];
    assert!(audit_src.contains("_drain()"));
}
