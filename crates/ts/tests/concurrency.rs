//! Concurrency stress: many client threads hammering one pooled
//! [`Endpoint`] with `issue` and `issue_batch`, checking the three
//! properties the worker-pool refactor must preserve:
//!
//! 1. every request gets exactly one response (no lost or duplicated
//!    replies across parking/promotion cycles);
//! 2. one-time indexes stay globally unique under parallel signing
//!    (atomic allocation, no replay through the fan-out);
//! 3. shutdown joins cleanly with the pool draining — no hang, no panic.

use smacs_crypto::Keypair;
use smacs_primitives::{Address, WorkerPool};
use smacs_token::TokenRequest;
use smacs_ts::front::{EndpointScope, FrontEnd};
use smacs_ts::{
    Endpoint, HttpClient, HttpServerConfig, RuleBook, TokenService, TokenServiceConfig, TsApi,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn front(seed: u64) -> Arc<FrontEnd> {
    let service = TokenService::new(
        Keypair::from_seed(seed),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    Arc::new(FrontEnd::new(service, "stress-owner", 0))
}

fn serve(front: Arc<FrontEnd>, config: HttpServerConfig) -> Endpoint {
    Endpoint::bind(front, EndpointScope::Public, config).unwrap()
}

fn four_workers() -> HttpServerConfig {
    HttpServerConfig {
        workers: 4,
        ..HttpServerConfig::default()
    }
}

fn one_time_request(sender: u64) -> TokenRequest {
    TokenRequest::super_token(Address::from_low_u64(0xC0), Address::from_low_u64(sender)).one_time()
}

#[test]
fn hammering_clients_get_unique_indexes_and_clean_shutdown() {
    const CLIENTS: usize = 8;
    const SINGLES: usize = 12;
    const BATCHES: usize = 3;
    const BATCH: usize = 16;

    let server = serve(front(77), four_workers());
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS as u64)
        .map(|t| {
            std::thread::spawn(move || {
                let client = HttpClient::connect(addr);
                let mut indexes = Vec::new();
                for i in 0..SINGLES as u64 {
                    let token = client
                        .issue(&one_time_request(1_000 * t + i))
                        .expect("single issue");
                    indexes.push(token.index);
                }
                for b in 0..BATCHES as u64 {
                    let requests: Vec<TokenRequest> = (0..BATCH as u64)
                        .map(|i| one_time_request(100_000 * t + 1_000 * b + i))
                        .collect();
                    let results = client.issue_batch(&requests).expect("batch envelope");
                    assert_eq!(results.len(), BATCH, "one outcome per batch item");
                    for result in results {
                        indexes.push(result.expect("batch item minted").index);
                    }
                }
                indexes
            })
        })
        .collect();

    let mut all_indexes: Vec<i128> = Vec::new();
    for handle in handles {
        all_indexes.extend(handle.join().expect("client thread panicked"));
    }

    // Every request answered exactly once…
    let expected = CLIENTS * (SINGLES + BATCHES * BATCH);
    assert_eq!(all_indexes.len(), expected);
    // …and every one-time index globally unique.
    all_indexes.sort_unstable();
    all_indexes.dedup();
    assert_eq!(
        all_indexes.len(),
        expected,
        "one-time indexes repeated under concurrency"
    );

    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown did not drain promptly: {:?}",
        start.elapsed()
    );
}

#[test]
fn one_pool_can_serve_connections_and_fan_out_signing() {
    // The tentpole wiring: connections and batch signing share one pool.
    // A batch arriving over HTTP is signed via scope_map *from inside* a
    // pool worker — caller participation must keep that deadlock-free
    // even with every worker busy.
    let pool = WorkerPool::new(2, 256);
    let service = TokenService::new(
        Keypair::from_seed(78),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    )
    .with_pool(pool.clone());
    let front = Arc::new(FrontEnd::new(service, "stress-owner", 0));
    let server = serve(
        front,
        HttpServerConfig {
            pool: Some(pool.clone()),
            ..HttpServerConfig::default()
        },
    );

    let client = HttpClient::connect(server.addr());
    let requests: Vec<TokenRequest> = (0..64).map(|i| one_time_request(500 + i)).collect();
    let results = client
        .issue_batch(&requests)
        .expect("batch over shared pool");
    assert_eq!(results.len(), 64);
    let mut indexes: Vec<i128> = results
        .into_iter()
        .map(|r| r.expect("minted").index)
        .collect();
    indexes.sort_unstable();
    indexes.dedup();
    assert_eq!(indexes.len(), 64);

    // Shutting the server down must NOT kill the externally owned pool.
    server.shutdown();
    assert!(
        pool.try_execute(|| {}).is_ok(),
        "shared pool must survive server shutdown"
    );
    pool.shutdown();
}

#[test]
fn rule_swaps_during_concurrent_issuance_are_atomic() {
    // Lock-free snapshots: issuers racing a set_rules flip must each see
    // either the old book or the new one — never a torn mix, never a
    // deadlock. The old book permits supers, the new one denies all.
    let front = front(79);
    let server = serve(front.clone(), HttpServerConfig::default());
    let addr = server.addr();

    // Thread 0 signals after its tenth response; the flip happens then,
    // so every thread still has requests in flight on both sides of it.
    let (warmed_tx, warmed_rx) = std::sync::mpsc::channel::<()>();
    let issuers: Vec<_> = (0..4u64)
        .map(|t| {
            let warmed_tx = warmed_tx.clone();
            std::thread::spawn(move || {
                let client = HttpClient::connect(addr);
                let mut granted = 0usize;
                let mut denied = 0usize;
                for i in 0..40u64 {
                    match client.issue(&one_time_request(10_000 * t + i)) {
                        Ok(_) => granted += 1,
                        Err(e) => {
                            assert_eq!(
                                e.code,
                                smacs_ts::ErrorCode::RuleViolation,
                                "unexpected failure: {e:?}"
                            );
                            denied += 1;
                        }
                    }
                    if t == 0 && i == 9 {
                        let _ = warmed_tx.send(());
                    }
                }
                (granted, denied)
            })
        })
        .collect();

    warmed_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("issuers never warmed up");
    front.service().set_rules(RuleBook::deny_all());

    let mut total_granted = 0;
    let mut total_denied = 0;
    for handle in issuers {
        let (granted, denied) = handle.join().expect("issuer thread");
        total_granted += granted;
        total_denied += denied;
    }
    assert_eq!(total_granted + total_denied, 4 * 40);
    assert!(total_granted >= 10, "the permissive book never served");
    assert!(total_denied > 0, "the deny-all swap never took effect");
    server.shutdown();
}

#[test]
fn connection_storm_does_not_stall_batch_signing() {
    // The reactor's priority split under fire: with hundreds of idle
    // keep-alive connections parked in the epoll set, an accept storm
    // (a burst of fresh connections, each served once) rides the
    // low-priority lane while `issue_batch` keeps flowing through the
    // high-priority lane. Every request — batch and storm — must be
    // answered (nothing dropped), and batch latency must not collapse.
    const PARKED: usize = 300;
    const STORM_THREADS: usize = 4;
    const STORM_PER_THREAD: usize = 50;
    const BATCHES: usize = 24;
    const BATCH: usize = 8;

    let server = serve(front(80), four_workers());
    let addr = server.addr();

    // Fill the epoll set: hundreds of established, idle connections.
    let parked: Vec<HttpClient> = (0..PARKED).map(|_| HttpClient::connect(addr)).collect();
    for client in &parked {
        client.ping().expect("establish parked connection");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.parked_connections() < PARKED {
        assert!(
            Instant::now() < deadline,
            "only {} of {PARKED} connections parked",
            server.parked_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Batch issuance flows for the whole duration of the storm.
    let signer = std::thread::spawn(move || {
        let client = HttpClient::connect(addr);
        let mut latencies = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES as u64 {
            let requests: Vec<TokenRequest> = (0..BATCH as u64)
                .map(|i| one_time_request(7_000_000 + 1_000 * b + i))
                .collect();
            let start = Instant::now();
            let results = client.issue_batch(&requests).expect("batch under storm");
            latencies.push(start.elapsed());
            assert_eq!(results.len(), BATCH, "batch item lost under storm");
            for result in results {
                result.expect("batch item minted under storm");
            }
        }
        latencies
    });

    // The storm: four threads each opening a burst of fresh connections,
    // every one of which must be accepted and served.
    let storm: Vec<_> = (0..STORM_THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..STORM_PER_THREAD {
                    HttpClient::connect(addr).ping().expect("storm request");
                }
            })
        })
        .collect();
    for handle in storm {
        handle.join().expect("storm thread panicked");
    }

    let mut latencies = signer.join().expect("signer thread panicked");
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    // Generous ceiling — the point is "accepts did not starve signing",
    // not a microbenchmark. Debug builds sign ~100× slower.
    let bound = if cfg!(debug_assertions) {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(1)
    };
    assert!(
        p99 < bound,
        "batch p99 {p99:?} collapsed under the accept storm"
    );

    drop(parked);
    server.shutdown();
}
