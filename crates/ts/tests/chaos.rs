//! Chaos suite: the §VII-B availability claims, proven over the real wire
//! path against a live [`ReplicaSet`] with injected faults.
//!
//! Each test pins one invariant from the failure model (`smacs_ts` crate
//! docs):
//!
//! 1. replica loss is transparent to a failover client, and one-time
//!    indexes stay globally unique across the failover;
//! 2. counter-quorum loss fails *closed* for one-time issuance (v2
//!    `counter_unavailable` over the wire) while expiry issuance keeps
//!    working, and recovery restores full service;
//! 3. a one-time issue whose response was lost is **not** blind-retried —
//!    at most one counter index is burned (at-most-once);
//! 4. a hung replica surfaces as a distinguishable read-timeout transport
//!    error instead of blocking forever;
//! 5. a circuit breaker stops paying a dead replica's timeout on every
//!    call;
//! 6. a replica that crashed mid-commit (vote WAL-logged at a minority,
//!    coordinator dead) recovers from its WAL and the burned index is
//!    skipped, never re-issued;
//! 7. an asymmetric vote partition fails closed exactly where votes
//!    cannot flow, while replicas that still reach a majority keep
//!    issuing;
//! 8. delayed and duplicated vote deliveries never yield a duplicate
//!    one-time index;
//! 9. a torn WAL tail is discarded on recovery and the node re-fetches
//!    the lost frontier from its peers over the wire;
//! 10. request-side [`smacs_ts::FaultPlan`] faults (drop, delay) still
//!     fire on connections that were parked in the epoll reactor — the
//!     readiness rewrite moved the transport, not the injection points.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smacs_crypto::Keypair;
use smacs_primitives::Address;
use smacs_token::TokenRequest;
use smacs_ts::{
    BreakerConfig, ErrorCode, FailoverClient, HttpClient, HttpClientConfig, ReplicaSet,
    ReplicaSetConfig, RetryPolicy, RuleBook, TsApi,
};

fn contract() -> Address {
    Address::from_low_u64(0xC0FFEE)
}

fn request(low: u64) -> TokenRequest {
    TokenRequest::super_token(contract(), Address::from_low_u64(low))
}

fn set() -> ReplicaSet {
    ReplicaSet::start(
        Keypair::from_seed(4242),
        RuleBook::permissive(),
        ReplicaSetConfig::default(),
    )
    .unwrap()
}

/// Snappy client tuning so failure paths resolve in test time, not in
/// production-scale timeouts.
fn fast_client(set: &ReplicaSet) -> FailoverClient {
    FailoverClient::with_config(
        set.addrs(),
        HttpClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
        },
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            deadline: Duration::from_secs(10),
        },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(2),
        },
    )
}

/// Invariant 1: killing a replica mid-load is transparent to the failover
/// client, and no one-time index is ever issued twice across the set.
#[test]
fn failover_mid_load_keeps_one_time_indexes_unique() {
    let mut set = set();
    let client = Arc::new(fast_client(&set));

    // Warm every endpoint, then hammer one-time issuance from 4 threads
    // while replica 0 dies partway through.
    client.ping().unwrap();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let client = client.clone();
        handles.push(std::thread::spawn(move || {
            let mut indexes = Vec::new();
            for i in 0..40u64 {
                match client.issue(&request(1 + t * 1000 + i).one_time()) {
                    Ok(token) => indexes.push(token.index),
                    // A one-time issue caught mid-kill may legitimately
                    // fail (at-most-once forbids blind replay) — losing a
                    // token is acceptable, duplicating one is not.
                    Err(e) => assert!(
                        matches!(e.code, ErrorCode::Transport | ErrorCode::Internal),
                        "unexpected failure during failover: {e:?}"
                    ),
                }
            }
            indexes
        }));
    }
    std::thread::sleep(Duration::from_millis(30));
    set.kill(0);

    let mut seen = HashSet::new();
    let mut minted = 0usize;
    for handle in handles {
        for index in handle.join().unwrap() {
            assert!(seen.insert(index), "duplicate one-time index {index}");
            minted += 1;
        }
    }
    // The surviving majority must have kept the vast majority of traffic
    // flowing (most calls either hit live replicas or failed over on a
    // connect-phase error).
    assert!(minted >= 100, "only {minted}/160 issues succeeded");

    // And post-kill, issuance through the survivors is fully healthy.
    let token = client.issue(&request(999_999).one_time()).unwrap();
    assert!(seen.insert(token.index));
    set.shutdown();
}

/// Invariant 2: losing counter quorum degrades exactly one-time issuance
/// (fail-closed, `counter_unavailable` over the wire); expiry issuance
/// keeps working; healing the partition restores everything.
#[test]
fn quorum_loss_fails_closed_and_recovers() {
    let set = set();
    let client = fast_client(&set);

    client.issue(&request(1).one_time()).unwrap();

    // Partition two of three counter nodes away: replicas keep serving
    // HTTP, but the counter group has no majority.
    set.partition_counter(1);
    set.partition_counter(2);
    assert!(!set.has_quorum());

    let err = client.issue(&request(2).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::CounterUnavailable);
    // Degradation is partial: tokens that need no counter still mint, on
    // every replica.
    for addr in set.addrs() {
        HttpClient::connect(addr).issue(&request(3)).unwrap();
    }

    // Heal: quorum returns, one-time issuance resumes, and the recovered
    // nodes are caught up (no index reuse).
    set.heal_counter(1).unwrap();
    set.heal_counter(2).unwrap();
    assert!(set.has_quorum());
    let before = set.counter().committed();
    let token = client.issue(&request(4).one_time()).unwrap();
    assert_eq!(token.index as u64 + 1, set.counter().committed());
    assert_eq!(set.counter().committed(), before + 1);
    set.shutdown();
}

/// Invariant 3 (at-most-once): a one-time issue whose response is lost
/// after dispatch is surfaced as a transport error — not replayed on
/// another replica — and burns exactly one counter index.
#[test]
fn lost_response_one_time_issue_is_never_replayed() {
    let set = set();
    let client = fast_client(&set);
    client.ping().unwrap();

    let before = set.counter().committed();
    // Every replica truncates its next response: wherever the call lands,
    // the token is minted but the answer dies on the wire.
    for id in 0..set.len() {
        set.faults(id).truncate_responses(1);
    }
    let err = client.issue(&request(50).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::Transport);
    // Exactly one index was burned: the client did not blind-retry the
    // non-idempotent issue on the other (equally armed) replicas.
    assert_eq!(
        set.counter().committed(),
        before + 1,
        "a lost-response one-time issue must burn exactly one index"
    );
    for id in 0..set.len() {
        set.faults(id).clear();
    }

    // The same lost-response fault on an *expiry* issue is retried freely
    // (re-minting is byte-identical) and succeeds without burning indexes.
    set.faults(0).truncate_responses(1);
    set.faults(1).truncate_responses(1);
    client.issue(&request(51)).unwrap();
    assert_eq!(set.counter().committed(), before + 1);
    set.shutdown();
}

/// Invariant 4: a replica that accepts but never answers within the read
/// timeout surfaces a distinguishable "timed out" transport error.
#[test]
fn hung_replica_surfaces_a_read_timeout() {
    let set = set();
    // Single-endpoint client with a 200 ms read ceiling, no retries.
    let client = FailoverClient::with_config(
        vec![set.addrs()[0]],
        HttpClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(500),
        },
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        BreakerConfig::default(),
    );
    client.ping().unwrap();

    set.faults(0).delay_responses(Duration::from_secs(5));
    let start = Instant::now();
    let err = client.issue(&request(60).one_time()).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(err.code, ErrorCode::Transport);
    assert!(
        err.message.contains("timed out"),
        "timeout must be distinguishable from other transport failures: {}",
        err.message
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "read timeout must bound the wait, took {elapsed:?}"
    );
    set.faults(0).clear();
    set.shutdown();
}

/// Invariant 5: after a replica dies, its circuit breaker opens and later
/// calls stop paying its timeout — they go straight to the survivors.
#[test]
fn circuit_breaker_sheds_a_dead_replica() {
    let mut set = set();
    let client = FailoverClient::with_config(
        set.addrs(),
        HttpClientConfig {
            connect_timeout: Duration::from_millis(400),
            read_timeout: Duration::from_millis(400),
            write_timeout: Duration::from_millis(400),
        },
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(10),
        },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(30),
        },
    );
    client.ping().unwrap();
    set.kill(2);

    // Drive enough pings that the round-robin cursor visits the corpse at
    // least failure_threshold times.
    for _ in 0..12 {
        client.ping().unwrap();
    }
    assert_eq!(
        client.open_breakers(),
        1,
        "dead replica's breaker must open"
    );

    // With the breaker open, a burst of calls never touches the dead
    // endpoint: 20 pings complete far faster than a single connect
    // timeout would allow if each still probed it.
    let start = Instant::now();
    for _ in 0..20 {
        client.ping().unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "open breaker must skip the dead replica, burst took {:?}",
        start.elapsed()
    );
    set.shutdown();
}

/// Invariant 6 (crash-mid-commit): a vote that was WAL-logged at one node
/// just before everything around it died must survive that node's crash —
/// the burned index is skipped on recovery, never handed out again.
#[test]
fn crash_mid_commit_recovers_from_wal_without_reissuing() {
    let mut set = set();
    let client = fast_client(&set);
    for low in 1..=3 {
        client.issue(&request(low).one_time()).unwrap();
    }
    assert_eq!(set.counter().committed(), 3);

    // A coordinator's commit(3) reached node 0 (vote fsynced to its WAL)
    // and then the coordinator died before gathering a quorum: index 3 is
    // burned at a minority.
    assert!(set.counter_node(0).commit(3).unwrap().accepted);
    // Node 0 itself now crashes. Its RAM view of the vote dies with it.
    set.kill(0);
    set.recover(0).unwrap();

    // Recovery replayed the WAL: the minority-burned vote is still there,
    // so the next allocation moves past index 3 instead of re-issuing it.
    assert_eq!(set.counter_node(0).committed(), 4);
    let token = client.issue(&request(9).one_time()).unwrap();
    assert_eq!(
        token.index, 4,
        "a minority-burned, WAL-logged index must be skipped, not re-issued"
    );
    set.shutdown();
}

/// Invariant 7 (asymmetric partition): replica 0 cannot send votes to its
/// peers, but its peers still reach replica 0's vote endpoint. One-time
/// issuance through replica 0 fails closed; through the others it keeps
/// working — and replica 0's node keeps voting for them.
#[test]
fn asymmetric_vote_partition_fails_closed_only_where_votes_cannot_flow() {
    let set = set();
    let r0 = HttpClient::connect(set.addrs()[0]);
    let r1 = HttpClient::connect(set.addrs()[1]);
    let mut indexes = HashSet::new();
    assert!(indexes.insert(r0.issue(&request(1).one_time()).unwrap().index));

    // Cut replica 0's *outgoing* vote links only.
    let vote_addr = |id| set.counter_addr(id);
    set.faults(0).partition_addr(vote_addr(1));
    set.faults(0).partition_addr(vote_addr(2));

    // Replica 0 can only reach itself: below quorum, fail closed — while
    // its expiry issuance (no coordination) keeps working.
    let err = r0.issue(&request(2).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::CounterUnavailable);
    r0.issue(&request(2)).unwrap();

    // The partition is one-way: replica 1 still reaches all three vote
    // endpoints, including replica 0's, and issues freely.
    for low in 3..=5 {
        assert!(indexes.insert(r1.issue(&request(low).one_time()).unwrap().index));
    }
    // Replica 0's node voted for those commits (its frontier moved), even
    // though replica 0 itself cannot coordinate.
    assert_eq!(set.counter_node(0).committed(), 4);

    // Heal the links: replica 0 coordinates again, still duplicate-free.
    set.faults(0).heal_addr(vote_addr(1));
    set.faults(0).heal_addr(vote_addr(2));
    assert!(indexes.insert(r0.issue(&request(6).one_time()).unwrap().index));
    assert_eq!(indexes.len(), 5);
    set.shutdown();
}

/// Invariant 8: delayed (reordered relative to the other peer) and
/// duplicated vote deliveries are no-ops for uniqueness — concurrent
/// issuance through two coordinators stays duplicate-free.
#[test]
fn delayed_and_duplicated_votes_never_duplicate_an_index() {
    let set = set();
    let vote_addr = |id| set.counter_addr(id);
    // Replica 0's votes to replica 1 lag behind its votes to replica 2,
    // and both coordinators double-send a budget of votes.
    set.faults(0)
        .delay_votes_to(vote_addr(1), Duration::from_millis(20));
    set.faults(0).duplicate_votes(16);
    set.faults(1).duplicate_votes(16);

    let mut handles = Vec::new();
    for (t, addr) in [set.addrs()[0], set.addrs()[1]].into_iter().enumerate() {
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::connect(addr);
            (0..10u64)
                .map(|i| {
                    client
                        .issue(&request(100 + t as u64 * 100 + i).one_time())
                        .unwrap()
                        .index
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut seen = HashSet::new();
    for handle in handles {
        for index in handle.join().unwrap() {
            assert!(seen.insert(index), "duplicate one-time index {index}");
        }
    }
    assert_eq!(seen.len(), 20);
    set.shutdown();
}

/// Invariant 9 (torn write): a replica crashes with a torn/corrupted WAL
/// tail. Recovery discards the unverifiable tail rather than trusting it,
/// then re-fetches the lost frontier from its peers via `counter_catchup`
/// — so even state the local disk lost cannot be re-issued.
#[test]
fn torn_wal_tail_is_discarded_and_refetched_over_the_wire() {
    let wal_dir = std::env::temp_dir().join(format!("smacs-chaos-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut set = ReplicaSet::start(
        Keypair::from_seed(4242),
        RuleBook::permissive(),
        ReplicaSetConfig {
            wal_dir: Some(wal_dir.clone()),
            ..ReplicaSetConfig::default()
        },
    )
    .unwrap();
    let client = fast_client(&set);
    for low in 1..=5 {
        client.issue(&request(low).one_time()).unwrap();
    }
    set.kill(0);

    // The crash tore replica 0's log: its final record is half-written
    // garbage, and the record before that lost a bit of its checksum.
    let wal_path = wal_dir.join("counter-0.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!(bytes.len(), 5 * 12, "five records of twelve bytes");
    let crc_byte = bytes.len() - 4;
    bytes[crc_byte] ^= 0x40;
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&wal_path, &bytes).unwrap();

    set.recover(0).unwrap();
    // WAL replay alone could only prove 4 commits (the corrupted fifth
    // record and the torn tail are discarded) — the wire catch-up closed
    // the gap back to 5.
    assert_eq!(
        set.counter_node(0).committed(),
        5,
        "recovery must re-fetch what the torn tail lost"
    );
    let token = client.issue(&request(9).one_time()).unwrap();
    assert_eq!(token.index, 5, "no index may come back from the dead");
    set.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Full-path integration: discovery hands a wallet the replica directory,
/// and the resulting failover client survives a kill + recover cycle.
#[test]
fn discovered_directory_survives_kill_and_recovery() {
    let mut set = set();
    set.publish(contract(), "ChaosVault");

    // Bootstrap from one seed replica, as a wallet would.
    let seed = HttpClient::connect(set.addrs()[1]);
    let client = FailoverClient::discover_replicas(&seed, contract())
        .unwrap()
        .expect("directory published");
    assert_eq!(client.endpoint_count(), set.len());

    client.issue(&request(70)).unwrap();
    set.kill(0);
    client.issue(&request(71)).unwrap();
    set.recover(0).unwrap();
    // The recovered replica answers on its original address — the one the
    // discovered directory still names.
    HttpClient::connect(set.addrs()[0]).ping().unwrap();
    client.issue(&request(72).one_time()).unwrap();
    set.shutdown();
}

/// Invariant 10: the reactor rewrite must not strand the fault hooks.
/// A connection that has been parked in the epoll set and woken by
/// readiness serves its next request through the same `FaultPlan`
/// gauntlet as before: an armed drop severs exactly one request, an
/// armed delay stalls the response.
#[test]
fn request_faults_fire_on_connections_parked_in_the_reactor() {
    let set = set();
    let client = HttpClient::connect(set.addrs()[0]);
    // Establish and let the connection park (keep-alive grace is ~1 ms;
    // the pause guarantees the next request arrives via epoll readiness,
    // not the same serving turn).
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Drop: the one-time issue is NOT idempotent, so the client must
    // surface the severed connection instead of blind-retrying.
    set.faults(0).drop_requests(1);
    let err = client.issue(&request(90).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::Transport, "drop fault did not fire");

    // The client reconnects; park again, then prove delay fires on the
    // freshly parked connection too.
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    set.faults(0).delay_responses(Duration::from_millis(200));
    let start = Instant::now();
    client.ping().unwrap();
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "delay fault did not fire: {:?}",
        start.elapsed()
    );
    set.faults(0).clear();

    // With faults cleared the same parked connection serves normally and
    // the dropped request burned no index.
    std::thread::sleep(Duration::from_millis(50));
    let token = client.issue(&request(91).one_time()).unwrap();
    assert_eq!(token.index, 0, "dropped request must not burn an index");
    set.shutdown();
}
