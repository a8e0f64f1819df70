//! A replicated Token Service: N issuing nodes that survive failures
//! (§VII-B availability).
//!
//! "A TS service can be easily replicated as all its replicas can share
//! the same service key pair" — a [`ReplicaSet`] runs `n` full
//! [`TokenService`] instances, each behind its own [`Endpoint`] on its
//! own port, wired so the set behaves as one logical service:
//!
//! - **one signing identity**: every replica holds the same `sk_TS`, so a
//!   token minted anywhere verifies against the one `pk_TS` the shielded
//!   contract stores;
//! - **shared, sharded rule books** ([`ShardedRules`]): rules are sharded
//!   by contract address, each shard an `EpochCell` all replicas hold by
//!   `Arc` — an owner's `set_rules` through *any* replica propagates to
//!   all of them without stopping issuance anywhere;
//! - **quorum one-time counters** ([`CounterCluster`]): one-time indexes
//!   are allocated through a majority-quorum replicated counter with one
//!   counter node per replica. Lose a minority and issuance continues;
//!   lose a majority and one-time issuance *fails closed* with
//!   [`crate::api::ErrorCode::CounterUnavailable`] while expiry-token
//!   issuance keeps flowing — degraded, not dead;
//! - **discovery**: [`ReplicaSet::publish`] stamps every replica's
//!   directory with the full replica URL list, so any reachable replica
//!   can hand a client the directory it needs to fail over.
//!
//! ## The counter quorum is on the wire
//!
//! Counter votes are real protocol-v2 messages: each replica serves the
//! `counter_prepare` / `counter_commit` / `counter_catchup` op family on a
//! **dedicated vote endpoint** (its own [`Endpoint`] with a small private
//! pool, so issuance load can never starve vote processing into a
//! distributed deadlock). The vote op family is served *only* there: the
//! client-facing listeners run with
//! [`crate::front::EndpointScope::Public`] and refuse `counter_*` with
//! `counter_unavailable`, so a hostile client cannot vote indexes burned
//! or skipped. Each replica's coordinator reaches its peers through a wire
//! [`CounterTransport`] — its own node stays a [`LocalTransport`], since
//! a replica never loses the network to itself. Every node write-ahead
//! logs its commits ([`crate::wal::Wal`], fsync before ack), so
//! [`ReplicaSet::recover`] rebuilds a crashed replica's vote state from
//! its WAL (RAM is explicitly discarded) and then catches it up past any
//! indexes it missed via `counter_catchup`. (The shared-memory
//! [`LocalTransport`] cluster, [`CounterCluster::new`], is the unit-test
//! seam; a `ReplicaSet` always votes over the wire.)
//!
//! The *sending* side of every wire transport consults its replica's
//! [`FaultPlan`] per peer address, which is how the chaos suite drives
//! asymmetric partitions ([`FaultPlan::partition_addr`]), delayed/
//! reordered votes ([`FaultPlan::delay_votes_to`]), and duplicated votes
//! ([`FaultPlan::duplicate_votes`]) without faking anything above the
//! transport.
//!
//! [`ReplicaSet::kill`] takes a replica off the network (both listeners
//! closed, its counter node crashed); [`ReplicaSet::recover`] brings it
//! back *on the same addresses* with its counter state replayed from WAL
//! and caught up, so clients holding the old directory reconnect without
//! re-discovery. [`ReplicaSet::partition_counter`] fails only the counter
//! node — the replica keeps serving, modelling a network partition
//! between the consensus group and one member.
//!
//! Replicas live in one process here (this is a simulator), but nothing
//! crosses between their counter nodes except TCP — the shared `Arc`s are
//! limited to the signing key and rule shards a real deployment would
//! distribute out of band.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use smacs_crypto::Keypair;
use smacs_primitives::json::{FromJson, Json, ToJson};
use smacs_primitives::Address;

use crate::api::{CounterCommitBody, CounterStateBody, CounterVoteBody};
use crate::discovery::ContractMetadata;
use crate::fault::FaultPlan;
use crate::front::{EndpointScope, FrontEnd};
use crate::http::{Endpoint, HttpClient, HttpClientConfig, HttpServerConfig};
use crate::replica::{CommitReply, CounterCluster, CounterNode, CounterTransport, LocalTransport};
use crate::rules::RuleBook;
use crate::service::{ShardedRules, TokenService, TokenServiceConfig};

/// Distinguishes WAL directories of concurrently running sets in one
/// process (the test suite starts many).
static SET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// How one-time counter votes travel between replicas. There is one way:
/// the type and [`ReplicaSetConfig::counter_mode`] remain only because
/// the benchmark's `onetime_quorum` workload names `CounterMode::Wire`,
/// and both go once that workload stops naming it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterMode {
    /// Votes are protocol-v2 `counter_*` ops over TCP against each
    /// replica's dedicated vote endpoint; commits are WAL-durable — the
    /// distributed protocol the chaos suite certifies.
    Wire,
}

/// Tuning for [`ReplicaSet::start`].
#[derive(Clone)]
pub struct ReplicaSetConfig {
    /// Number of replicas (HTTP servers *and* counter nodes).
    pub replicas: usize,
    /// Number of rule shards (contract address → shard).
    pub rule_shards: usize,
    /// Base owner bearer secret. Replicas do **not** share it verbatim:
    /// replica `id` accepts only the derived credential
    /// `{owner_secret}-r{id}` (see [`ReplicaSet::owner_secret`]), so a
    /// credential lifted from one replica's config names the replica it
    /// came from and is revoked by killing that one replica — no
    /// fleet-wide secret rotation.
    pub owner_secret: String,
    /// Per-replica service tuning.
    pub service: TokenServiceConfig,
    /// Per-replica tuning of the client-facing listeners (the set builds
    /// its own vote endpoints). `bind` and `faults` are managed by the set
    /// and must be left `None`.
    pub http: HttpServerConfig,
    /// Initial TS-local clock.
    pub now: u64,
    /// How counter votes travel: always [`CounterMode::Wire`], and not
    /// read. Kept only for the benchmark, which sets it (see
    /// [`CounterMode`]).
    pub counter_mode: CounterMode,
    /// Directory for per-replica counter WALs (`counter-{id}.wal`).
    /// `None`: a fresh per-set temp directory that is removed on
    /// [`ReplicaSet::shutdown`]. `Some(dir)`: logs persist there across
    /// sets (the caller owns cleanup).
    pub wal_dir: Option<PathBuf>,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            replicas: 3,
            rule_shards: 4,
            owner_secret: "replica-owner".into(),
            service: TokenServiceConfig::default(),
            http: HttpServerConfig::default(),
            now: 0,
            counter_mode: CounterMode::Wire,
            wal_dir: None,
        }
    }
}

/// Socket tuning for vote round trips: peers are near (same rack — here,
/// loopback), votes are tiny, and a dead peer should cost a bounded,
/// snappy timeout rather than a client-grade 10 s stall per allocation.
fn vote_client_config() -> HttpClientConfig {
    HttpClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
    }
}

/// Pool sizing for the dedicated vote endpoints: vote handling is a
/// mutex-guarded counter bump plus a WAL append — two workers keep a
/// coordinator and a recovering peer served without stealing cores from
/// issuance. The [`EndpointScope::Vote`] these bind under is what admits
/// the `counter_*` op family: the client-facing listeners stay
/// [`EndpointScope::Public`] and refuse those ops, so outsiders cannot
/// burn index ranges.
fn vote_server_config() -> HttpServerConfig {
    HttpServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..HttpServerConfig::default()
    }
}

/// The wire [`CounterTransport`]: speaks the `counter_*` op family to one
/// peer's vote endpoint over a keep-alive [`HttpClient`], consulting the
/// owning replica's [`FaultPlan`] before every send (address-scoped
/// partition, vote delay, duplicate delivery).
///
/// The target starts unset (peer endpoints aren't known until every vote
/// server is bound) and is filled in once by `ReplicaSet::start`; an
/// unset transport reports the peer unreachable, which fails closed.
struct WireCounterTransport {
    target: Mutex<Option<Arc<HttpClient>>>,
    faults: Arc<FaultPlan>,
}

impl WireCounterTransport {
    fn new(faults: Arc<FaultPlan>) -> Arc<WireCounterTransport> {
        Arc::new(WireCounterTransport {
            target: Mutex::new(None),
            faults,
        })
    }

    fn set_target(&self, addr: SocketAddr) {
        *self.target.lock() = Some(Arc::new(HttpClient::connect_with(
            addr,
            vote_client_config(),
        )));
    }

    /// One vote send, with sender-side fault injection. `idempotent`
    /// gates the transport's replay-on-reconnect: reads are; `commit` is
    /// not (a lost commit ack must surface as "unreachable", not be
    /// silently re-sent and come back `accepted: false`).
    fn call(&self, op: &str, body: Option<Json>, idempotent: bool) -> Option<Json> {
        let client = self.target.lock().clone()?;
        let addr = client.addr();
        if self.faults.is_partitioned(addr) {
            return None;
        }
        if let Some(delay) = self.faults.vote_delay(addr) {
            std::thread::sleep(delay);
        }
        let duplicate = self.faults.take_duplicate_vote();
        let reply = client.call_detailed(op, body.clone(), idempotent).ok();
        if duplicate {
            // Duplicate delivery: the echo reaches the node, its reply is
            // discarded — the vote state machine must treat it as a no-op.
            let _ = client.call_detailed(op, body, idempotent);
        }
        reply
    }
}

impl CounterTransport for WireCounterTransport {
    fn prepare(&self) -> Option<u64> {
        let body = self.call("counter_prepare", None, true)?;
        Some(CounterStateBody::from_json(&body).ok()?.committed)
    }

    fn commit(&self, value: u64) -> Option<CommitReply> {
        let body = self.call(
            "counter_commit",
            Some(CounterCommitBody { value }.to_json()),
            false,
        )?;
        let vote = CounterVoteBody::from_json(&body).ok()?;
        Some(CommitReply {
            accepted: vote.accepted,
            committed: vote.committed,
        })
    }

    fn catchup(&self) -> Option<u64> {
        let body = self.call("counter_catchup", None, true)?;
        Some(CounterStateBody::from_json(&body).ok()?.committed)
    }
}

/// One member of the set.
struct Replica {
    front: Arc<FrontEnd>,
    /// `None` while killed.
    server: Option<Endpoint>,
    /// The address this replica serves on — stable across kill/recover.
    addr: SocketAddr,
    faults: Arc<FaultPlan>,
    /// This replica's counter node (vote state machine).
    node: Arc<CounterNode>,
    /// The dedicated vote endpoint (`None` while killed).
    counter_server: Option<Endpoint>,
    /// The vote endpoint's address — stable across kill/recover.
    counter_addr: SocketAddr,
    /// This replica's coordinator view of the quorum (self local, peers
    /// over the wire).
    cluster: CounterCluster,
}

/// A running replicated Token Service.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    /// Set-level diagnostics view: local transports over every node.
    counter: CounterCluster,
    rules: Arc<ShardedRules>,
    signer: Keypair,
    config: ReplicaSetConfig,
    /// A WAL temp directory this set created and owns (removed on
    /// shutdown); `None` when the caller supplied `wal_dir`.
    owned_wal_dir: Option<PathBuf>,
}

impl ReplicaSet {
    /// Start `config.replicas` issuing nodes sharing `signer`, an initial
    /// `rules` book, a quorum counter, and sharded rule state.
    ///
    /// # Panics
    /// Panics if `config.replicas == 0` or `config.rule_shards == 0`.
    pub fn start(
        signer: Keypair,
        rules: RuleBook,
        config: ReplicaSetConfig,
    ) -> std::io::Result<ReplicaSet> {
        assert!(config.replicas > 0, "need at least one replica");

        // WAL placement: the caller's directory, else an owned temp dir.
        let mut owned_wal_dir = None;
        let wal_dir = match &config.wal_dir {
            Some(dir) => dir.clone(),
            None => {
                let dir = std::env::temp_dir().join(format!(
                    "smacs-replica-wal-{}-{}",
                    std::process::id(),
                    SET_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                owned_wal_dir = Some(dir.clone());
                dir
            }
        };
        std::fs::create_dir_all(&wal_dir)?;

        let mut nodes = Vec::with_capacity(config.replicas);
        for id in 0..config.replicas {
            nodes.push(CounterNode::with_wal(&wal_dir.join(format!("counter-{id}.wal")))?.0);
        }
        let diag = CounterCluster::from_nodes(nodes.clone());

        let shards = ShardedRules::new(config.rule_shards, rules);
        let faults: Vec<Arc<FaultPlan>> = (0..config.replicas).map(|_| FaultPlan::new()).collect();

        // Per-replica coordinator clusters. Replica `i` reaches itself
        // locally and each peer `j` through a wire transport whose target
        // is filled in once the vote endpoints are bound below.
        let mut wires: Vec<(usize, Arc<WireCounterTransport>)> = Vec::new();
        let clusters: Vec<CounterCluster> = (0..config.replicas)
            .map(|i| {
                let members = (0..config.replicas)
                    .map(|j| -> Arc<dyn CounterTransport> {
                        if i == j {
                            Arc::new(LocalTransport(nodes[i].clone()))
                        } else {
                            let wire = WireCounterTransport::new(faults[i].clone());
                            wires.push((j, wire.clone()));
                            wire
                        }
                    })
                    .collect();
                CounterCluster::from_transports(members)
            })
            .collect();

        let mut replicas = Vec::with_capacity(config.replicas);
        for (id, cluster) in clusters.into_iter().enumerate() {
            let service = TokenService::new(
                signer.clone(),
                RuleBook::permissive(), // replaced by the shared shards
                config.service.clone(),
            )
            .with_shared_rules(shards.clone())
            .with_replicated_counter(cluster.clone());
            let front = Arc::new(
                FrontEnd::new(
                    service,
                    Self::derive_secret(&config.owner_secret, id),
                    config.now,
                )
                .with_counter(nodes[id].clone()),
            );
            let counter_server =
                Endpoint::bind(front.clone(), EndpointScope::Vote, vote_server_config())?;
            let counter_addr = counter_server.addr();
            let server = Endpoint::bind(
                front.clone(),
                EndpointScope::Public,
                HttpServerConfig {
                    faults: Some(faults[id].clone()),
                    ..config.http.clone()
                },
            )?;
            let addr = server.addr();
            replicas.push(Replica {
                front,
                server: Some(server),
                addr,
                faults: faults[id].clone(),
                node: nodes[id].clone(),
                counter_server: Some(counter_server),
                counter_addr,
                cluster,
            });
        }

        // Vote endpoints are all bound now — aim every wire transport at
        // its peer.
        for (j, wire) in wires {
            wire.set_target(replicas[j].counter_addr);
        }

        Ok(ReplicaSet {
            replicas,
            counter: diag,
            rules: shards,
            signer,
            config,
            owned_wal_dir,
        })
    }

    /// Number of replicas (live or not).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True iff the set has no replicas (never: `start` requires > 0).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Every replica's address, in replica-id order — stable across
    /// kill/recover cycles.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(|r| r.addr).collect()
    }

    /// Every replica's service URL, in replica-id order.
    pub fn urls(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| format!("http://{}", r.addr))
            .collect()
    }

    /// Replica `id`'s vote-endpoint address. Chaos tests scope
    /// partition/delay faults to these addresses.
    pub fn counter_addr(&self, id: usize) -> SocketAddr {
        self.replicas[id].counter_addr
    }

    /// The address form of the shared `pk_TS`.
    pub fn ts_address(&self) -> Address {
        self.signer.address()
    }

    fn derive_secret(base: &str, id: usize) -> String {
        format!("{base}-r{id}")
    }

    /// The bearer credential replica `id` accepts for admin operations
    /// (`set_rules`). Derived per replica from the configured base secret,
    /// so a leaked credential identifies its source replica and dies with
    /// it ([`ReplicaSet::kill`]) instead of forcing a fleet-wide
    /// rotation. Rule updates made through any one replica still bind all
    /// of them (shared shards) — the blast radius that shrinks is the
    /// *credential's*, not the operation's.
    ///
    /// Owner tooling that drives admin ops through a
    /// [`crate::FailoverClient`] must therefore pin the replica it talks
    /// to (or look the credential up per target): a mid-call failover
    /// lands on a replica that rejects the previous replica's secret.
    pub fn owner_secret(&self, id: usize) -> String {
        Self::derive_secret(&self.config.owner_secret, id)
    }

    /// Replica `id`'s front end (owner-side escape hatch: diagnostics,
    /// clock control).
    pub fn front(&self, id: usize) -> &Arc<FrontEnd> {
        &self.replicas[id].front
    }

    /// Replica `id`'s fault plan (chaos tests arm transport faults here —
    /// including the address-scoped vote faults this replica applies when
    /// *sending* to peers).
    pub fn faults(&self, id: usize) -> &Arc<FaultPlan> {
        &self.replicas[id].faults
    }

    /// Replica `id`'s counter node (vote state machine) — diagnostics and
    /// crash simulation.
    pub fn counter_node(&self, id: usize) -> &Arc<CounterNode> {
        &self.replicas[id].node
    }

    /// The quorum counter's set-level diagnostics view (committed index
    /// count, quorum state). It reads node state directly
    /// — the authoritative view an operator's metrics would aggregate.
    pub fn counter(&self) -> &CounterCluster {
        &self.counter
    }

    /// The shared rule shards.
    pub fn rules(&self) -> &Arc<ShardedRules> {
        &self.rules
    }

    /// Whether replica `id` is currently serving.
    pub fn is_live(&self, id: usize) -> bool {
        self.replicas[id].server.is_some()
    }

    /// Number of replicas currently serving HTTP.
    pub fn live_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.server.is_some()).count()
    }

    /// Kill replica `id`: close its HTTP listeners (client-facing *and*
    /// vote endpoint) and parked connections, finish in-flight requests,
    /// and crash its counter node. Its WAL survives on disk — that is the
    /// point. Idempotent.
    pub fn kill(&mut self, id: usize) {
        if let Some(server) = self.replicas[id].server.take() {
            server.shutdown();
        }
        if let Some(server) = self.replicas[id].counter_server.take() {
            server.shutdown();
        }
        self.replicas[id].node.crash();
    }

    /// Recover replica `id` on the addresses clients already know.
    ///
    /// The counter state is rebuilt the way a real restart would: the
    /// node's in-memory frontier is **discarded** and replayed from its
    /// WAL (torn tail truncated), then caught up past any indexes it
    /// missed via `counter_catchup` through this replica's own transports
    /// — over the wire. Only then do the listeners come
    /// back. The listener ports were freed by [`ReplicaSet::kill`];
    /// rebinding retries briefly in case the OS is slow to release them.
    pub fn recover(&mut self, id: usize) -> std::io::Result<()> {
        let replica = &self.replicas[id];
        replica.node.reload_from_wal()?;
        replica.node.revive();
        // `committed()` polls every member (self locally, peers over the
        // wire) — the max is the cluster frontier to adopt.
        let frontier = replica.cluster.committed();
        replica.node.adopt(frontier)?;

        if replica.counter_server.is_none() {
            let server = Endpoint::bind_retry(
                replica.front.clone(),
                EndpointScope::Vote,
                HttpServerConfig {
                    bind: Some(replica.counter_addr),
                    ..vote_server_config()
                },
            )?;
            self.replicas[id].counter_server = Some(server);
        }
        if self.replicas[id].server.is_none() {
            let server = Endpoint::bind_retry(
                self.replicas[id].front.clone(),
                EndpointScope::Public,
                HttpServerConfig {
                    bind: Some(self.replicas[id].addr),
                    faults: Some(self.replicas[id].faults.clone()),
                    ..self.config.http.clone()
                },
            )?;
            self.replicas[id].server = Some(server);
        }
        Ok(())
    }

    /// Crash only replica `id`'s *counter node* — the replica keeps
    /// serving HTTP (its vote endpoint answers `counter_unavailable`),
    /// but the consensus group lost a member: a partition between the
    /// node and its peers. Enough of these and one-time issuance fails
    /// closed everywhere.
    pub fn partition_counter(&self, id: usize) {
        self.replicas[id].node.crash();
    }

    /// Heal a counter partition: the node rejoins and catches up. Errs if
    /// the caught-up frontier cannot be made durable (the node then keeps
    /// its old state — fail closed).
    pub fn heal_counter(&self, id: usize) -> std::io::Result<()> {
        self.replicas[id].node.revive();
        let frontier = self.replicas[id].cluster.committed();
        self.replicas[id].node.adopt(frontier)
    }

    /// Whether the counter group currently has quorum (one-time issuance
    /// possible).
    pub fn has_quorum(&self) -> bool {
        self.counter.has_quorum()
    }

    /// Owner-side rule replacement, propagated to every replica through
    /// the shared shards.
    pub fn set_rules(&self, rules: RuleBook) {
        self.rules.store_all(rules);
    }

    /// Publish discovery metadata for `contract` to **every** replica's
    /// directory, stamped with the full replica URL list (primary = the
    /// publishing set's first replica). Any reachable replica can then
    /// hand a client the whole directory.
    pub fn publish(&self, contract: Address, name: impl Into<String>) {
        let urls = self.urls();
        let metadata = ContractMetadata {
            name: name.into(),
            compiler: "smacs replica-set".into(),
            token_service_url: urls.first().cloned(),
            replica_urls: urls,
        };
        for replica in &self.replicas {
            replica.front.publish(contract, metadata.clone());
        }
    }

    /// Set every replica's TS-local clock.
    pub fn set_time(&self, now: u64) {
        for replica in &self.replicas {
            replica.front.set_time(now);
        }
    }

    /// Advance every replica's TS-local clock.
    pub fn advance_time(&self, secs: u64) {
        for replica in &self.replicas {
            replica.front.advance_time(secs);
        }
    }

    /// Stop every replica (both listeners) and join every thread; remove
    /// the WAL temp directory if this set created one.
    pub fn shutdown(mut self) {
        for replica in &mut self.replicas {
            if let Some(server) = replica.server.take() {
                server.shutdown();
            }
            if let Some(server) = replica.counter_server.take() {
                server.shutdown();
            }
        }
        if let Some(dir) = self.owned_wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorCode;
    use crate::http::HttpClient;
    use crate::TsApi;
    use smacs_token::TokenRequest;

    fn request(low: u64) -> TokenRequest {
        TokenRequest::super_token(Address::from_low_u64(0xC0), Address::from_low_u64(low))
    }

    fn small_set(replicas: usize) -> ReplicaSet {
        ReplicaSet::start(
            Keypair::from_seed(900),
            RuleBook::permissive(),
            ReplicaSetConfig {
                replicas,
                ..ReplicaSetConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn every_replica_issues_verifiable_tokens() {
        let set = small_set(3);
        assert_eq!(set.live_count(), 3);
        for addr in set.addrs() {
            let client = HttpClient::connect(addr);
            let token = client.issue(&request(1)).unwrap();
            // Same signing identity everywhere.
            let ctx = smacs_token::PayloadContext {
                sender: Address::from_low_u64(1),
                contract: Address::from_low_u64(0xC0),
                selector: None,
                calldata: None,
            };
            let digest = smacs_token::signing_digest(token.ttype, token.expire, token.index, &ctx);
            assert_eq!(
                smacs_crypto::recover_address(&digest, &token.signature),
                Some(set.ts_address())
            );
        }
        set.shutdown();
    }

    #[test]
    fn rule_update_through_one_replica_binds_all() {
        let set = small_set(3);
        let clients: Vec<HttpClient> = set.addrs().into_iter().map(HttpClient::connect).collect();
        clients[0]
            .set_rules(&set.owner_secret(0), RuleBook::deny_all())
            .unwrap();
        for client in &clients {
            assert_eq!(
                client.issue(&request(1)).unwrap_err().code,
                ErrorCode::RuleViolation
            );
        }
        set.shutdown();
    }

    #[test]
    fn replica_credentials_do_not_cross_replicas() {
        let set = small_set(3);
        let clients: Vec<HttpClient> = set.addrs().into_iter().map(HttpClient::connect).collect();
        // Replica 1's credential is an opaque bearer secret to replica 0
        // (and the undifferentiated base secret works nowhere).
        assert_eq!(
            clients[0]
                .set_rules(&set.owner_secret(1), RuleBook::deny_all())
                .unwrap_err()
                .code,
            ErrorCode::Unauthorized
        );
        assert_eq!(
            clients[1]
                .set_rules("replica-owner", RuleBook::deny_all())
                .unwrap_err()
                .code,
            ErrorCode::Unauthorized
        );
        // The rejected updates changed nothing: issuance still flows.
        clients[2].issue(&request(1)).unwrap();
        // Each replica's own credential works against that replica.
        clients[1]
            .set_rules(&set.owner_secret(1), RuleBook::deny_all())
            .unwrap();
        set.shutdown();
    }

    #[test]
    fn one_time_indexes_are_unique_across_replicas() {
        let set = small_set(3);
        let clients: Vec<HttpClient> = set.addrs().into_iter().map(HttpClient::connect).collect();
        let mut indexes = Vec::new();
        for round in 0..4 {
            for (c, client) in clients.iter().enumerate() {
                let token = client
                    .issue(&request(10 + round * 10 + c as u64).one_time())
                    .unwrap();
                indexes.push(token.index);
            }
        }
        let total = indexes.len();
        indexes.sort_unstable();
        indexes.dedup();
        assert_eq!(indexes.len(), total, "replicas reused a one-time index");
        set.shutdown();
    }

    #[test]
    fn killed_replica_frees_its_address_and_recovers_on_it() {
        let mut set = small_set(3);
        let addr = set.addrs()[1];
        set.kill(1);
        assert!(!set.is_live(1));
        assert_eq!(set.live_count(), 2);
        // Dead replica refuses connections…
        assert!(HttpClient::connect(addr).ping().is_err());
        // …but the set still has counter quorum and the others serve.
        assert!(set.has_quorum());
        HttpClient::connect(set.addrs()[0])
            .issue(&request(1).one_time())
            .unwrap();

        set.recover(1).unwrap();
        assert!(set.is_live(1));
        // Same address as before.
        assert_eq!(set.addrs()[1], addr);
        HttpClient::connect(addr).ping().unwrap();
        set.shutdown();
    }

    #[test]
    fn discovery_metadata_lists_every_replica() {
        let set = small_set(3);
        let contract = Address::from_low_u64(0xCAFE);
        set.publish(contract, "Vault");
        // Ask a non-primary replica: it still knows the whole directory.
        let client = HttpClient::connect(set.addrs()[2]);
        let metadata = client.discover(contract).unwrap().unwrap();
        assert_eq!(metadata.replica_urls, set.urls());
        assert_eq!(metadata.all_service_urls(), set.urls());
        set.shutdown();
    }

    #[test]
    fn vote_endpoints_answer_the_counter_op_family() {
        let set = small_set(3);
        let vote_addr = set.counter_addr(1);
        let client = HttpClient::connect(vote_addr);
        // Phase-1 read.
        let body = client
            .call_detailed("counter_prepare", None, true)
            .expect("prepare answers");
        assert_eq!(CounterStateBody::from_json(&body).unwrap().committed, 0);
        // An external commit at the frontier is accepted; its echo is not.
        let commit = |value: u64| {
            let body = client
                .call_detailed(
                    "counter_commit",
                    Some(CounterCommitBody { value }.to_json()),
                    false,
                )
                .expect("commit answers");
            CounterVoteBody::from_json(&body).unwrap()
        };
        assert!(commit(0).accepted);
        assert!(!commit(0).accepted, "duplicate vote rejected over the wire");
        assert_eq!(commit(0).committed, 1);
        set.shutdown();
    }

    #[test]
    fn public_endpoints_refuse_the_counter_op_family() {
        // The vote ops are replica-internal. A client aiming them at the
        // *public* address must get `counter_unavailable` — otherwise any
        // outsider could burn or skip one-time index ranges and subvert
        // the quorum the chaos suite certifies.
        let set = small_set(3);
        let client = HttpClient::connect(set.addrs()[1]);
        let err = client
            .call_detailed(
                "counter_commit",
                Some(CounterCommitBody { value: 0 }.to_json()),
                false,
            )
            .expect_err("public endpoint must refuse vote ops")
            .into_api();
        assert_eq!(err.code, ErrorCode::CounterUnavailable);
        for op in ["counter_prepare", "counter_catchup"] {
            let err = client
                .call_detailed(op, None, true)
                .expect_err("public endpoint must refuse vote ops")
                .into_api();
            assert_eq!(err.code, ErrorCode::CounterUnavailable);
        }
        // Nothing was burned or skipped by the refused commit: the next
        // legitimate one-time issuance still gets index 0.
        assert_eq!(set.counter().committed(), 0);
        let token = client.issue(&request(1).one_time()).unwrap();
        assert_eq!(token.index, 0);
        set.shutdown();
    }

    #[test]
    fn wire_set_survives_full_stop_and_restart_via_wal() {
        // Kill *every* replica (all RAM state discarded), recover all:
        // without the WAL the counter would restart at 0 and re-issue
        // index 0 — the exact §VII-B violation this layer exists to stop.
        let mut set = small_set(3);
        let client = HttpClient::connect(set.addrs()[0]);
        for low in 1..=4 {
            client.issue(&request(low).one_time()).unwrap();
        }
        assert_eq!(set.counter().committed(), 4);
        for id in 0..3 {
            set.kill(id);
        }
        for id in 0..3 {
            set.recover(id).unwrap();
        }
        assert_eq!(
            set.counter().committed(),
            4,
            "committed state must survive a whole-set restart"
        );
        let client = HttpClient::connect(set.addrs()[1]);
        let token = client.issue(&request(9).one_time()).unwrap();
        assert_eq!(
            token.index, 4,
            "post-restart issuance continues, not repeats"
        );
        set.shutdown();
    }
}
