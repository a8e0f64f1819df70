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
//! - **one shared rule book, one owner credential**: every replica holds
//!   the same locked `Arc<RuleBook>` and accepts the same
//!   [`ReplicaSetConfig::owner_secret`], so an owner's `set_rules` through
//!   *any* replica (or through a [`crate::FailoverClient`] over the set)
//!   is one swap of that `Arc` that binds all of them; issuers hold the
//!   lock only to clone the `Arc`, so issuance never stops for it;
//! - **quorum one-time counters** ([`CounterCluster`]): one-time indexes
//!   are allocated through a majority-quorum replicated counter with one
//!   counter node per replica. Lose a minority and issuance continues;
//!   lose a majority and one-time issuance *fails closed* with
//!   [`crate::api::ErrorCode::CounterUnavailable`] while expiry-token
//!   issuance keeps flowing — degraded, not dead;
//! - **discovery**: [`ReplicaSet::publish`] stamps every replica's
//!   directory with the set's service URLs, so any reachable replica can
//!   hand a client the directory it needs to fail over.
//!
//! ## The counter quorum is on the wire
//!
//! Counter votes are real protocol-v2 messages: each replica serves the
//! `counter_prepare` (the frontier read) / `counter_commit` op family on a
//! **dedicated vote endpoint** (its own [`Endpoint`] with a small private
//! pool, so issuance load can never starve vote processing into a
//! distributed deadlock). The vote op family is served *only* there: the
//! client-facing listeners run with
//! [`crate::front::EndpointScope::Public`] and refuse `counter_*` with
//! `counter_unavailable`, so a hostile client cannot vote indexes burned
//! or skipped. Each replica's [`CounterCluster`] is the host of the one
//! quorum protocol ([`crate::replica`]): it reaches its own node in
//! process, since a replica never loses the network to itself, and each
//! peer's vote endpoint over the wire. Every node write-ahead logs its
//! commits ([`crate::wal::Wal`], fsync before ack), so
//! [`ReplicaSet::recover`] rebuilds a crashed replica's vote state from
//! its WAL (RAM is explicitly discarded) and then catches it up past any
//! indexes it missed through the frontier read. (The all-in-process
//! cluster, [`CounterCluster::new`], is the unit-test seam; a
//! `ReplicaSet` always votes over the wire.) Dropped, duplicated and
//! reordered votes are the protocol checker's to explore, not a fault
//! this set injects.
//!
//! [`ReplicaSet::kill`] takes a replica off the network (both listeners
//! closed, its counter node crashed); [`ReplicaSet::recover`] brings it
//! back *on the same addresses* with its counter state replayed from WAL
//! and caught up, so clients holding the old directory reconnect without
//! re-discovery. [`ReplicaSet::partition_counter`] fails only the counter
//! node — the replica keeps serving, modelling a network partition
//! between the consensus group and one member.
//!
//! Every replica runs [`TokenServiceConfig::default`] behind a
//! client-facing listener on [`HttpServerConfig::default`] (plus the
//! set's own address and [`FaultPlan`]); a [`ReplicaSetConfig`] chooses
//! only the replica count, the owner secret, the TS clock and where the
//! WALs live.
//!
//! Replicas live in one process here (this is a simulator), but nothing
//! crosses between their counter nodes except TCP — the shared `Arc`s are
//! limited to the signing key and rule book a real deployment would
//! distribute out of band.
//!
//! A set that created its own WAL directory removes it when it is shut
//! down or dropped; a caller-supplied [`ReplicaSetConfig::wal_dir`] is
//! never removed.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use smacs_crypto::Keypair;
use smacs_primitives::Address;

use crate::discovery::ContractMetadata;
use crate::fault::FaultPlan;
use crate::front::{EndpointScope, FrontEnd};
use crate::http::{Endpoint, HttpClient, HttpClientConfig, HttpServerConfig};
use crate::replica::{CounterCluster, CounterNode, Member};
use crate::rules::RuleBook;
use crate::service::{TokenService, TokenServiceConfig};

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
    /// The owner's bearer secret for `set_rules`. Every replica accepts
    /// it as it is: the replicas share one rule book, so they share the
    /// one credential that replaces it.
    pub owner_secret: String,
    /// Initial TS-local clock.
    pub now: u64,
    /// How counter votes travel: always [`CounterMode::Wire`], and not
    /// read. Kept only for the benchmark, which sets it (see
    /// [`CounterMode`]).
    pub counter_mode: CounterMode,
    /// Directory for per-replica counter WALs (`counter-{id}.wal`).
    /// `None`: a fresh per-set temp directory that is removed when the
    /// set is shut down or dropped. `Some(dir)`: logs persist there
    /// across sets (the caller owns cleanup).
    pub wal_dir: Option<PathBuf>,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            replicas: 3,
            owner_secret: "replica-owner".into(),
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
        io_timeout: Duration::from_secs(2),
    }
}

/// A live replica's two listeners; dropping them closes both (public
/// first) and joins their threads.
struct Listeners {
    public: Endpoint,
    vote: Endpoint,
}

impl Listeners {
    /// Bind a replica's client-facing listener (under its fault plan) and
    /// its dedicated vote endpoint: on fresh ports at start (`at: None`),
    /// or on the `(public, vote)` addresses clients and peers already know
    /// on recovery, where each bind retries briefly because
    /// [`ReplicaSet::kill`] just freed the port.
    ///
    /// The vote endpoint is bound under [`EndpointScope::Vote`], the only
    /// scope that admits the `counter_*` op family, so outsiders reaching
    /// the [`EndpointScope::Public`] listener cannot burn index ranges. Its
    /// two workers keep a coordinator and a recovering peer served without
    /// stealing cores from issuance: vote handling is a mutex-guarded
    /// counter bump plus a WAL append.
    fn bind(
        front: &Arc<FrontEnd>,
        faults: &Arc<FaultPlan>,
        at: Option<(SocketAddr, SocketAddr)>,
    ) -> std::io::Result<Listeners> {
        let vote = Endpoint::bind_retry(
            front.clone(),
            EndpointScope::Vote,
            HttpServerConfig {
                workers: 2,
                bind: at.map(|(_, vote)| vote),
                ..HttpServerConfig::default()
            },
        )?;
        let public = Endpoint::bind_retry(
            front.clone(),
            EndpointScope::Public,
            HttpServerConfig {
                bind: at.map(|(public, _)| public),
                faults: Some(faults.clone()),
                ..HttpServerConfig::default()
            },
        )?;
        Ok(Listeners { public, vote })
    }
}

/// One member of the set.
struct Replica {
    front: Arc<FrontEnd>,
    /// `None` while killed.
    listeners: Option<Listeners>,
    /// The address this replica serves on — stable across kill/recover.
    addr: SocketAddr,
    faults: Arc<FaultPlan>,
    /// This replica's counter node (vote state machine).
    node: Arc<CounterNode>,
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
    signer: Keypair,
    /// A WAL temp directory this set created and owns (removed on drop);
    /// `None` when the caller supplied `wal_dir`.
    owned_wal_dir: Option<PathBuf>,
}

impl ReplicaSet {
    /// Start `config.replicas` issuing nodes sharing `signer`, an initial
    /// `rules` book, and a quorum counter.
    ///
    /// # Panics
    /// Panics if `config.replicas == 0`.
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

        let rules = Arc::new(Mutex::new(Arc::new(rules)));

        let mut replicas = Vec::with_capacity(config.replicas);
        for (id, node) in nodes.iter().enumerate() {
            // This replica's coordinator: its own node in process, each
            // peer through a wire member whose target is set once every
            // vote endpoint is bound below.
            let cluster = CounterCluster::from_members(
                (0..config.replicas)
                    .map(|j| {
                        if j == id {
                            Member::Local(node.clone())
                        } else {
                            Member::Peer(Default::default())
                        }
                    })
                    .collect(),
            );
            let faults = FaultPlan::new();
            let service = TokenService::new(
                signer.clone(),
                RuleBook::permissive(), // replaced by the shared book
                TokenServiceConfig::default(),
            )
            .with_shared_rules(rules.clone())
            .with_replicated_counter(cluster.clone());
            let front = Arc::new(
                FrontEnd::new(service, config.owner_secret.clone(), config.now)
                    .with_counter(node.clone()),
            );
            let listeners = Listeners::bind(&front, &faults, None)?;
            replicas.push(Replica {
                addr: listeners.public.addr(),
                counter_addr: listeners.vote.addr(),
                front,
                listeners: Some(listeners),
                faults,
                node: node.clone(),
                cluster,
            });
        }

        // Vote endpoints are all bound now — aim every wire member at its
        // peer.
        for replica in &replicas {
            for (member, peer) in replica.cluster.members().iter().zip(&replicas) {
                if let Member::Peer(target) = member {
                    let _ = target.set(HttpClient::connect_with(
                        peer.counter_addr,
                        vote_client_config(),
                    ));
                }
            }
        }

        Ok(ReplicaSet {
            replicas,
            counter: diag,
            signer,
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

    /// The address form of the shared `pk_TS`.
    pub fn ts_address(&self) -> Address {
        self.signer.address()
    }

    /// Replica `id`'s front end (owner-side escape hatch: diagnostics,
    /// clock control).
    pub fn front(&self, id: usize) -> &Arc<FrontEnd> {
        &self.replicas[id].front
    }

    /// Replica `id`'s fault plan (chaos tests arm its client-facing
    /// listener's transport faults here).
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

    /// Number of replicas currently serving HTTP.
    pub fn live_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.listeners.is_some())
            .count()
    }

    /// Kill replica `id`: close its HTTP listeners (client-facing *and*
    /// vote endpoint) and parked connections, finish in-flight requests,
    /// and crash its counter node. Its WAL survives on disk — that is the
    /// point. Idempotent.
    pub fn kill(&mut self, id: usize) {
        self.replicas[id].listeners = None;
        self.replicas[id].node.crash();
    }

    /// Recover replica `id` on the addresses clients already know.
    ///
    /// The counter state is rebuilt the way a real restart would: the
    /// node's in-memory frontier is **discarded** and replayed from its
    /// WAL (torn tail truncated), then caught up past any indexes it
    /// missed through the frontier read over this replica's own
    /// transports — over the wire. Only then do the listeners come
    /// back. The listener ports were freed by [`ReplicaSet::kill`];
    /// rebinding retries briefly in case the OS is slow to release them.
    pub fn recover(&mut self, id: usize) -> std::io::Result<()> {
        self.replicas[id].node.reload_from_wal()?;
        self.rejoin_counter(id)?;
        let replica = &mut self.replicas[id];
        if replica.listeners.is_none() {
            let at = Some((replica.addr, replica.counter_addr));
            replica.listeners = Some(Listeners::bind(&replica.front, &replica.faults, at)?);
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
        self.rejoin_counter(id)
    }

    /// Revive replica `id`'s counter node and adopt the frontier its own
    /// cluster reads from every member (self locally, peers over the
    /// wire).
    fn rejoin_counter(&self, id: usize) -> std::io::Result<()> {
        let replica = &self.replicas[id];
        replica.node.revive();
        replica.node.adopt(replica.cluster.committed())
    }

    /// Whether the counter group currently has quorum (one-time issuance
    /// possible).
    pub fn has_quorum(&self) -> bool {
        self.counter.has_quorum()
    }

    /// Publish discovery metadata for `contract` to **every** replica's
    /// directory, naming every replica's URL in replica-id order (primary
    /// = replica 0). Any reachable replica can then hand a client the
    /// whole directory.
    pub fn publish(&self, contract: Address, name: impl Into<String>) {
        let metadata = ContractMetadata {
            name: name.into(),
            compiler: "smacs replica-set".into(),
            service_urls: self.urls(),
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
    /// the WAL temp directory if this set created one. Dropping the set
    /// does the same; this names the join at the call site.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        for replica in &mut self.replicas {
            replica.listeners = None;
        }
        if let Some(dir) = &self.owned_wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CounterCommitBody, CounterStateBody, CounterVoteBody, ErrorCode};
    use crate::http::WireCall;
    use crate::{FailoverClient, TsApi};
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
        let owner = ReplicaSetConfig::default().owner_secret;
        let clients: Vec<HttpClient> = set.addrs().into_iter().map(HttpClient::connect).collect();
        clients[0].set_rules(&owner, RuleBook::deny_all()).unwrap();
        for client in &clients {
            assert_eq!(
                client.issue(&request(1)).unwrap_err().code,
                ErrorCode::RuleViolation
            );
        }
        // The same credential works through another replica, and binds
        // every replica too.
        clients[2]
            .set_rules(&owner, RuleBook::permissive())
            .unwrap();
        for client in &clients {
            client.issue(&request(1)).unwrap();
        }
        set.shutdown();
    }

    #[test]
    fn failover_client_updates_the_set_through_every_replica() {
        let set = small_set(3);
        let owner = ReplicaSetConfig::default().owner_secret;
        let clients: Vec<HttpClient> = set.addrs().into_iter().map(HttpClient::connect).collect();
        // A wrong secret is refused by every replica and changes nothing.
        for client in &clients {
            assert_eq!(
                client
                    .set_rules("not-the-owner", RuleBook::deny_all())
                    .unwrap_err()
                    .code,
                ErrorCode::Unauthorized
            );
        }
        for client in &clients {
            client.issue(&request(1)).unwrap();
        }
        // Six consecutive updates: the round-robin cursor starts each on
        // the next replica, so every replica takes the owner's secret
        // twice, and after each update every replica judges by its book.
        let failover = FailoverClient::new(set.addrs());
        for round in 0..6 {
            let deny = round % 2 == 0;
            let book = if deny {
                RuleBook::deny_all()
            } else {
                RuleBook::permissive()
            };
            failover.set_rules(&owner, book).unwrap();
            for client in &clients {
                assert_eq!(client.issue(&request(1)).is_err(), deny, "round {round}");
            }
        }
        set.shutdown();
    }

    #[test]
    fn a_set_removes_only_the_wal_directory_it_created() {
        let set = small_set(3);
        let owned = set.owned_wal_dir.clone().expect("no wal_dir given");
        assert!(owned.join("counter-0.wal").exists());
        drop(set);
        assert!(!owned.exists(), "{} left behind", owned.display());

        let callers = std::env::temp_dir().join(format!(
            "smacs-caller-wal-{}-{}",
            std::process::id(),
            SET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let set = ReplicaSet::start(
            Keypair::from_seed(900),
            RuleBook::permissive(),
            ReplicaSetConfig {
                wal_dir: Some(callers.clone()),
                ..ReplicaSetConfig::default()
            },
        )
        .unwrap();
        set.shutdown();
        assert!(callers.join("counter-2.wal").exists());
        std::fs::remove_dir_all(&callers).unwrap();
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
        assert_eq!(set.live_count(), 2);
        // Dead replica refuses connections…
        assert!(HttpClient::connect(addr).ping().is_err());
        // …but the set still has counter quorum and the others serve.
        assert!(set.has_quorum());
        HttpClient::connect(set.addrs()[0])
            .issue(&request(1).one_time())
            .unwrap();

        set.recover(1).unwrap();
        assert_eq!(set.live_count(), 3);
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
        assert_eq!(metadata.service_urls, set.urls());
        set.shutdown();
    }

    #[test]
    fn vote_endpoints_answer_the_counter_op_family() {
        let set = small_set(3);
        let vote_addr = set.replicas[1].counter_addr;
        let client = HttpClient::connect(vote_addr);
        // Phase-1 read.
        let state: CounterStateBody = client
            .call("counter_prepare", None, false)
            .expect("prepare answers");
        assert_eq!(state.committed, 0);
        // An external commit at the frontier is accepted; its echo is not.
        let commit = |value: u64| -> CounterVoteBody {
            client
                .call("counter_commit", Some(&CounterCommitBody { value }), true)
                .expect("commit answers")
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
            .call::<CounterVoteBody>(
                "counter_commit",
                Some(&CounterCommitBody { value: 0 }),
                true,
            )
            .expect_err("public endpoint must refuse vote ops");
        assert_eq!(err.code, ErrorCode::CounterUnavailable);
        let err = client
            .call::<CounterStateBody>("counter_prepare", None, false)
            .expect_err("public endpoint must refuse vote ops");
        assert_eq!(err.code, ErrorCode::CounterUnavailable);
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
