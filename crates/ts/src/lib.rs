//! # smacs-ts — the off-chain Token Service
//!
//! The TS (§III-A, §IV) is "responsible for verifying requests from clients
//! and issuing access control tokens accordingly". It consists of the three
//! modules Fig. 1 draws:
//!
//! - the **client-facing API** ([`api`]): the transport-agnostic [`TsApi`]
//!   trait (`issue`, `issue_batch`, `set_rules`, `discover`, `ping`),
//!   implemented in process by [`FrontEnd`] and on the wire by
//!   [`http::HttpClient`] and [`FailoverClient`], which speak the
//!   versioned protocol v2 over keep-alive connections — batch issuance
//!   amortizes per-request wire overhead, and error codes mirror
//!   [`IssueError`] without leaking rule detail (§VII-A d);
//! - the **front end** ([`front`]: [`FrontEnd`] serves every op both as a
//!   [`TsApi`] call and as a protocol-v2 JSON envelope, one `match` per
//!   op; [`http`] holds the one listener type, [`Endpoint`]) through which
//!   owners and clients interact;
//! - the **access granting** module ([`service`]) that parses each
//!   request into what its token binds, checks rule compliance ([`rules`]
//!   — Fig. 6's white/blacklists, dynamically updatable by the owner
//!   without touching the deployed contract) and signs tokens;
//! - the **validation** module ([`validation`]) hosting pluggable
//!   runtime-verification tools (Hydra uniformity and the ECF checker live
//!   in the `smacs-verifiers` crate and plug in through the
//!   [`validation::ValidationTool`] trait). A tool is handed the sender
//!   and the exact calldata of each argument request and simulates that
//!   call against a forked local testnet, as §V describes.
//!
//! One-time indexes always come from a [`replica::CounterCluster`]: a
//! one-node, memory-only cluster by default, or, for availability
//! (§VII-B), a majority-quorum replicated counter across the replicas
//! ([`TokenService::with_replicated_counter`]). [`discovery`] implements the
//! §VII-B service-discovery metadata (contract address → TS URLs), which a
//! [`FrontEnd`] publishes and serves.
//!
//! # Threading model
//!
//! Each [`Endpoint`] serves through one readiness-driven reactor (epoll)
//! and its own fixed [`smacs_primitives::pool::WorkerPool`] with one
//! bounded queue — no thread ever sweeps or sleeps per connection, and no
//! path waits for queue space:
//!
//! ```text
//! reactor (1 thread, epoll_wait) ──readable conn──▶ pool queue ─────┐
//!   │  accepts itself: 503 past      (≤ max_connections jobs,       │
//!   │  max_connections, else park     one per connection)           │
//!   │  owns: listener + every parked                                │
//!   │  keep-alive conn + eventfd wake   worker pool (fixed N) ◀─────┘
//!   ▲                                        │ serves back to back
//!   └──── park idle conn / hand back a conn past its turn quota ────┘
//!
//! issue_batch ──▶ one chunk per pool thread (≥ 8 requests each), via
//!                 scope_map: calling thread + idle workers each mint a
//!                 chunk and batch-sign it, results in request order
//! rules ────────▶ Mutex<Arc<RuleBook>>: a request (or a whole batch)
//!                 clones the Arc under the lock and checks outside it;
//!                 set_rules swaps in a whole new book
//! ```
//!
//! - **Connections** cost `O(workers)` threads, not `O(connections)`: a
//!   worker serves a connection only while it is talking, then parks it
//!   in the reactor's epoll set, where 50 000+ idle keep-alive
//!   connections cost zero steady-state CPU — the reactor blocks in
//!   `epoll_wait` until one becomes readable or closes
//!   ([`HttpServerConfig`] is public fields over `Default`: `workers`,
//!   `bind`, `faults` and `max_connections`, which also bounds the pool's
//!   queue and so the idle connections kept open).
//! - **One listener type**: the public listener and every vote endpoint
//!   bind through [`Endpoint::bind`] with an
//!   [`EndpointScope`](front::EndpointScope), so they ride the same
//!   reactor machinery and the same [`fault::FaultPlan`] injection
//!   points.
//! - **Batch signing** cuts a batch into chunks across the service's pool
//!   (process-shared by default) with caller participation (no
//!   pool-within-pool deadlock). Each chunk signs its minted digests with
//!   one `Keypair::sign_digests` call, which shares one field and one
//!   scalar inversion across the chunk, byte-identical to signing each
//!   token alone. Per-item partial failure and request-order results are
//!   preserved; one-time indexes stay globally unique (the counter
//!   serializes allocation).
//! - **Rule reads hold a lock only for an `Arc` clone**: a request, or a
//!   whole batch, clones the current book's `Arc` under one plain mutex
//!   and checks against it with no lock held; `set_rules` swaps in a book
//!   built outside the lock, so neither rule checks nor signature work
//!   (`recover`, `k·G`) ever runs under it.
//!
//! # Failure model (§VII-B availability)
//!
//! A production TS must stay available through crashes and partitions; the
//! replication layer ([`cluster`], [`failover`], [`replica`], [`fault`])
//! implements the paper's replication sketch with explicit, testable
//! semantics:
//!
//! - **What replicates.** A [`cluster::ReplicaSet`] runs N full service
//!   instances sharing the signing key (tokens from any replica verify
//!   against the one on-chain `pk_TS`), one rule book (a locked
//!   `Arc<RuleBook>` every replica holds) behind one owner credential
//!   (every replica accepts the set's owner secret, so an owner's
//!   `set_rules` through any replica, or through a failover client that
//!   lands on any of them, binds all of them), a majority-quorum one-time
//!   counter ([`replica::CounterCluster`]), and one discovery record that
//!   lists every replica's URL, primary first.
//!
//! - **How the counter quorum votes.** The counter is a real distributed
//!   protocol: each replica serves the protocol-v2 `counter_*` op family
//!   on a dedicated vote endpoint — and *only* there: the client-facing
//!   listener runs with [`front::EndpointScope::Public`] and refuses vote
//!   ops with `counter_unavailable`, so a hostile client cannot burn or
//!   skip index ranges. Allocating one index is two wire rounds driven by
//!   the issuing replica as coordinator:
//!
//!   ```text
//!   coordinator ──counter_prepare──▶ every node     (read frontiers,
//!               ◀──{committed:f}────                 value = max f)
//!   coordinator ──counter_commit{value}──▶ every node
//!               ◀──{accepted,committed}──            node accepts iff
//!                                                    value ≥ its frontier,
//!                                                    WAL-fsyncs, then
//!                                                    frontier := value+1
//!   ```
//!
//!   The index is allocated iff a **majority of the full membership**
//!   accepted; a losing coordinator refreshes `value` from the replies
//!   and retries. Safety needs no ballots: for any one value each node
//!   accepts at most once, so racing coordinators' accept sets are
//!   disjoint and cannot both reach majority — duplicated, reordered,
//!   and stale vote deliveries are rejected the same way (see
//!   [`replica`] for the full argument). A commit that reached only a
//!   minority *skips* that index; it is never handed out twice.
//!
//! - **What survives a crash.** Every accepted vote is appended to the
//!   replica's write-ahead log ([`wal`]) and fsynced *before* the ack
//!   leaves — 12-byte records `[value u64 LE | crc32 LE]`, strictly
//!   increasing, no header. Recovery replays the log forward and stops
//!   at the first short, checksum-failing, or non-monotonic record: that
//!   tail is a torn write and is physically truncated, never trusted.
//!   The invariants: recovery never invents state (the recovered
//!   frontier is a committed prefix) and never loses an acked vote (the
//!   fsync happened first). [`cluster::ReplicaSet::recover`] then
//!   discards the node's RAM, reloads from WAL, and closes any remaining
//!   gap through the frontier read against live peers — so even an index
//!   whose record the disk tore cannot be re-issued while a quorum
//!   remembers it.
//!
//! - **What is retried.** One layer re-sends a request:
//!   [`failover::FailoverClient`], over one URL or many. [`HttpClient`]
//!   sends each call exactly once (it only replaces, before sending, a
//!   pooled connection the server already closed), so a hung server
//!   costs one socket timeout, and so does a replica's vote to a hung
//!   peer. The failover client's replay rule is decided in one place
//!   from how far the round trip got and whether the op may burn a
//!   one-time counter index. A *connect-phase* failure transmitted
//!   nothing and is always replayed. Once the request may have been
//!   sent, every op that cannot burn an index is replayed: `ping` and
//!   `discover` (reads), `set_rules` (replaying a whole-book replacement
//!   converges), and issuance *without* the one-time property (a re-mint
//!   is byte-identical). Each attempt goes to the next replica, backing
//!   off exponentially with jitter, bounded by an attempt budget and a
//!   per-call deadline that count real sends; per-endpoint circuit
//!   breakers stop paying a dead replica's timeout on every call.
//!
//! - **What is at-most-once.** A one-time issue whose *answer* was lost
//!   (timeout, truncated response, connection drop after send) is
//!   surfaced as an [`ErrorCode::Transport`] error, never blind-retried —
//!   the counter index may already be burned, and minting again would
//!   produce a second live token. The wallet decides, because only it
//!   learns whether the first token reached the chain.
//!
//! - **What fails closed.** When the counter group loses its majority,
//!   one-time issuance answers [`ErrorCode::CounterUnavailable`] rather
//!   than risk duplicate indexes; expiry-token issuance — which needs no
//!   coordination — keeps working. Degradation is partial and explicit,
//!   and [`cluster::ReplicaSet::recover`] restores full service with
//!   the counter caught up past every index ever committed.
//!
//! The [`fault::FaultPlan`] hooks in the HTTP server (drop, 500, delay,
//! truncate) exist so the chaos suite (`tests/chaos.rs`) can prove each of
//! these claims over the real wire path — including crash-mid-commit WAL
//! recovery and torn-tail re-fetch. Faults between the counter replicas
//! (dropped, duplicated and reordered votes, a crash between a vote and
//! its ack) are the quorum protocol's own test: [`replica`]'s coordinator
//! and vote rule are pure, and an exhaustive checker drives them through
//! every interleaving within its bound.

pub mod api;
pub mod cluster;
pub mod discovery;
pub mod failover;
pub mod fault;
pub mod front;
pub mod http;
pub(crate) mod reactor;
pub mod replica;
pub mod rules;
pub mod service;
pub mod validation;
pub mod wal;

pub use api::{ApiError, ErrorCode, TsApi, MAX_BATCH, PROTOCOL_VERSION};
pub use cluster::{CounterMode, ReplicaSet, ReplicaSetConfig};
pub use failover::{BreakerConfig, FailoverClient, RetryPolicy};
pub use fault::FaultPlan;
pub use front::FrontEnd;
pub use http::{Endpoint, HttpClient, HttpClientConfig, HttpServerConfig};
pub use replica::{CounterCluster, CounterNode};
pub use rules::{ListPolicy, RuleBook, RuleViolation, TypeRules};
pub use service::{IssueError, TokenService, TokenServiceConfig};
pub use validation::ValidationTool;
pub use wal::Wal;
