//! # smacs-ts — the off-chain Token Service
//!
//! The TS (§III-A, §IV) is "responsible for verifying requests from clients
//! and issuing access control tokens accordingly". It consists of the three
//! modules Fig. 1 draws:
//!
//! - the **client-facing API** ([`api`]): the transport-agnostic [`TsApi`]
//!   trait (`issue`, `issue_batch`, `set_rules`, `discover`, `ping`) with
//!   an [`InProcessClient`] for co-located callers and an
//!   [`http::HttpClient`] speaking the versioned wire protocol v2 over a
//!   keep-alive connection — batch issuance amortizes per-request wire
//!   overhead, and error codes mirror [`IssueError`] without leaking rule
//!   detail (§VII-A d);
//! - the **front end** ([`front`] for the protocol-v2 JSON envelopes and
//!   [`http`] for the one listener type, [`Endpoint`]) through which
//!   owners and clients interact;
//! - the **access granting** module ([`service`]) that checks rule
//!   compliance ([`rules`] — Fig. 6's white/blacklists, dynamically
//!   updatable by the owner without touching the deployed contract) and
//!   signs tokens;
//! - the **validation** module ([`validation`]) hosting pluggable
//!   runtime-verification tools (Hydra uniformity and the ECF checker live
//!   in the `smacs-verifiers` crate and plug in through the
//!   [`validation::ValidationTool`] trait, running against a forked local
//!   testnet as §V describes).
//!
//! For availability (§VII-B), one-time indexes can come from a
//! [`replica::CounterCluster`] — a majority-quorum replicated counter —
//! instead of the single-node atomic counter. [`discovery`] implements the
//! §VII-B service-discovery metadata (contract address → TS URL), and
//! [`store`] persists rules and the signing key to disk (the prototype's
//! node-localStorage analog).
//!
//! # Threading model
//!
//! The whole TS hot path scales with cores through one shared
//! [`smacs_primitives::pool::WorkerPool`] fed by a readiness-driven
//! reactor (epoll) — no thread ever sweeps or sleeps per connection:
//!
//! ```text
//! reactor (1 thread, epoll_wait) ──readable conn──▶ high-priority lane ─┐
//!   │  owns: listener + every parked                                    │
//!   │  keep-alive conn + eventfd wake     worker pool (fixed N threads)─┤
//!   ├──listener readable──▶ low-priority lane ──▶ accept drain          │
//!   │       (signing never queues behind accepts)                       │
//!   ◀──────── park idle conn back / hand back pipelined conn ───────────┘
//!
//! issue_batch ──▶ scope_map fan-out: calling thread + idle workers sign
//!                 in parallel, results in request order
//! rules ────────▶ EpochCell<RuleBook>: issuers pin an immutable Arc
//!                 snapshot per request (lock-free steady state);
//!                 set_rules swaps the book atomically
//! ```
//!
//! - **Connections** cost `O(workers)` threads, not `O(connections)`: a
//!   worker serves a connection only while it is talking, then parks it
//!   in the reactor's epoll set, where 50 000+ idle keep-alive
//!   connections cost zero steady-state CPU — the reactor blocks in
//!   `epoll_wait` until one becomes readable, closes, or idles out
//!   ([`HttpServerConfig`] is public fields over `Default`: `workers`,
//!   `queue_capacity`, `idle_timeout`, an optional shared `pool`, `bind`,
//!   `faults` and `max_connections`).
//! - **One listener type**: the public listener and every vote endpoint
//!   bind through [`Endpoint::bind`] with an
//!   [`EndpointScope`](front::EndpointScope), so they ride the same
//!   reactor machinery and the same [`fault::FaultPlan`] injection
//!   points.
//! - **Batch signing** fans the ~90 µs per-token `k·G` across the pool
//!   with caller participation (no pool-within-pool deadlock), preserving
//!   per-item partial failure and request-order results; one-time indexes
//!   stay atomic/replicated and globally unique.
//! - **Rule reads never lock**: issuance validates against an epoch
//!   snapshot ([`smacs_primitives::epoch::EpochCell`]), so a `set_rules`
//!   burst cannot stall the issuance path, and signature work (`recover`,
//!   `k·G`) always runs outside any lock.
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
//!   against the one on-chain `pk_TS`), the rule shards
//!   ([`service::ShardedRules`] — an owner update through any replica
//!   binds all of them), and a majority-quorum one-time counter
//!   ([`replica::CounterCluster`]).
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
//!   gap via `counter_catchup` against live peers — so even an index
//!   whose record the disk tore cannot be re-issued while a quorum
//!   remembers it.
//!
//! - **What is retried.** [`failover::FailoverClient`] classifies every
//!   failure by how far the round trip got. A *connect-phase* failure
//!   transmitted nothing and is always replayed on the next replica. Once
//!   the request may have been sent, only idempotent operations are
//!   replayed: `ping` and `discover` (reads), `set_rules` (replaying a
//!   whole-book replacement converges), and issuance *without* the
//!   one-time property (a re-mint is byte-identical). Retries back off
//!   exponentially with jitter, bounded by an attempt budget and a
//!   per-call deadline; per-endpoint circuit breakers stop paying a dead
//!   replica's timeout on every call.
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
//!   and [`replica::CounterCluster::recover`] restores full service with
//!   the counter caught up past every index ever committed.
//!
//! The [`fault::FaultPlan`] hooks in the HTTP server (drop, 500, delay,
//! truncate) and on the vote-sending side (address-scoped partitions,
//! vote delays, duplicated deliveries) exist so the chaos suite
//! (`tests/chaos.rs`) can prove each of these claims over the real wire
//! path — including crash-mid-commit WAL recovery, asymmetric vote
//! partitions, and torn-tail re-fetch.

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
pub mod store;
pub mod validation;
pub mod wal;

pub use api::{ApiError, ErrorCode, InProcessClient, TsApi, MAX_BATCH, PROTOCOL_VERSION};
pub use cluster::{CounterMode, ReplicaSet, ReplicaSetConfig};
pub use discovery::ServiceDirectory;
pub use failover::{BreakerConfig, FailoverClient, RetryPolicy};
pub use fault::FaultPlan;
pub use http::{Endpoint, HttpClient, HttpClientConfig, HttpServerConfig};
pub use replica::{CommitReply, CounterCluster, CounterNode, CounterTransport, LocalTransport};
pub use rules::{ListPolicy, RuleBook, RuleViolation, TypeRules};
pub use service::{IssueError, ShardedRules, TokenService, TokenServiceConfig};
pub use store::RuleStore;
pub use validation::{NullTool, ValidationTool};
pub use wal::Wal;
