//! A replicated counter for one-time token indexes (§VII-B availability).
//!
//! "If a TS service is offering one-time tokens, then its replicas have to
//! coordinate on the current counter value. That can be efficiently
//! realized via a replicated counter primitive usually implemented upon a
//! standard consensus algorithm." This module implements that primitive as
//! a majority-quorum state machine split into three pieces:
//!
//! - [`CounterNode`] — one replica's vote state: a `committed` frontier
//!   (the next free index) guarded by a mutex, an `alive` flag, and an
//!   optional crash-durable [`crate::wal::Wal`] appended-and-fsynced
//!   *before* a commit vote is acknowledged;
//! - [`CounterTransport`] — how a coordinator reaches a node's vote
//!   endpoint. [`LocalTransport`] calls the node in-process (unit tests,
//!   single-process clusters); the wire impl in [`crate::cluster`] speaks
//!   the protocol-v2 `counter_*` op family over TCP;
//! - [`CounterCluster`] — the coordinator: allocates the next index by a
//!   prepare round (read every reachable node's frontier, take the max)
//!   followed by a commit round (every node conditionally applies
//!   `frontier := value + 1` iff `value >= frontier` — i.e. iff it has
//!   never voted for `value` or anything beyond). An index is allocated
//!   iff a **majority of the full membership** accepted the commit;
//!   anything less fails closed (`None` → the TS refuses one-time
//!   issuance rather than risk duplicates).
//!
//! ## Why the conditional commit is enough
//!
//! Two coordinators racing for the same `value` each gather accepts from
//! disjoint node sets (a node's frontier moves past `value` the moment it
//! accepts, so it rejects the second commit). Disjoint sets cannot both
//! reach majority, so at most one coordinator allocates `value`; the
//! loser re-reads the frontier from the replies and retries at the next
//! value. The same argument covers every schedule: for any single
//! `value`, each node accepts at most one commit in its lifetime, so
//! duplicated, reordered, and stale re-deliveries are rejected
//! (`value < frontier`) and at most one coordinator ever reaches
//! majority for it. Accepting `value` *above* the frontier is what lets
//! a lagging node rejoin the voting majority without an out-of-band
//! catch-up: the vote itself advances its frontier (the skipped range
//! was voted on elsewhere or burned). A commit that reached only a
//! minority burns those nodes' frontiers without allocating the index —
//! the index is *skipped*, never *duplicated*, which is the right trade
//! for at-most-once issuance.

use crate::wal::{Recovery, Wal};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Bound on commit-round retries after losing a race to a concurrent
/// coordinator. Each retry re-reads the frontier from the losing round's
/// replies, so contention resolves in a round or two; the bound only
/// keeps pathological schedules from spinning forever.
const MAX_PROPOSE_ROUNDS: usize = 64;

/// A node's answer to a `counter_commit` vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReply {
    /// True iff the node applied the proposed value (it was at or past
    /// the node's frontier — never voted on before).
    pub accepted: bool,
    /// The node's frontier after processing the vote — lets a losing
    /// coordinator refresh without another prepare round.
    pub committed: u64,
}

/// One replica of the counter: the vote state machine.
///
/// All vote handling is serialized under one mutex so "check frontier,
/// append WAL, apply" is atomic; the `alive` flag is separate so a chaos
/// harness can partition a node away without touching its state.
pub struct CounterNode {
    state: Mutex<NodeState>,
    alive: AtomicBool,
}

struct NodeState {
    /// Next free index (= number of indexes ever burned at this node).
    committed: u64,
    /// Durable log of burned indexes; `None` = memory-only (unit tests).
    wal: Option<Wal>,
}

impl CounterNode {
    /// A fresh, memory-only node (state dies with the process).
    pub fn new() -> Arc<CounterNode> {
        Arc::new(CounterNode {
            state: Mutex::new(NodeState {
                committed: 0,
                wal: None,
            }),
            alive: AtomicBool::new(true),
        })
    }

    /// A node whose commits are write-ahead logged at `path`; replays the
    /// log (discarding any torn tail) to recover its frontier.
    pub fn with_wal(path: &Path) -> io::Result<(Arc<CounterNode>, Recovery)> {
        let (wal, recovery) = Wal::open(path)?;
        Ok((
            Arc::new(CounterNode {
                state: Mutex::new(NodeState {
                    committed: recovery.committed,
                    wal: Some(wal),
                }),
                alive: AtomicBool::new(true),
            }),
            recovery,
        ))
    }

    /// The node's current frontier (diagnostics/tests).
    pub fn committed(&self) -> u64 {
        self.state.lock().committed
    }

    /// Whether the node is answering votes.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Phase-1 read: the node's frontier, or `None` if dead/partitioned.
    pub fn prepare(&self) -> Option<u64> {
        if !self.is_alive() {
            return None;
        }
        Some(self.state.lock().committed)
    }

    /// Phase-2 vote: conditionally burn `value`. Accepts iff `value >=
    /// frontier` — at or past the frontier means the node has never voted
    /// for `value` (or anything beyond), which is all a vote attests; a
    /// `value` *below* the frontier was already voted on here and is
    /// rejected, which is what makes duplicated, reordered, and stale
    /// deliveries no-ops. On accept the index is WAL-logged and fsynced
    /// **before** the ack leaves (a WAL write error refuses the vote —
    /// fail closed, never ack what isn't durable).
    pub fn commit(&self, value: u64) -> Option<CommitReply> {
        if !self.is_alive() {
            return None;
        }
        let mut state = self.state.lock();
        // `u64::MAX` has no successor: accepting it would wrap the
        // frontier to 0 and reopen every burned index. An exhausted
        // counter fails closed instead (the index space outlives any
        // realistic deployment; this guards the network-reachable op).
        if value < state.committed || value == u64::MAX {
            return Some(CommitReply {
                accepted: false,
                committed: state.committed,
            });
        }
        if let Some(wal) = state.wal.as_mut() {
            if wal.append(value).is_err() {
                return Some(CommitReply {
                    accepted: false,
                    committed: state.committed,
                });
            }
        }
        state.committed = value + 1;
        Some(CommitReply {
            accepted: true,
            committed: state.committed,
        })
    }

    /// Stop answering votes (crash / partition away).
    pub fn crash(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Resume answering votes with state as-is (the caller is responsible
    /// for catch-up; see [`CounterNode::adopt`]).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Max-merge a frontier learned from peers (the frontier read); logs
    /// the adopted frontier *before* applying it so it, too, survives a
    /// crash. Fail-closed like [`CounterNode::commit`]: a WAL error
    /// leaves the in-memory frontier untouched and surfaces to the
    /// caller, rather than silently holding state that isn't durable.
    /// (Keeping the old, lower frontier is safe — it is the ordinary
    /// lagging-node state, caught up by the next vote or adopt.)
    pub fn adopt(&self, committed: u64) -> io::Result<()> {
        let mut state = self.state.lock();
        if committed > state.committed {
            if let Some(wal) = state.wal.as_mut() {
                // Log only the frontier (committed - 1): the skipped range
                // was never acked here, so durability isn't owed for it.
                wal.append(committed - 1)?;
            }
            state.committed = committed;
        }
        Ok(())
    }

    /// Simulate a crash-restart: discard in-memory state and rebuild it
    /// from the WAL alone (reopening the file replays the committed
    /// prefix and truncates any torn tail). Memory-only nodes reset to 0
    /// — exactly the data loss the WAL exists to prevent.
    pub fn reload_from_wal(&self) -> io::Result<Recovery> {
        let mut state = self.state.lock();
        let recovery = match state.wal.as_ref().map(|w| w.path().to_path_buf()) {
            Some(path) => {
                // Drop the old handle first so truncation happens on the
                // freshly opened descriptor.
                state.wal = None;
                let (wal, recovery) = Wal::open(&path)?;
                state.wal = Some(wal);
                recovery
            }
            None => Recovery {
                committed: 0,
                records: 0,
                discarded_bytes: 0,
            },
        };
        state.committed = recovery.committed;
        Ok(recovery)
    }
}

/// How a quorum coordinator reaches one counter node's vote endpoint.
///
/// Every method returns `None` when the node is unreachable (dead,
/// partitioned, timed out) — the coordinator counts `None` as a missing
/// vote, never as a rejection.
pub trait CounterTransport: Send + Sync {
    /// The frontier read: phase 1 of an allocation, and how a recovering
    /// node learns the frontier it must catch up to.
    fn prepare(&self) -> Option<u64>;
    /// Phase-2 conditional commit of `value`.
    fn commit(&self, value: u64) -> Option<CommitReply>;
}

/// In-process transport: the coordinator calls the node directly.
pub struct LocalTransport(pub Arc<CounterNode>);

impl CounterTransport for LocalTransport {
    fn prepare(&self) -> Option<u64> {
        self.0.prepare()
    }

    fn commit(&self, value: u64) -> Option<CommitReply> {
        self.0.commit(value)
    }
}

/// A majority-quorum replicated counter, seen from one coordinator.
///
/// Each replica process holds its own `CounterCluster` whose member
/// transports point at the full membership (itself via
/// [`LocalTransport`], peers over the wire). The single-process form
/// ([`CounterCluster::new`]) keeps every node in-process and is what the
/// unit tests and non-replicated benches use.
#[derive(Clone)]
pub struct CounterCluster {
    /// Full membership, coordinator's view; index = replica id.
    members: Arc<Vec<Arc<dyn CounterTransport>>>,
    /// Serializes proposals *from this coordinator* (peers still race —
    /// the commit round's conditional apply is what guarantees safety).
    proposal_lock: Arc<Mutex<()>>,
}

impl CounterCluster {
    /// A single-process cluster of `n` memory-only nodes, counter
    /// starting at 0.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::from_nodes((0..n).map(|_| CounterNode::new()).collect())
    }

    /// A single-process cluster over pre-built nodes (e.g. WAL-backed
    /// ones). The caller keeps the node handles to crash, revive and
    /// catch up a node ([`CounterNode::adopt`] of [`CounterCluster::committed`]).
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn from_nodes(nodes: Vec<Arc<CounterNode>>) -> Self {
        Self::from_transports(
            nodes
                .into_iter()
                .map(|node| Arc::new(LocalTransport(node)) as Arc<dyn CounterTransport>)
                .collect(),
        )
    }

    /// A coordinator over an explicit member list (one transport per
    /// replica, own node local, peers wired).
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn from_transports(members: Vec<Arc<dyn CounterTransport>>) -> Self {
        assert!(!members.is_empty(), "cluster needs at least one node");
        CounterCluster {
            members: Arc::new(members),
            proposal_lock: Arc::new(Mutex::new(())),
        }
    }

    /// Cluster size (full membership).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the cluster has no nodes (never: constructors require a
    /// non-empty membership).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of members currently answering votes, from this
    /// coordinator's vantage point.
    pub fn live_count(&self) -> usize {
        self.members
            .iter()
            .filter(|t| t.prepare().is_some())
            .count()
    }

    /// Majority threshold over the full membership.
    pub fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Whether a majority of members is reachable.
    pub fn has_quorum(&self) -> bool {
        self.live_count() >= self.quorum()
    }

    /// The highest committed counter value across reachable members — how
    /// many indexes have ever been burned. A diagnostics/test peek: the
    /// chaos suite uses it to prove a lost-response issuance burned
    /// exactly one index (at-most-once), and recovery tests use it to
    /// check catch-up.
    pub fn committed(&self) -> u64 {
        let _guard = self.proposal_lock.lock();
        self.members
            .iter()
            .filter_map(|t| t.prepare())
            .max()
            .unwrap_or(0)
    }

    /// Atomically allocate the next index. Returns `None` when quorum is
    /// unreachable — the caller must refuse issuance (fail closed).
    pub fn next_index(&self) -> Option<u64> {
        let _guard = self.proposal_lock.lock();
        let quorum = self.quorum();

        // Phase 1: read the frontier from every reachable member.
        let mut replies = 0usize;
        let mut value = 0u64;
        for member in self.members.iter() {
            if let Some(committed) = member.prepare() {
                replies += 1;
                value = value.max(committed);
            }
        }
        if replies < quorum {
            return None;
        }

        // Phase 2: commit `value` everywhere; majority accept = allocated.
        // On a lost race the replies carry the new frontier — retry there.
        for _ in 0..MAX_PROPOSE_ROUNDS {
            let mut reachable = 0usize;
            let mut accepts = 0usize;
            let mut frontier = value;
            for member in self.members.iter() {
                if let Some(reply) = member.commit(value) {
                    reachable += 1;
                    if reply.accepted {
                        accepts += 1;
                    }
                    frontier = frontier.max(reply.committed);
                }
            }
            if accepts >= quorum {
                return Some(value);
            }
            if reachable < quorum {
                return None;
            }
            // A concurrent coordinator won `value` (or a stale minority
            // burn skipped it): move to the observed frontier. Guard
            // against a frontier that didn't move so the loop always
            // makes progress toward the round bound; saturate so an
            // exhausted counter (frontier at `u64::MAX`, which every node
            // refuses) retries to the bound and fails closed instead of
            // wrapping to 0.
            value = frontier.max(value.saturating_add(1));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    /// A single-process cluster of `n` nodes plus the node handles that
    /// crash, revive and catch them up.
    fn local_cluster(n: usize) -> (CounterCluster, Vec<Arc<CounterNode>>) {
        let nodes: Vec<Arc<CounterNode>> = (0..n).map(|_| CounterNode::new()).collect();
        (CounterCluster::from_nodes(nodes.clone()), nodes)
    }

    #[test]
    fn sequential_allocation() {
        let cluster = CounterCluster::new(3);
        let values: Vec<u64> = (0..10).filter_map(|_| cluster.next_index()).collect();
        assert_eq!(values, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_allocation_is_duplicate_free() {
        let cluster = CounterCluster::new(5);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = cluster.clone();
            handles.push(thread::spawn(move || {
                (0..100)
                    .filter_map(|_| c.next_index())
                    .collect::<Vec<u64>>()
            }));
        }
        let mut seen = HashSet::new();
        for handle in handles {
            for v in handle.join().unwrap() {
                assert!(seen.insert(v), "duplicate index {v}");
            }
        }
        assert_eq!(seen.len(), 800);
    }

    #[test]
    fn racing_coordinators_never_duplicate_an_index() {
        // Two independent coordinators over the *same* nodes (distinct
        // proposal locks — the real multi-replica shape). Safety must
        // come from the conditional commit alone.
        let nodes: Vec<Arc<CounterNode>> = (0..3).map(|_| CounterNode::new()).collect();
        let coordinator = || {
            CounterCluster::from_transports(
                nodes
                    .iter()
                    .map(|n| Arc::new(LocalTransport(n.clone())) as Arc<dyn CounterTransport>)
                    .collect(),
            )
        };
        let a = coordinator();
        let b = coordinator();
        let mut handles = Vec::new();
        for cluster in [a, b] {
            handles.push(thread::spawn(move || {
                (0..200)
                    .filter_map(|_| cluster.next_index())
                    .collect::<Vec<u64>>()
            }));
        }
        let mut seen = HashSet::new();
        let mut total = 0;
        for handle in handles {
            for v in handle.join().unwrap() {
                total += 1;
                assert!(seen.insert(v), "duplicate index {v}");
            }
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn survives_minority_failure() {
        let (cluster, nodes) = local_cluster(5);
        assert_eq!(cluster.next_index(), Some(0));
        nodes[0].crash(); // leader dies
        nodes[1].crash();
        assert!(cluster.has_quorum());
        // New leader continues without reusing indexes.
        assert_eq!(cluster.next_index(), Some(1));
        assert_eq!(cluster.next_index(), Some(2));
    }

    #[test]
    fn majority_failure_fails_closed() {
        let (cluster, nodes) = local_cluster(3);
        assert_eq!(cluster.next_index(), Some(0));
        nodes[0].crash();
        nodes[1].crash();
        assert!(!cluster.has_quorum());
        assert_eq!(cluster.next_index(), None);
    }

    #[test]
    fn recovered_node_catches_up() {
        let (cluster, nodes) = local_cluster(3);
        nodes[2].crash();
        for _ in 0..5 {
            cluster.next_index().unwrap();
        }
        nodes[2].revive();
        nodes[2].adopt(cluster.committed()).unwrap();
        // Kill the nodes that saw all the traffic; the recovered node must
        // carry the state forward without reissuing.
        nodes[0].crash();
        assert_eq!(cluster.next_index(), Some(5));
    }

    #[test]
    fn minority_burn_skips_an_index_instead_of_duplicating() {
        // A commit that reaches only a minority must not hand out the
        // index; the next successful allocation moves past it.
        let nodes: Vec<Arc<CounterNode>> = (0..3).map(|_| CounterNode::new()).collect();
        // Stale/delayed commit delivered to a single node out of band.
        assert!(nodes[2].commit(0).unwrap().accepted);
        let cluster = CounterCluster::from_transports(
            nodes
                .iter()
                .map(|n| Arc::new(LocalTransport(n.clone())) as Arc<dyn CounterTransport>)
                .collect(),
        );
        // The coordinator observes the burned frontier via prepare and
        // allocates 1, never re-issuing 0 (which only node 2 burned) and
        // never double-issuing anything.
        assert_eq!(cluster.next_index(), Some(1));
        assert_eq!(cluster.next_index(), Some(2));
    }

    #[test]
    fn quorum_math() {
        assert_eq!(CounterCluster::new(1).quorum(), 1);
        assert_eq!(CounterCluster::new(3).quorum(), 2);
        assert_eq!(CounterCluster::new(4).quorum(), 3);
        assert_eq!(CounterCluster::new(5).quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        CounterCluster::new(0);
    }

    #[test]
    fn commit_at_u64_max_is_refused_not_wrapped() {
        // Accepting u64::MAX would set the frontier to MAX + 1 = 0 and
        // reopen every burned index. The vote is network-reachable, so
        // this must be a refusal, not an overflow.
        let node = CounterNode::new();
        assert!(node.commit(0).unwrap().accepted);
        let reply = node.commit(u64::MAX).unwrap();
        assert!(!reply.accepted);
        assert_eq!(reply.committed, 1, "frontier must be untouched");
        assert_eq!(node.committed(), 1);
        // The node still votes normally afterwards.
        assert!(node.commit(1).unwrap().accepted);

        // A node already at the end of the index space refuses forever
        // (fails closed) rather than wrapping.
        assert!(node.commit(u64::MAX - 1).unwrap().accepted);
        assert_eq!(node.committed(), u64::MAX);
        assert!(!node.commit(u64::MAX).unwrap().accepted);
        assert_eq!(node.committed(), u64::MAX);
    }

    #[test]
    fn exhausted_cluster_fails_closed_instead_of_reissuing() {
        // Drive every node's frontier to u64::MAX: allocation must answer
        // None (counter exhausted), never an index from the burned past.
        let (cluster, nodes) = local_cluster(3);
        for node in &nodes {
            // Direct minority burns, as a stale coordinator could send.
            assert!(node.commit(u64::MAX - 1).unwrap().accepted);
        }
        assert_eq!(cluster.committed(), u64::MAX);
        assert_eq!(cluster.next_index(), None);
        assert_eq!(cluster.committed(), u64::MAX, "no frontier wrapped");
    }

    #[test]
    fn wal_backed_node_survives_a_simulated_crash() {
        let mut path = std::env::temp_dir();
        path.push(format!("smacs-replica-wal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (node, recovery) = CounterNode::with_wal(&path).unwrap();
        assert_eq!(recovery.committed, 0);
        for v in 0..4 {
            assert!(node.commit(v).unwrap().accepted);
        }
        node.crash();
        // RAM gone: reload must rebuild the frontier from the log alone.
        let recovery = node.reload_from_wal().unwrap();
        assert_eq!(recovery.committed, 4);
        node.revive();
        assert_eq!(node.committed(), 4);
        assert!(node.commit(4).unwrap().accepted);
        std::fs::remove_file(&path).unwrap();
    }
}
