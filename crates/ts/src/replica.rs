//! A replicated counter for one-time token indexes (§VII-B availability).
//!
//! "If a TS service is offering one-time tokens, then its replicas have to
//! coordinate on the current counter value. That can be efficiently
//! realized via a replicated counter primitive usually implemented upon a
//! standard consensus algorithm." This module implements that primitive as
//! a majority quorum, with the protocol kept apart from the I/O that
//! carries it:
//!
//! - the **coordinator** (`Coordinator`) is a pure state machine. It opens
//!   a phase by naming the `Vote` to broadcast — `Prepare` (read every
//!   member's frontier) and then `Commit(value)` at the highest frontier
//!   read — takes one reply per member (or word that the member is
//!   unreachable), and answers with the next phase's vote or the outcome.
//!   It does no I/O, reads no clock and takes no lock;
//! - the **vote rule** (`accepts`) is one pure function: a node at
//!   `frontier` accepts `Commit(value)` iff `value >= frontier` (it never
//!   voted for `value` or anything beyond) and `value != u64::MAX`, and
//!   its frontier becomes `value + 1`;
//! - a [`CounterNode`] is one replica's vote state: the frontier behind a
//!   mutex, an `alive` flag, and an optional crash-durable
//!   [`crate::wal::Wal`] that it appends and fsyncs between the vote
//!   rule's decision and the apply, so no vote is acknowledged before it
//!   is durable;
//! - the **host** is [`CounterCluster::next_index`]: it delivers each
//!   vote to every member in turn — its own node in process, peers as
//!   protocol-v2 `counter_*` ops over the wire — and feeds each reply
//!   back, staggering its retries after a lost commit round. An index is
//!   allocated iff a **majority of the full membership** accepted the
//!   commit; anything less fails closed (`None` → the TS refuses one-time
//!   issuance rather than risk duplicates);
//! - the **checker** (`replica::check`, test-only) drives the same
//!   coordinator and vote rule through every interleaving of two
//!   coordinators over three nodes, with votes timed out, delivered late
//!   and duplicated, and a crash that keeps only what the WAL made
//!   durable; a seeded random walk over the same step function covers
//!   larger clusters.
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
//! for at-most-once issuance. The prepare quorum is what keeps a
//! proposal above every index already issued: it intersects the majority
//! that accepted each of them.

use crate::api::{CounterCommitBody, CounterStateBody, CounterVoteBody};
use crate::http::HttpClient;
use crate::wal::{Recovery, Wal};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

#[cfg(test)]
mod check;

/// Bound on commit-round retries after losing a race to a concurrent
/// coordinator. Each retry re-reads the frontier from the losing round's
/// replies, so contention resolves in a round or two; the bound only
/// keeps pathological schedules from spinning forever.
const MAX_PROPOSE_ROUNDS: usize = 64;

/// How much longer each replica waits than the one before it before
/// retrying a commit round, per round lost beyond the first retry (see
/// [`CounterCluster::next_index`]).
const RETRY_STAGGER: Duration = Duration::from_micros(50);

/// What a coordinator broadcasts to every member to open a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash, PartialOrd, Ord))]
pub(crate) enum Vote {
    /// The frontier read (`counter_prepare`).
    Prepare,
    /// Burn this index (`counter_commit`).
    Commit(u64),
}

/// A node's answer to a vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash, PartialOrd, Ord))]
pub struct Reply {
    /// True iff the vote burned its index here: a commit at or past the
    /// node's frontier. A prepare burns nothing.
    pub accepted: bool,
    /// The node's frontier after the vote — what a prepare reads, and how
    /// a losing coordinator refreshes without another prepare round.
    pub committed: u64,
}

/// The vote rule: a node at `frontier` accepts a commit of `value` iff it
/// never voted for `value` or anything beyond and `value` has a successor
/// (accepting `u64::MAX` would wrap the frontier to 0 and reopen every
/// burned index). Returns the frontier after accepting.
pub(crate) fn accepts(frontier: u64, value: u64) -> Option<u64> {
    (value >= frontier && value != u64::MAX).then(|| value + 1)
}

/// Majority threshold over a membership of `members`.
fn quorum(members: usize) -> usize {
    members / 2 + 1
}

/// What the host does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Open the next phase: deliver this vote to every member.
    Send(Vote),
    /// The allocation is over: the index, or `None` (fail closed).
    Done(Option<u64>),
}

/// One allocation, seen from its coordinator: the open phase and the
/// replies counted in it.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct Coordinator {
    /// 0 for the prepare, `k` for the `k`-th commit round.
    phase: usize,
    vote: Vote,
    /// Which members answered, or were reported unreachable, this phase.
    heard: Vec<bool>,
    reachable: usize,
    accepted: usize,
    /// The highest frontier seen this phase.
    frontier: u64,
}

impl Coordinator {
    /// Start an allocation over `members` nodes; returns the vote that
    /// opens phase 0.
    pub(crate) fn new(members: usize) -> (Coordinator, Vote) {
        let coordinator = Coordinator {
            phase: 0,
            vote: Vote::Prepare,
            heard: vec![false; members],
            reachable: 0,
            accepted: 0,
            frontier: 0,
        };
        (coordinator, Vote::Prepare)
    }

    /// The open phase, which tags the replies that count in it.
    pub(crate) fn phase(&self) -> usize {
        self.phase
    }

    /// Count `member`'s reply to `phase` (`None`: unreachable). Returns
    /// the next step once every member of the open phase has been heard
    /// from, and `None` before that; a reply to a phase already left, or
    /// a member's second reply in a phase, counts for nothing.
    pub(crate) fn receive(
        &mut self,
        phase: usize,
        member: usize,
        reply: Option<Reply>,
    ) -> Option<Step> {
        if phase != self.phase || std::mem::replace(&mut self.heard[member], true) {
            return None;
        }
        if let Some(reply) = reply {
            self.reachable += 1;
            self.accepted += usize::from(reply.accepted);
            self.frontier = self.frontier.max(reply.committed);
        }
        if self.heard.contains(&false) {
            return None;
        }
        let quorum = quorum(self.heard.len());
        let value = match self.vote {
            Vote::Prepare if self.reachable < quorum => return Some(Step::Done(None)),
            Vote::Prepare => self.frontier,
            Vote::Commit(value) if self.accepted >= quorum => return Some(Step::Done(Some(value))),
            Vote::Commit(_) if self.reachable < quorum || self.phase == MAX_PROPOSE_ROUNDS => {
                return Some(Step::Done(None))
            }
            // A concurrent coordinator won `value` (or a stale minority
            // burn skipped it): move to the observed frontier. Guard
            // against a frontier that didn't move so every round makes
            // progress toward the bound; saturate so an exhausted counter
            // (frontier at `u64::MAX`, which every node refuses) retries
            // to the bound and fails closed instead of wrapping to 0.
            Vote::Commit(value) => self.frontier.max(value.saturating_add(1)),
        };
        self.phase += 1;
        self.vote = Vote::Commit(value);
        self.heard.fill(false);
        self.reachable = 0;
        self.accepted = 0;
        self.frontier = value;
        Some(Step::Send(self.vote))
    }
}

/// One replica of the counter: the vote state machine.
///
/// All vote handling is serialized under one mutex so "decide, append WAL,
/// apply" is atomic; the `alive` flag is separate so a chaos harness can
/// partition a node away without touching its state.
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
    fn from_state(committed: u64, wal: Option<Wal>) -> Arc<CounterNode> {
        Arc::new(CounterNode {
            state: Mutex::new(NodeState { committed, wal }),
            alive: AtomicBool::new(true),
        })
    }

    /// A fresh, memory-only node (state dies with the process).
    pub fn new() -> Arc<CounterNode> {
        Self::from_state(0, None)
    }

    /// A node whose commits are write-ahead logged at `path`; replays the
    /// log (discarding any torn tail) to recover its frontier.
    pub fn with_wal(path: &Path) -> io::Result<(Arc<CounterNode>, Recovery)> {
        let (wal, recovery) = Wal::open(path)?;
        Ok((Self::from_state(recovery.committed, Some(wal)), recovery))
    }

    /// The node's current frontier (diagnostics/tests).
    pub fn committed(&self) -> u64 {
        self.state.lock().committed
    }

    /// Answer one vote, or `None` while the node is down. A commit the
    /// vote rule accepts is WAL-logged and fsynced **before** it is
    /// applied and acknowledged; a WAL write error refuses the vote (fail
    /// closed, never ack what isn't durable).
    pub(crate) fn handle(&self, vote: Vote) -> Option<Reply> {
        if !self.alive.load(Ordering::SeqCst) {
            return None;
        }
        let mut state = self.state.lock();
        let refused = Reply {
            accepted: false,
            committed: state.committed,
        };
        let Vote::Commit(value) = vote else {
            return Some(refused);
        };
        let Some(frontier) = accepts(state.committed, value) else {
            return Some(refused);
        };
        if let Some(wal) = state.wal.as_mut() {
            if wal.append(value).is_err() {
                return Some(refused);
            }
        }
        state.committed = frontier;
        Some(Reply {
            accepted: true,
            committed: frontier,
        })
    }

    /// Vote on burning `value`, as a coordinator's commit does: accepted
    /// iff the vote rule accepts it and the WAL append succeeds; `None`
    /// while the node is down.
    pub fn commit(&self, value: u64) -> Option<Reply> {
        self.handle(Vote::Commit(value))
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
    /// prefix and truncates any torn tail). The old log handle is
    /// replaced only once the new one is open, so a failed reload leaves
    /// the node WAL-backed and a retry replays the same log. Memory-only
    /// nodes reset to 0 — exactly the data loss the WAL exists to prevent.
    pub fn reload_from_wal(&self) -> io::Result<Recovery> {
        let mut state = self.state.lock();
        let recovery = match state.wal.as_mut() {
            Some(wal) => {
                let (reopened, recovery) = Wal::open(wal.path())?;
                *wal = reopened;
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

/// One member of a coordinator's membership, as its host reaches it.
pub(crate) enum Member {
    /// A node in this process (a replica never loses the network to
    /// itself).
    Local(Arc<CounterNode>),
    /// A peer's vote endpoint over the wire. It starts unset (peer
    /// endpoints are bound after the clusters that vote through them)
    /// and is set once by `ReplicaSet::start`; an unset peer is
    /// unreachable, which fails closed.
    Peer(OnceLock<HttpClient>),
}

impl Member {
    /// Deliver `vote` and wait for the reply; `None`: unreachable. Over
    /// the wire a vote is sent exactly once, so a prepare or a commit
    /// whose reply is lost reads as unreachable (a lost commit ack never
    /// comes back `accepted: false`); the protocol already treats any vote
    /// as possibly lost.
    pub(crate) fn send(&self, vote: Vote) -> Option<Reply> {
        let client = match self {
            Member::Local(node) => return node.handle(vote),
            Member::Peer(target) => target.get()?,
        };
        match vote {
            Vote::Prepare => {
                let state: CounterStateBody = client.send("counter_prepare", None).ok()?;
                Some(Reply {
                    accepted: false,
                    committed: state.committed,
                })
            }
            Vote::Commit(value) => {
                let body = CounterCommitBody { value };
                let vote: CounterVoteBody = client.send("counter_commit", Some(&body)).ok()?;
                Some(Reply {
                    accepted: vote.accepted,
                    committed: vote.committed,
                })
            }
        }
    }
}

/// A majority-quorum replicated counter, seen from one coordinator.
///
/// Each replica process holds its own `CounterCluster` whose members
/// are the full membership (its own node in process, peers over the
/// wire). The single-process form ([`CounterCluster::new`]) keeps every
/// node in process and is what the unit tests and non-replicated benches
/// use.
#[derive(Clone)]
pub struct CounterCluster {
    /// Full membership, coordinator's view; index = replica id.
    members: Arc<Vec<Member>>,
    /// Serializes allocations *from this coordinator* — the host's
    /// choice, not the protocol's: peers still race, and the commit
    /// round's conditional apply is what guarantees safety.
    proposal_lock: Arc<Mutex<()>>,
    /// Pause per commit round lost beyond the first retry: this coordinator's
    /// position in the membership times [`RETRY_STAGGER`] when its peers
    /// are on the wire, zero for an all-in-process cluster.
    stagger: Duration,
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
        Self::from_members(nodes.into_iter().map(Member::Local).collect())
    }

    /// A coordinator over an explicit membership (own node local, peers
    /// wired).
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub(crate) fn from_members(members: Vec<Member>) -> Self {
        assert!(!members.is_empty(), "cluster needs at least one node");
        let wired = members.iter().any(|m| matches!(m, Member::Peer(_)));
        let own = members.iter().position(|m| matches!(m, Member::Local(_)));
        let stagger = match own {
            Some(id) if wired => RETRY_STAGGER * id as u32,
            _ => Duration::ZERO,
        };
        CounterCluster {
            members: Arc::new(members),
            proposal_lock: Arc::new(Mutex::new(())),
            stagger,
        }
    }

    /// The membership, in replica-id order.
    pub(crate) fn members(&self) -> &[Member] {
        &self.members
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

    /// Every reachable member's frontier read.
    fn frontiers(&self) -> impl Iterator<Item = u64> + '_ {
        self.members
            .iter()
            .filter_map(|m| m.send(Vote::Prepare))
            .map(|reply| reply.committed)
    }

    /// Number of members currently answering votes, from this
    /// coordinator's vantage point.
    pub fn live_count(&self) -> usize {
        self.frontiers().count()
    }

    /// Majority threshold over the full membership.
    pub fn quorum(&self) -> usize {
        quorum(self.members.len())
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
        self.frontiers().max().unwrap_or(0)
    }

    /// Atomically allocate the next index. Returns `None` when quorum is
    /// unreachable — the caller must refuse issuance (fail closed).
    ///
    /// The host loop: deliver each phase's vote to every member in turn
    /// and feed each reply to the coordinator; the last member's reply
    /// closes the phase. After losing two commit rounds in a row the host
    /// pauses before each further retry, longer the higher its replica id
    /// and the more rounds it has lost. Without the pause, two replicas left with only their own two
    /// nodes duel: each reaches its own node first, wins it, loses the
    /// other's, and both retry in lockstep until `MAX_PROPOSE_ROUNDS` runs
    /// out and both fail closed. The pause changes no vote and no
    /// outcome the protocol allows, only which coordinator gets there
    /// first.
    pub fn next_index(&self) -> Option<u64> {
        let _guard = self.proposal_lock.lock();
        let (mut coordinator, mut vote) = Coordinator::new(self.members.len());
        loop {
            let phase = coordinator.phase();
            let mut step = None;
            for (id, member) in self.members.iter().enumerate() {
                step = coordinator.receive(phase, id, member.send(vote));
            }
            match step.expect("the last member's reply closes the phase") {
                Step::Send(next) => {
                    // Phase 2 is the first retry, which a lost race
                    // usually needs once; a duel loses it again.
                    let duelling = coordinator.phase().saturating_sub(2) as u32;
                    if duelling > 0 && !self.stagger.is_zero() {
                        std::thread::sleep(self.stagger * duelling);
                    }
                    vote = next;
                }
                Step::Done(index) => return index,
            }
        }
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
        let a = CounterCluster::from_nodes(nodes.clone());
        let b = CounterCluster::from_nodes(nodes);
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
        let cluster = CounterCluster::from_nodes(nodes);
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

    #[test]
    fn a_failed_reload_keeps_the_node_wal_backed() {
        let path =
            std::env::temp_dir().join(format!("smacs-replica-reload-{}", std::process::id()));
        let aside = path.with_extension("aside");
        let _ = std::fs::remove_file(&path);
        let (node, _) = CounterNode::with_wal(&path).unwrap();
        for v in 0..4 {
            assert!(node.commit(v).unwrap().accepted);
        }
        node.crash();
        // The log is unreadable for one reload: a directory stands where
        // the file was.
        std::fs::rename(&path, &aside).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(node.reload_from_wal().is_err());
        std::fs::remove_dir(&path).unwrap();
        std::fs::rename(&aside, &path).unwrap();
        // The retry replays the same log instead of resetting to a
        // memory-only frontier of 0.
        assert_eq!(node.reload_from_wal().unwrap().committed, 4);
        node.revive();
        assert_eq!(node.committed(), 4);
        assert!(!node.commit(0).unwrap().accepted, "index 0 stays burned");
        let before = std::fs::metadata(&path).unwrap().len();
        assert!(node.commit(4).unwrap().accepted);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            before + crate::wal::RECORD_SIZE as u64,
            "the vote was logged before it was acked"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn coordinator_counts_each_member_once_and_ignores_a_left_phase() {
        let reply = |committed| {
            Some(Reply {
                accepted: false,
                committed,
            })
        };
        let (mut coordinator, vote) = Coordinator::new(3);
        assert_eq!(vote, Vote::Prepare);
        assert_eq!(coordinator.receive(0, 0, reply(5)), None);
        // A duplicated reply from member 0 does not stand in for member 1.
        assert_eq!(coordinator.receive(0, 0, reply(5)), None);
        assert_eq!(coordinator.receive(0, 1, None), None);
        assert_eq!(
            coordinator.receive(0, 2, reply(2)),
            Some(Step::Send(Vote::Commit(5)))
        );
        // A late prepare reply no longer counts.
        assert_eq!(coordinator.receive(0, 1, reply(9)), None);
        let accept = Some(Reply {
            accepted: true,
            committed: 6,
        });
        assert_eq!(coordinator.receive(1, 0, accept), None);
        assert_eq!(coordinator.receive(1, 1, None), None);
        assert_eq!(coordinator.receive(1, 2, accept), Some(Step::Done(Some(5))));
    }
}
