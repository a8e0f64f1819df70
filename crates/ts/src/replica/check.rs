//! An exhaustive checker for the quorum-counter protocol, in the spirit of
//! the Stateright model checker.
//!
//! The checker is a host like [`CounterCluster::next_index`], but one that
//! owns the network: it drives the real [`Coordinator`] and the real vote
//! rule ([`accepts`]) over a multiset of votes in flight, each tagged with
//! its coordinator, allocation and phase. Every coordinator starts its
//! next allocation as soon as the last one ends (a later start is the same
//! as its prepare votes waiting in flight). From every state it may
//!
//! - deliver any vote: the node answers, and the reply reaches the
//!   allocation that sent the vote in the same step. A reply that arrives
//!   later is the same as the next phase's votes waiting in flight, so
//!   this loses no interleaving the properties can see; the coordinator
//!   itself must ignore a reply to a phase it has left or a member's
//!   second reply;
//! - time a coordinator out on a vote it still waits for (within the run's
//!   budget): the coordinator hears the member unreachable, and the vote
//!   stays in flight, to arrive late or never — a lost vote, a lost reply
//!   and a stale delivery in one;
//! - duplicate any vote (within the run's budget);
//! - crash and recover a node (within the run's budget): the node keeps
//!   only what its WAL made durable. A crash that would restore the state
//!   the node already has is a stutter and is not explored; the timeouts
//!   cover the votes a crash cuts off.
//!
//! A node is its frontier and its WAL: the vote rule decides, the WAL
//! append happens, then the frontier moves — `CounterNode::handle`'s
//! order. States are deduplicated by a 64-bit hash. After every step the
//! checker asserts:
//!
//! 1. no index is issued twice;
//! 2. every issued index is in the WAL of a majority of the nodes;
//! 3. no node's frontier goes backwards;
//! 4. no node accepts a value twice;
//! 5. a coordinator proposes a commit only after a majority of the nodes
//!    answered its prepare — counted by the checker, not the coordinator.
//!    Properties 1–4 hold by the conditional commit alone; the prepare
//!    quorum is what keeps a proposal above every index already issued,
//!    so a coordinator that trusts a minority's frontier breaks only this.
//!
//! A violation panics with the trace of steps that led to it.
//!
//! [`CounterCluster::next_index`]: super::CounterCluster::next_index

use super::{accepts, Coordinator, Reply, Step, Vote};
use proptest::test_runner::TestRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// How far one run may go.
#[derive(Clone, Copy, Debug)]
struct Bound {
    nodes: usize,
    coordinators: usize,
    /// Allocations each coordinator makes.
    allocations: u8,
    /// Votes a coordinator may time out on in one run.
    timeouts: u8,
    /// Messages the network may duplicate in one run.
    duplicates: u8,
    /// Crash-and-recovers in one run.
    crashes: u8,
}

/// One vote in flight, tagged with the allocation and phase it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Msg {
    coordinator: u8,
    /// Which of the coordinator's allocations sent the vote, named by how
    /// many it had left after starting it (so 1, then 0, for two).
    allocation: u8,
    phase: u8,
    node: u8,
    vote: Vote,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    /// The node answers and the reply reaches the coordinator.
    Deliver(Msg),
    /// The coordinator gives up on the node for this phase; the vote stays
    /// in flight and may still arrive, late, or never.
    Timeout(Msg),
    Duplicate(Msg),
    Crash(u8),
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Node {
    frontier: u64,
    /// The values the node's WAL holds: everything it ever accepted.
    wal: Vec<u64>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Host {
    /// Allocations not yet begun; the one running is tagged with this.
    left: u8,
    running: Option<Allocation>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Allocation {
    coordinator: Coordinator,
    /// The nodes whose prepare reply reached the coordinator: the ground
    /// truth its prepare quorum is checked against.
    prepared: u8,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Model {
    nodes: Vec<Node>,
    hosts: Vec<Host>,
    /// The multiset of messages in flight, kept sorted.
    network: Vec<Msg>,
    /// Every index issued so far, sorted.
    issued: Vec<u64>,
    timeouts: u8,
    duplicates: u8,
    crashes: u8,
}

impl Model {
    fn new(bound: Bound) -> Model {
        let mut model = Model {
            nodes: vec![
                Node {
                    frontier: 0,
                    wal: Vec::new()
                };
                bound.nodes
            ],
            hosts: vec![
                Host {
                    left: bound.allocations,
                    running: None,
                };
                bound.coordinators
            ],
            network: Vec::new(),
            issued: Vec::new(),
            timeouts: bound.timeouts,
            duplicates: bound.duplicates,
            crashes: bound.crashes,
        };
        for c in 0..bound.coordinators as u8 {
            model.start(c);
        }
        model
    }

    /// Every step the model may take next.
    fn actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for (i, &msg) in self.network.iter().enumerate() {
            if i > 0 && self.network[i - 1] == msg {
                continue;
            }
            actions.push(Action::Deliver(msg));
            if self.timeouts > 0 && self.awaits(msg) {
                actions.push(Action::Timeout(msg));
            }
            if self.duplicates > 0 {
                actions.push(Action::Duplicate(msg));
            }
        }
        if self.crashes > 0 {
            // A crash that restores the state the node already has is a
            // stutter: it reaches nothing the uncrashed state cannot. (The
            // votes it cuts off are the timeouts' to explore.)
            for (n, node) in self.nodes.iter().enumerate() {
                if node.durable_frontier() != node.frontier {
                    actions.push(Action::Crash(n as u8));
                }
            }
        }
        actions
    }

    /// The state after `action`, or the property it violates.
    fn apply(&self, action: Action) -> Result<Model, String> {
        let mut next = self.clone();
        match action {
            Action::Deliver(msg) => {
                next.take(msg);
                let reply = next.nodes[msg.node as usize].handle(msg.vote)?;
                next.receive(msg, Some(reply))?;
            }
            Action::Timeout(msg) => {
                next.timeouts -= 1;
                next.receive(msg, None)?;
            }
            Action::Duplicate(msg) => {
                next.duplicates -= 1;
                next.put(msg);
            }
            Action::Crash(n) => {
                next.crashes -= 1;
                let node = &mut next.nodes[n as usize];
                node.frontier = node.durable_frontier();
            }
        }
        for (n, (before, after)) in self.nodes.iter().zip(&next.nodes).enumerate() {
            if after.frontier < before.frontier {
                return Err(format!(
                    "node {n}'s frontier went back from {} to {}",
                    before.frontier, after.frontier
                ));
            }
        }
        let quorum = self.nodes.len() / 2 + 1;
        for index in &next.issued {
            let durable = next.nodes.iter().filter(|n| n.wal.contains(index)).count();
            if durable < quorum {
                return Err(format!(
                    "index {index} issued with {durable} durable accepts, quorum {quorum}"
                ));
            }
        }
        Ok(next)
    }

    fn put(&mut self, msg: Msg) {
        let at = self.network.partition_point(|m| *m < msg);
        self.network.insert(at, msg);
    }

    fn take(&mut self, msg: Msg) {
        let at = self.network.binary_search(&msg).expect("message in flight");
        self.network.remove(at);
    }

    fn broadcast(&mut self, coordinator: u8, allocation: u8, phase: usize, vote: Vote) {
        for node in 0..self.nodes.len() as u8 {
            self.put(Msg {
                coordinator,
                allocation,
                phase: phase as u8,
                node,
                vote,
            });
        }
    }

    /// Begin coordinator `c`'s next allocation, if it has one left. The
    /// checker starts an allocation as soon as the previous one ends: a
    /// later start is the same as its prepare votes sitting in flight.
    fn start(&mut self, c: u8) {
        let host = &mut self.hosts[c as usize];
        if host.left == 0 {
            return;
        }
        host.left -= 1;
        let (coordinator, vote) = Coordinator::new(self.nodes.len());
        host.running = Some(Allocation {
            coordinator,
            prepared: 0,
        });
        let allocation = host.left;
        self.broadcast(c, allocation, 0, vote);
    }

    /// The running allocation `msg` belongs to, if it is still running.
    fn allocation(&self, msg: Msg) -> Option<&Allocation> {
        let host = &self.hosts[msg.coordinator as usize];
        host.running
            .as_ref()
            .filter(|_| host.left == msg.allocation)
    }

    /// Whether `msg`'s coordinator is still waiting on its node.
    fn awaits(&self, msg: Msg) -> bool {
        self.allocation(msg).is_some_and(|a| {
            a.coordinator.phase() == msg.phase as usize && !a.coordinator.heard[msg.node as usize]
        })
    }

    /// Hand the coordinator that sent `msg`'s vote the member's answer.
    fn receive(&mut self, msg: Msg, reply: Option<Reply>) -> Result<(), String> {
        if self.allocation(msg).is_none() {
            return Ok(());
        }
        let c = msg.coordinator;
        let quorum = self.nodes.len() / 2 + 1;
        let host = &mut self.hosts[c as usize];
        let running = host.running.as_mut().expect("running");
        if reply.is_some() && msg.phase == 0 {
            running.prepared |= 1 << msg.node;
        }
        match running
            .coordinator
            .receive(msg.phase as usize, msg.node as usize, reply)
        {
            None => {}
            Some(Step::Send(vote)) => {
                let prepared = running.prepared.count_ones() as usize;
                if prepared < quorum {
                    return Err(format!(
                        "coordinator {c} proposed {vote:?} after {prepared} prepare replies, quorum {quorum}"
                    ));
                }
                let phase = running.coordinator.phase();
                self.broadcast(c, msg.allocation, phase, vote);
            }
            Some(Step::Done(index)) => {
                host.running = None;
                // A prepare changes no node, and nobody is left to read
                // its reply.
                self.network
                    .retain(|m| m.coordinator != c || m.vote != Vote::Prepare);
                if let Some(index) = index {
                    match self.issued.binary_search(&index) {
                        Ok(_) => return Err(format!("index {index} issued twice")),
                        Err(at) => self.issued.insert(at, index),
                    }
                }
                self.start(c);
            }
        }
        Ok(())
    }
}

impl Node {
    /// The frontier a restart recovers from the WAL.
    fn durable_frontier(&self) -> u64 {
        self.wal.iter().max().map_or(0, |v| v + 1)
    }

    /// Answer a vote: the vote rule decides, the WAL append makes an
    /// accept durable, then the frontier moves.
    fn handle(&mut self, vote: Vote) -> Result<Reply, String> {
        let refused = Reply {
            accepted: false,
            committed: self.frontier,
        };
        let Vote::Commit(value) = vote else {
            return Ok(refused);
        };
        let Some(frontier) = accepts(self.frontier, value) else {
            return Ok(refused);
        };
        if self.wal.contains(&value) {
            return Err(format!("a node accepted {value} twice"));
        }
        self.wal.push(value);
        self.frontier = frontier;
        Ok(Reply {
            accepted: true,
            committed: frontier,
        })
    }
}

fn fingerprint(model: &Model) -> u64 {
    let mut hasher = DefaultHasher::new();
    model.hash(&mut hasher);
    hasher.finish()
}

fn violated(trace: &[Action], last: Action, violation: &str) -> ! {
    let steps: Vec<String> = trace
        .iter()
        .chain([&last])
        .enumerate()
        .map(|(i, action)| format!("  {:>3}. {action:?}", i + 1))
        .collect();
    panic!("{violation}\ntrace:\n{}", steps.join("\n"));
}

/// Depth-first search of every state reachable from `model`.
fn explore(model: &Model, seen: &mut HashSet<u64>, trace: &mut Vec<Action>) {
    for action in model.actions() {
        match model.apply(action) {
            Err(violation) => violated(trace, action, &violation),
            Ok(next) => {
                if seen.insert(fingerprint(&next)) {
                    trace.push(action);
                    explore(&next, seen, trace);
                    trace.pop();
                }
            }
        }
    }
}

/// The number of distinct states reachable within `bound`.
fn states(bound: Bound) -> usize {
    let model = Model::new(bound);
    let mut seen = HashSet::from([fingerprint(&model)]);
    explore(&model, &mut seen, &mut Vec::new());
    seen.len()
}

/// Every interleaving of 3 nodes and 2 coordinators, at two bounds: one
/// deep in allocations and one deep in faults. A debug build runs each
/// with 1 allocation per coordinator and one fault fewer. The exact state
/// counts pin the search: a change that quietly shrinks it fails here.
#[test]
fn every_interleaving_keeps_indexes_unique_and_quorum_backed() {
    let release = !cfg!(debug_assertions);
    let bound = |allocations, timeouts, duplicates| Bound {
        nodes: 3,
        coordinators: 2,
        allocations,
        timeouts,
        duplicates,
        crashes: 1,
    };
    let bounds = if release {
        [(bound(2, 1, 0), 1_573_813), (bound(1, 2, 1), 1_656_311)]
    } else {
        [(bound(1, 1, 0), 10_371), (bound(1, 2, 0), 96_998)]
    };
    // Explore every bound before comparing counts, so that a violation
    // anywhere reports its trace rather than a count.
    let explored = bounds.map(|(bound, _)| {
        let start = std::time::Instant::now();
        let explored = states(bound);
        eprintln!(
            "{explored} states within {bound:?} in {:.1?}",
            start.elapsed()
        );
        explored
    });
    for ((bound, expected), explored) in bounds.iter().zip(explored) {
        assert_eq!(explored, *expected, "states explored within {bound:?}");
    }
}

/// Seeded random walks over the same step function on larger clusters:
/// 3–5 nodes, two coordinators with up to 40 allocations between them,
/// and more duplicates and crashes than the exhaustive bound allows. The
/// walk favours delivery so that most allocations finish with an index.
#[test]
fn random_walks_keep_indexes_unique_and_quorum_backed() {
    let mut issued = 0;
    for case in 0..64 {
        let mut rng = TestRng::deterministic("quorum_random_walk", case);
        let bound = Bound {
            nodes: 3 + rng.below(3) as usize,
            coordinators: 2,
            allocations: 1 + rng.below(20) as u8,
            timeouts: rng.below(40) as u8,
            duplicates: rng.below(9) as u8,
            crashes: rng.below(3) as u8,
        };
        let mut model = Model::new(bound);
        let mut trace = Vec::new();
        loop {
            let actions = model.actions();
            let calm: Vec<Action> = actions
                .iter()
                .copied()
                .filter(|a| matches!(a, Action::Deliver(_)))
                .collect();
            let pool = if !calm.is_empty() && rng.below(10) < 9 {
                &calm
            } else {
                &actions
            };
            let Some(&action) = pool.get(rng.below(pool.len().max(1) as u64) as usize) else {
                break;
            };
            model = model
                .apply(action)
                .unwrap_or_else(|v| violated(&trace, action, &format!("case {case}: {v}")));
            trace.push(action);
        }
        assert!(
            model
                .hosts
                .iter()
                .all(|h| h.left == 0 && h.running.is_none()),
            "case {case}: every allocation finishes"
        );
        issued += model.issued.len();
    }
    assert!(issued > 0, "the walks issued no index at all");
}
