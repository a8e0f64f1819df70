//! Property test: the quorum counter state machine under adversarial vote
//! delivery.
//!
//! Two coordinators share one set of [`CounterNode`]s, but each reaches
//! them through a `ChaosTransport` that mangles commit deliveries
//! according to a proptest-generated script — dropped votes, votes that
//! are applied but whose reply is lost, duplicated deliveries, and votes
//! stashed and re-delivered *after* newer traffic (reordering). Across
//! arbitrary interleavings the protocol must uphold:
//!
//! 1. **uniqueness** — no one-time index is ever allocated twice, by
//!    either coordinator;
//! 2. **no sub-quorum commit** — every allocated index was genuinely
//!    accepted by at least a majority of the full membership (checked
//!    against a ground-truth accept log kept *inside* the transport, not
//!    against what the coordinator believes it saw).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smacs_ts::{CommitReply, CounterCluster, CounterNode, CounterTransport};

#[derive(Clone, Copy, Debug)]
enum Action {
    /// Normal delivery.
    Deliver,
    /// The vote never arrives; the coordinator sees the peer unreachable.
    Drop,
    /// The node applies the vote but the reply is lost on the way back —
    /// the worst case for a coordinator, which must count it as missing.
    ApplyLoseReply,
    /// The vote arrives twice; the echo's reply is discarded.
    Duplicate,
    /// The vote is held back and re-delivered later, after newer traffic
    /// has moved the frontier — a stale, reordered arrival.
    Stash,
}

impl Action {
    fn from_u8(raw: u8) -> Action {
        match raw % 5 {
            0 => Action::Deliver,
            1 => Action::Drop,
            2 => Action::ApplyLoseReply,
            3 => Action::Duplicate,
            _ => Action::Stash,
        }
    }
}

/// Ground truth shared by every transport: which nodes actually accepted
/// which values, regardless of what any coordinator observed.
type AcceptLog = Arc<Mutex<Vec<(usize, u64)>>>;

struct ChaosTransport {
    node: Arc<CounterNode>,
    node_id: usize,
    /// Shared action script, consumed one entry per commit delivery.
    script: Arc<Mutex<Vec<u8>>>,
    /// Values held back by `Stash`, re-delivered before the next commit.
    stash: Mutex<Vec<u64>>,
    log: AcceptLog,
}

impl ChaosTransport {
    fn next_action(&self) -> Action {
        self.script
            .lock()
            .unwrap()
            .pop()
            .map(Action::from_u8)
            .unwrap_or(Action::Deliver)
    }

    fn deliver(&self, value: u64) -> Option<CommitReply> {
        let reply = self.node.commit(value);
        if let Some(r) = reply {
            if r.accepted {
                self.log.lock().unwrap().push((self.node_id, value));
            }
        }
        reply
    }
}

impl CounterTransport for ChaosTransport {
    fn prepare(&self) -> Option<u64> {
        self.node.prepare()
    }

    fn commit(&self, value: u64) -> Option<CommitReply> {
        let result = match self.next_action() {
            Action::Deliver => self.deliver(value),
            Action::Drop => None,
            Action::ApplyLoseReply => {
                self.deliver(value);
                None
            }
            Action::Duplicate => {
                let first = self.deliver(value);
                let _ = self.deliver(value);
                first
            }
            Action::Stash => {
                self.stash.lock().unwrap().push(value);
                None
            }
        };
        // Stale re-delivery: everything stashed earlier arrives now, after
        // the (possibly newer) value above. Replies go nowhere — their
        // coordinator round is long over.
        for stale in self.stash.lock().unwrap().drain(..) {
            if stale != value {
                let _ = self.deliver(stale);
            }
        }
        result
    }
}

fn coordinator(
    nodes: &[Arc<CounterNode>],
    script: &Arc<Mutex<Vec<u8>>>,
    log: &AcceptLog,
) -> CounterCluster {
    CounterCluster::from_transports(
        nodes
            .iter()
            .enumerate()
            .map(|(node_id, node)| {
                Arc::new(ChaosTransport {
                    node: node.clone(),
                    node_id,
                    script: script.clone(),
                    stash: Mutex::new(Vec::new()),
                    log: log.clone(),
                }) as Arc<dyn CounterTransport>
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_vote_interleavings_stay_unique_and_quorum_backed(
        replicas in 3usize..6,
        raw_script in prop::collection::vec(0u8..5, 0..150),
        schedule in prop::collection::vec(0u8..2, 1..40),
    ) {
        let nodes: Vec<Arc<CounterNode>> =
            (0..replicas).map(|_| CounterNode::new()).collect();
        let log: AcceptLog = Arc::new(Mutex::new(Vec::new()));
        let script = Arc::new(Mutex::new(raw_script));
        let coordinators =
            [coordinator(&nodes, &script, &log), coordinator(&nodes, &script, &log)];
        let quorum = coordinators[0].quorum();

        let mut allocated = HashSet::new();
        for pick in schedule {
            // An allocation may legitimately fail under heavy vote loss
            // (fail closed); what it may never do is repeat.
            if let Some(index) = coordinators[pick as usize].next_index() {
                prop_assert!(
                    allocated.insert(index),
                    "index {index} allocated twice (replicas={replicas})"
                );
            }
        }

        // Ground truth: every allocated index was accepted by a majority
        // of distinct nodes — the coordinator never trusted a sub-quorum
        // round, no matter how replies were dropped or reordered.
        let mut accepts: HashMap<u64, HashSet<usize>> = HashMap::new();
        for (node_id, value) in log.lock().unwrap().iter() {
            accepts.entry(*value).or_default().insert(*node_id);
        }
        for index in &allocated {
            let voters = accepts.get(index).map_or(0, HashSet::len);
            prop_assert!(
                voters >= quorum,
                "index {index} allocated with only {voters}/{quorum} accepts"
            );
        }

        // And no node double-accepted a value (the frontier check makes
        // duplicate deliveries no-ops).
        let entries = log.lock().unwrap().len();
        let distinct: HashSet<(usize, u64)> =
            log.lock().unwrap().iter().copied().collect();
        prop_assert_eq!(entries, distinct.len());
    }
}
