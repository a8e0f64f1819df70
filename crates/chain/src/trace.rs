//! Execution traces: the call tree with per-frame storage access sets.
//!
//! Every transaction execution produces a [`CallTrace`]. The trace is the
//! raw material for the runtime-verification tools of §V: the ECF checker
//! walks the call tree looking for re-entered frames whose storage accesses
//! interleave, and Hydra compares head outputs recorded at the root.

use smacs_primitives::{Address, H256};

use crate::abi::Selector;

/// How a frame finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameStatus {
    /// Completed normally.
    Success,
    /// Reverted (explicitly or by a failed require).
    Reverted,
    /// Ran out of gas.
    OutOfGas,
}

/// A storage access performed by a frame (directly, not via children).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageAccess {
    /// `sload(slot)`.
    Read {
        /// The slot read.
        slot: H256,
    },
    /// `sstore(slot, _)`.
    Write {
        /// The slot written.
        slot: H256,
    },
}

/// One ordered event inside a frame: its own storage accesses interleaved
/// with markers for nested calls. The ordering is what lets the ECF checker
/// split a frame's accesses into before-the-callback and after-the-callback
/// sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A storage access by this frame's own code.
    Access(StorageAccess),
    /// A nested call; `child` indexes into [`TraceFrame::children`].
    Call {
        /// Index of the nested frame in `children`.
        child: usize,
    },
}

/// One message-call frame.
///
/// Call trees can be [`MAX_CALL_DEPTH`](crate::exec::MAX_CALL_DEPTH)-deep
/// (1024). The executor builds the deep part on its own deep-stack thread,
/// but the tree is read and dropped on the thread that submitted the
/// transaction, which may have a small stack, so every whole-tree
/// operation that structurally recurses — `Drop`, [`TraceFrame::walk`],
/// [`TraceFrame::reenters`] — is implemented iteratively with an explicit
/// worklist. A trace is never cloned. (`Debug` and `PartialEq` remain
/// derived: they only run in tests/diagnostics on full-size stacks.)
#[derive(PartialEq, Debug)]
pub struct TraceFrame {
    /// The contract (or EOA) that received the call.
    pub callee: Address,
    /// The immediate caller (`msg.sender` for this frame).
    pub caller: Address,
    /// The 4-byte selector, if the calldata carried one (`msg.sig`).
    pub selector: Option<Selector>,
    /// Wei transferred with the call.
    pub value: u128,
    /// Call depth (0 = top-level transaction call).
    pub depth: usize,
    /// Ordered events: this frame's own storage accesses interleaved with
    /// nested-call markers.
    pub events: Vec<TraceEvent>,
    /// Nested calls, in order.
    pub children: Vec<TraceFrame>,
    /// How the frame finished.
    pub status: FrameStatus,
}

impl Drop for TraceFrame {
    fn drop(&mut self) {
        // Hoist descendants into a flat worklist so the compiler-generated
        // recursive drop glue only ever sees empty `children`.
        let mut stack = std::mem::take(&mut self.children);
        while let Some(mut frame) = stack.pop() {
            stack.append(&mut frame.children);
        }
    }
}

impl TraceFrame {
    /// All frames (this one and descendants), pre-order.
    pub fn walk(&self) -> Vec<&TraceFrame> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(frame) = stack.pop() {
            out.push(frame);
            stack.extend(frame.children.iter().rev());
        }
        out
    }

    /// This frame's own storage accesses, in order.
    pub fn accesses(&self) -> impl Iterator<Item = &StorageAccess> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Access(a) => Some(a),
            TraceEvent::Call { .. } => None,
        })
    }

    /// Whether any descendant frame (strictly below this one) re-enters
    /// `addr` — i.e. calls back into a contract that already has a live
    /// frame above it.
    pub fn reenters(&self, addr: Address) -> bool {
        // (frame, live) where `live` = frame or an ancestor is `addr`.
        let mut stack = vec![(self, self.callee == addr)];
        while let Some((frame, live)) = stack.pop() {
            for child in &frame.children {
                if live && child.callee == addr {
                    return true;
                }
                stack.push((child, live || child.callee == addr));
            }
        }
        false
    }
}

/// The complete trace of one transaction.
#[derive(PartialEq, Debug)]
pub struct CallTrace {
    /// The top-level frame (absent for plain EOA→EOA transfers).
    pub root: Option<TraceFrame>,
}

impl CallTrace {
    /// An empty trace.
    pub fn empty() -> Self {
        CallTrace { root: None }
    }

    /// All frames in pre-order.
    pub fn frames(&self) -> Vec<&TraceFrame> {
        self.root.as_ref().map(|r| r.walk()).unwrap_or_default()
    }

    /// Maximum call depth reached.
    pub fn max_depth(&self) -> usize {
        self.frames().iter().map(|f| f.depth).max().unwrap_or(0)
    }

    /// Whether contract `addr` is re-entered anywhere in the trace.
    pub fn has_reentrancy(&self, addr: Address) -> bool {
        self.root
            .as_ref()
            .map(|r| r.reenters(addr))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(callee: u64, depth: usize, children: Vec<TraceFrame>) -> TraceFrame {
        TraceFrame {
            callee: Address::from_low_u64(callee),
            caller: Address::from_low_u64(0),
            selector: None,
            value: 0,
            depth,
            events: (0..children.len())
                .map(|child| TraceEvent::Call { child })
                .collect(),
            children,
            status: FrameStatus::Success,
        }
    }

    #[test]
    fn walk_is_preorder() {
        let trace = frame(
            1,
            0,
            vec![frame(2, 1, vec![frame(3, 2, vec![])]), frame(4, 1, vec![])],
        );
        let order: Vec<u64> = trace
            .walk()
            .iter()
            .map(|f| u64::from_be_bytes(f.callee.0[12..].try_into().unwrap()))
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reentrancy_detection() {
        // 1 → 2 → 1 is re-entrant on 1.
        let reentrant = frame(1, 0, vec![frame(2, 1, vec![frame(1, 2, vec![])])]);
        assert!(reentrant.reenters(Address::from_low_u64(1)));
        assert!(!reentrant.reenters(Address::from_low_u64(2)));

        // 1 → 2, 1 → 2 again (sequential, not nested) is NOT re-entrant on 2.
        let sequential = frame(1, 0, vec![frame(2, 1, vec![]), frame(2, 1, vec![])]);
        assert!(!sequential.reenters(Address::from_low_u64(2)));
    }

    #[test]
    fn trace_depth() {
        let trace = CallTrace {
            root: Some(frame(1, 0, vec![frame(2, 1, vec![frame(3, 2, vec![])])])),
        };
        assert_eq!(trace.max_depth(), 2);
        assert_eq!(CallTrace::empty().max_depth(), 0);
    }
}
