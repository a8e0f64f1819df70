//! Fault injection for availability testing (§VII-B).
//!
//! A [`FaultPlan`] is a shared handle the chaos suite arms and the HTTP
//! server consults at its transport boundary. Each fault is a *budget*
//! (arm N occurrences, they are consumed first-come-first-served across
//! connections) except the response delay, which stays in force until
//! cleared. The plan injects nothing unless armed, and an unarmed plan
//! costs one relaxed atomic load per request — cheap enough to leave wired
//! into production paths permanently, which is the point: the faulted code
//! path *is* the production code path.
//!
//! Faults modelled here, and where they bite:
//!
//! | fault                 | boundary   | what the client observes          |
//! |-----------------------|------------|-----------------------------------|
//! | `drop_requests`       | transport  | connection closed, **no** dispatch — the request was never processed |
//! | `fail_requests`       | service    | HTTP 500 + v2 `internal` envelope, **no** dispatch |
//! | `delay_responses`     | transport  | response arrives late (or the client's read timeout fires first) |
//! | `truncate_responses`  | transport  | request **was** dispatched, response cut mid-body, connection closed |
//!
//! Replica-level faults (kill a whole node, partition a counter node away)
//! live on [`crate::cluster::ReplicaSet`], which owns the processes being
//! killed; this module only corrupts the client-facing wire. Faults
//! between counter replicas — dropped, duplicated and reordered votes —
//! are not injected here: the quorum protocol's checker
//! (`replica::check`) explores every interleaving of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sentinel for "no delay armed" (nanoseconds slot).
const NO_DELAY: u64 = 0;

/// A shared, armable set of transport/service faults.
///
/// All methods are safe to call concurrently with live traffic; budgets
/// are consumed atomically so exactly N requests are affected no matter
/// how many server workers race for them.
#[derive(Default)]
pub struct FaultPlan {
    /// Budget: close the connection after reading a request, before
    /// dispatching it.
    drop_requests: AtomicU64,
    /// Budget: answer HTTP 500 with a v2 `internal` envelope instead of
    /// dispatching.
    fail_requests: AtomicU64,
    /// Budget: dispatch the request, then write a truncated response and
    /// close (the minted-but-lost case — at-most-once's worst input).
    truncate_responses: AtomicU64,
    /// Delay applied before every response while non-zero (nanoseconds).
    delay_nanos: AtomicU64,
}

impl FaultPlan {
    /// An inert plan.
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Arm: the next `n` requests get their connection closed without a
    /// response and without being dispatched.
    pub fn drop_requests(&self, n: u64) {
        self.drop_requests.store(n, Ordering::SeqCst);
    }

    /// Arm: the next `n` requests are answered with HTTP 500 (v2
    /// `internal` envelope) without being dispatched — the service-boundary
    /// failure a failover client must treat as "try another replica".
    pub fn fail_requests(&self, n: u64) {
        self.fail_requests.store(n, Ordering::SeqCst);
    }

    /// Arm: the next `n` requests are dispatched normally but their
    /// responses are cut off mid-body and the connection closed. The
    /// request's effects (minted tokens, burned counter indexes) are
    /// real; only the answer is lost.
    pub fn truncate_responses(&self, n: u64) {
        self.truncate_responses.store(n, Ordering::SeqCst);
    }

    /// Every response is delayed by `delay` until [`FaultPlan::clear`] (or
    /// another `delay_responses` call) changes it.
    pub fn delay_responses(&self, delay: Duration) {
        self.delay_nanos.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::SeqCst,
        );
    }

    /// Disarm everything.
    pub fn clear(&self) {
        self.drop_requests.store(0, Ordering::SeqCst);
        self.fail_requests.store(0, Ordering::SeqCst);
        self.truncate_responses.store(0, Ordering::SeqCst);
        self.delay_nanos.store(NO_DELAY, Ordering::SeqCst);
    }

    // ---- server-side consumption (pub(crate): only the transport layer
    // spends budgets) ----

    /// Atomically decrement `budget`; true iff a unit was consumed.
    fn take(budget: &AtomicU64) -> bool {
        budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    pub(crate) fn take_drop(&self) -> bool {
        Self::take(&self.drop_requests)
    }

    pub(crate) fn take_fail(&self) -> bool {
        Self::take(&self.fail_requests)
    }

    pub(crate) fn take_truncate(&self) -> bool {
        Self::take(&self.truncate_responses)
    }

    pub(crate) fn response_delay(&self) -> Option<Duration> {
        match self.delay_nanos.load(Ordering::SeqCst) {
            NO_DELAY => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_consumed_exactly() {
        let plan = FaultPlan::new();
        assert!(!plan.take_drop(), "unarmed plan injects nothing");
        plan.drop_requests(2);
        assert!(plan.take_drop());
        assert!(plan.take_drop());
        assert!(!plan.take_drop(), "budget of 2 spent");
    }

    #[test]
    fn budgets_are_race_free() {
        let plan = FaultPlan::new();
        plan.fail_requests(100);
        let consumed: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = &plan;
                    s.spawn(move || (0..50).filter(|_| plan.take_fail()).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(consumed, 100, "exactly the armed budget is spent");
    }

    #[test]
    fn delay_holds_until_cleared() {
        let plan = FaultPlan::new();
        assert_eq!(plan.response_delay(), None);
        plan.delay_responses(Duration::from_millis(5));
        assert_eq!(plan.response_delay(), Some(Duration::from_millis(5)));
        assert_eq!(plan.response_delay(), Some(Duration::from_millis(5)));
        plan.drop_requests(1);
        plan.fail_requests(1);
        plan.truncate_responses(1);
        plan.clear();
        assert_eq!(plan.response_delay(), None);
        assert!(!plan.take_drop() && !plan.take_fail() && !plan.take_truncate());
    }
}
