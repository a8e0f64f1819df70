//! A shared fixed-size worker pool with a bounded two-priority job queue
//! and a scoped, deadlock-free fan-out primitive.
//!
//! The Token Service hot path runs entirely through one of these: the HTTP
//! reactor submits ready connections as jobs (so 10k keep-alive clients cost
//! a handful of threads instead of 10k), and `issue_batch` fans signature
//! creation across the same pool. Three design points make that sharing safe:
//!
//! - **Bounded queues.** [`WorkerPool::try_execute`] refuses work when its
//!   lane is full instead of growing without limit — the caller decides
//!   (the HTTP reactor keeps a ready connection in its retry backlog; the
//!   [`WorkerPool::scope_map`] helpers are simply skipped because the
//!   caller does the work itself).
//! - **Two priority lanes.** Workers drain the [`Priority::High`] lane
//!   (request serving, signing fan-out) before touching the
//!   [`Priority::Low`] lane (accepting new connections), so `issue_batch`
//!   latency holds even while a connection storm floods the listener.
//!   Each lane has its own capacity; a saturated low lane can never crowd
//!   out latency-critical work.
//! - **Caller participation.** [`WorkerPool::scope_map`] never *waits* for
//!   a worker: the calling thread drives items itself while queued helper
//!   jobs join in as workers free up. A fan-out submitted from inside a
//!   pool job therefore always completes even when every worker is busy —
//!   the classic pool-within-pool deadlock cannot happen.
//!
//! `scope_map` borrows non-`'static` data (the closure and result slots
//! live on the caller's stack). Helper jobs reach that state through raw
//! pointers guarded by a `Gate`: a helper must `enter` the gate before
//! touching anything, and `scope_map` cancels the gate and waits for active
//! helpers to exit before returning — a helper that dequeues late finds the
//! gate closed and returns without touching freed memory.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue was full; the job was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// Which lane a job enters. Workers always drain `High` before `Low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-critical work: serving a readable connection, signing.
    High,
    /// Deferrable work: draining the accept backlog under a storm.
    Low,
}

struct PoolState {
    high: VecDeque<Job>,
    low: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signals workers that a job (or shutdown) is available.
    work_ready: Condvar,
    high_capacity: usize,
    low_capacity: usize,
}

/// A fixed set of worker threads draining a bounded job queue.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    threads: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool of `threads` workers with both lanes bounded at `capacity`.
    pub fn new(threads: usize, capacity: usize) -> Arc<WorkerPool> {
        WorkerPool::with_lanes(threads, capacity, capacity)
    }

    /// A pool of `threads` workers with independently bounded lanes:
    /// `high_capacity` for latency-critical jobs, `low_capacity` for
    /// deferrable ones (accept draining).
    pub fn with_lanes(
        threads: usize,
        high_capacity: usize,
        low_capacity: usize,
    ) -> Arc<WorkerPool> {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                high: VecDeque::new(),
                low: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            high_capacity: high_capacity.max(1),
            low_capacity: low_capacity.max(1),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("smacs-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            inner,
            threads,
            workers: Mutex::new(workers),
        })
    }

    /// The process-wide shared pool, sized to the machine
    /// (`available_parallelism`). Built lazily on first use; never torn
    /// down. This is the default pool behind `TokenService` batch fan-out.
    pub fn shared() -> &'static Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        SHARED.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(threads, 4096)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs currently waiting across both lanes (diagnostics).
    pub fn queued(&self) -> usize {
        let state = self.inner.state.lock().expect("pool lock");
        state.high.len() + state.low.len()
    }

    /// Jobs currently waiting in the low-priority lane (diagnostics).
    pub fn queued_low(&self) -> usize {
        self.inner.state.lock().expect("pool lock").low.len()
    }

    /// Submit a high-priority job, refusing (rather than blocking or
    /// growing) when the lane is at capacity or the pool is shutting down.
    pub fn try_execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), QueueFull> {
        self.try_execute_prio(Priority::High, job)
    }

    /// Submit a job into an explicit lane; same refusal semantics as
    /// [`WorkerPool::try_execute`], judged against that lane's capacity.
    pub fn try_execute_prio<F: FnOnce() + Send + 'static>(
        &self,
        prio: Priority,
        job: F,
    ) -> Result<(), QueueFull> {
        let mut state = self.inner.state.lock().expect("pool lock");
        if state.shutdown {
            return Err(QueueFull);
        }
        match prio {
            Priority::High => {
                if state.high.len() >= self.inner.high_capacity {
                    return Err(QueueFull);
                }
                state.high.push_back(Box::new(job));
            }
            Priority::Low => {
                if state.low.len() >= self.inner.low_capacity {
                    return Err(QueueFull);
                }
                state.low.push_back(Box::new(job));
            }
        }
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(())
    }

    /// Map `f` over `0..len` with deterministic result ordering, using the
    /// calling thread plus up to `threads − 1` pool helpers.
    ///
    /// The caller always participates, so completion never depends on a
    /// worker being free (no deadlock when called from inside a pool job),
    /// and a pool of 1 degenerates to a plain sequential loop. Helper jobs
    /// are submitted with [`WorkerPool::try_execute`]; a full queue just
    /// means less parallelism. Panics in `f` are re-raised on the caller
    /// after all in-flight helpers have exited.
    pub fn scope_map<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let gate = Arc::new(Gate::new());
        let shared = ScopeShared {
            next: AtomicUsize::new(0),
            len,
            f: &f,
            slots: &slots,
            gate: &gate,
        };

        // Helpers reach the stack-borrowed state via a raw pointer; the
        // gate guarantees they only dereference it while this frame waits.
        let ptr = SendPtr(&shared as *const ScopeShared<'_, R, F> as *const ());
        let helpers = self.threads.saturating_sub(1).min(len.saturating_sub(1));
        for _ in 0..helpers {
            let gate = gate.clone();
            if self
                .try_execute(move || {
                    if gate.enter() {
                        // SAFETY: entering the gate proves the owning
                        // `scope_map` frame is still alive and waiting; it
                        // cannot return until we `exit`.
                        let shared = unsafe { &*(ptr.get() as *const ScopeShared<'_, R, F>) };
                        drive(shared);
                        gate.exit();
                    }
                })
                .is_err()
            {
                break; // queue full — the caller will do the work alone
            }
        }

        // Ensure the gate is cancelled and drained even if `f` panics on
        // the calling thread, so unwinding can't race an active helper.
        struct CancelOnDrop<'g>(&'g Gate);
        impl Drop for CancelOnDrop<'_> {
            fn drop(&mut self) {
                self.0.cancel_and_wait();
            }
        }
        let guard = CancelOnDrop(&gate);
        drive(&shared);
        gate.wait_items(len);
        drop(guard); // cancel + wait for stragglers before touching slots

        if gate.panicked() {
            panic!("WorkerPool::scope_map: a worker panicked");
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("all items completed")
            })
            .collect()
    }

    /// Stop accepting jobs, discard the queue, and join every worker
    /// (in-flight jobs run to completion).
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("pool lock");
            state.shutdown = true;
            state.high.clear();
            state.low.clear();
        }
        self.inner.work_ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool lock");
            loop {
                // High lane first: a queued accept never delays signing.
                if let Some(job) = state.high.pop_front() {
                    break job;
                }
                if let Some(job) = state.low.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).expect("pool lock");
            }
        };
        // A panicking job must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

// ---- scope_map internals ----

struct ScopeShared<'a, R, F> {
    next: AtomicUsize,
    len: usize,
    f: &'a F,
    slots: &'a [Mutex<Option<R>>],
    gate: &'a Arc<Gate>,
}

/// Work-steal items by atomic index until none remain.
fn drive<R, F: Fn(usize) -> R + Sync>(shared: &ScopeShared<'_, R, F>) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::SeqCst);
        if i >= shared.len {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| (shared.f)(i))) {
            Ok(result) => {
                *shared.slots[i].lock().expect("slot lock") = Some(result);
                shared.gate.item_done(false);
            }
            Err(_) => shared.gate.item_done(true),
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*const ());

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Send` wrapper — edition-2021 disjoint capture would otherwise
    /// grab the raw non-`Send` pointer field directly.
    fn get(self) -> *const () {
        self.0
    }
}

// SAFETY: the pointee is only dereferenced under the gate protocol, which
// guarantees the owning stack frame is alive and the data is Sync.
unsafe impl Send for SendPtr {}

/// Coordination for one `scope_map` call: counts completed items, tracks
/// active helpers, and fences late helpers out once the scope is over.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

struct GateState {
    cancelled: bool,
    active_helpers: usize,
    items_done: usize,
    panicked: bool,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new(GateState {
                cancelled: false,
                active_helpers: 0,
                items_done: 0,
                panicked: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// A helper announces itself; `false` means the scope already ended.
    fn enter(&self) -> bool {
        let mut state = self.state.lock().expect("gate lock");
        if state.cancelled {
            return false;
        }
        state.active_helpers += 1;
        true
    }

    fn exit(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.active_helpers -= 1;
        drop(state);
        self.changed.notify_all();
    }

    fn item_done(&self, panicked: bool) {
        let mut state = self.state.lock().expect("gate lock");
        state.items_done += 1;
        state.panicked |= panicked;
        drop(state);
        self.changed.notify_all();
    }

    fn wait_items(&self, len: usize) {
        let mut state = self.state.lock().expect("gate lock");
        while state.items_done < len {
            state = self.changed.wait(state).expect("gate lock");
        }
    }

    fn cancel_and_wait(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.cancelled = true;
        while state.active_helpers > 0 {
            state = self.changed.wait(state).expect("gate lock");
        }
    }

    fn panicked(&self) -> bool {
        self.state.lock().expect("gate lock").panicked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn executes_jobs() {
        let pool = WorkerPool::new(2, 16);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let counter = counter.clone();
            pool.try_execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 8 {
            assert!(std::time::Instant::now() < deadline, "jobs never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_refuses_overflow() {
        let pool = WorkerPool::new(1, 1);
        // Occupy the only worker, then fill the 1-slot queue.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let r = release.clone();
        pool.try_execute(move || {
            let (lock, cv) = &*r;
            let mut go = lock.lock().unwrap();
            while !*go {
                go = cv.wait(go).unwrap();
            }
        })
        .unwrap();
        // Wait until the worker picked the blocker up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queued() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.try_execute(|| {}).unwrap(); // fills the queue
        assert_eq!(pool.try_execute(|| {}), Err(QueueFull));
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn high_lane_jobs_run_before_queued_low_lane_jobs() {
        let pool = WorkerPool::with_lanes(1, 16, 16);
        // Wedge the only worker so subsequent submissions stay queued.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let r = release.clone();
        pool.try_execute(move || {
            let (lock, cv) = &*r;
            let mut go = lock.lock().unwrap();
            while !*go {
                go = cv.wait(go).unwrap();
            }
        })
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queued() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue low first, then high; the worker must run high first.
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = order.clone();
            pool.try_execute_prio(Priority::Low, move || {
                order.lock().unwrap().push(format!("low{i}"));
            })
            .unwrap();
        }
        for i in 0..3 {
            let order = order.clone();
            pool.try_execute_prio(Priority::High, move || {
                order.lock().unwrap().push(format!("high{i}"));
            })
            .unwrap();
        }
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while order.lock().unwrap().len() < 6 {
            assert!(std::time::Instant::now() < deadline, "jobs never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = order.lock().unwrap().clone();
        assert_eq!(got, ["high0", "high1", "high2", "low0", "low1", "low2"]);
        pool.shutdown();
    }

    #[test]
    fn lanes_have_independent_capacities() {
        let pool = WorkerPool::with_lanes(1, 1, 2);
        // Wedge the worker.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let r = release.clone();
        pool.try_execute(move || {
            let (lock, cv) = &*r;
            let mut go = lock.lock().unwrap();
            while !*go {
                go = cv.wait(go).unwrap();
            }
        })
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queued() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        // High lane holds 1; a full high lane leaves the low lane open.
        pool.try_execute(|| {}).unwrap();
        assert_eq!(pool.try_execute(|| {}), Err(QueueFull));
        pool.try_execute_prio(Priority::Low, || {}).unwrap();
        pool.try_execute_prio(Priority::Low, || {}).unwrap();
        assert_eq!(pool.try_execute_prio(Priority::Low, || {}), Err(QueueFull));
        assert_eq!(pool.queued_low(), 2);
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn scope_map_orders_results() {
        let pool = WorkerPool::new(4, 64);
        let out = pool.scope_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn scope_map_on_single_thread_pool_is_sequential() {
        let pool = WorkerPool::new(1, 4);
        let out = pool.scope_map(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn scope_map_from_inside_a_pool_job_cannot_deadlock() {
        // One worker, fully occupied by the outer job: the inner fan-out
        // must still complete via caller participation.
        let pool = WorkerPool::new(1, 4);
        let pool2 = pool.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.try_execute(move || {
            let sum: usize = pool2.scope_map(32, |i| i).iter().sum();
            tx.send(sum).unwrap();
        })
        .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 496);
        pool.shutdown();
    }

    #[test]
    fn scope_map_borrows_caller_state() {
        let pool = WorkerPool::new(4, 64);
        let data: Vec<u64> = (0..1000).collect();
        let doubled = pool.scope_map(data.len(), |i| data[i] * 2);
        assert_eq!(doubled[999], 1998);
        pool.shutdown();
    }

    #[test]
    fn scope_map_propagates_panics() {
        let pool = WorkerPool::new(2, 16);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives and keeps working.
        assert_eq!(pool.scope_map(4, |i| i), vec![0, 1, 2, 3]);
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_and_refuses_new_work() {
        let pool = WorkerPool::new(2, 16);
        pool.shutdown();
        assert_eq!(pool.try_execute(|| {}), Err(QueueFull));
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = Arc::as_ptr(WorkerPool::shared());
        let b = Arc::as_ptr(WorkerPool::shared());
        assert_eq!(a, b);
        assert!(WorkerPool::shared().threads() >= 1);
    }
}
