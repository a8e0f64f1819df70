//! Epoch-stamped `Arc` snapshots: read-mostly shared state without
//! per-read locking.
//!
//! [`EpochCell<T>`] holds an `Arc<T>` plus a monotonically increasing
//! epoch. Writers swap the whole `Arc` and bump the epoch; readers keep a
//! thread-local `(cell, epoch) → Arc` cache, so the steady-state read path
//! is one atomic load, a cache hit and a clone of the cached `Arc` — no
//! lock. That clone points at the same allocation every reader shares, so
//! each load still increments (and its drop decrements) the one shared
//! reference count: what the cache saves is the mutex. Only a reader that
//! observes a new epoch touches the (briefly held) swap lock to refresh
//! its cached snapshot.
//!
//! This is what lets Token Service issuance check rules concurrently
//! without taking a lock another issuer holds: each worker thread pins the
//! current `Arc<RuleBook>` once per rule-book generation and validates
//! against that immutable snapshot with no lock held. `set_rules` is
//! linearizable (a swap under the writer lock) and never blocks readers
//! that already hold a snapshot — they simply finish their request against
//! the generation they started with, the same semantics the old
//! `RwLock<RuleBook>` gave a request that acquired the read lock first.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Global id source so every cell gets a process-unique cache key.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// Per-thread snapshot cache: `(cell id, epoch, snapshot)`. A handful of
/// entries covers every realistic mix of cells touched by one thread; the
/// cache is correctness-neutral (misses just take the slow path).
const CACHE_SLOTS: usize = 16;

type CacheEntry = (u64, u64, Arc<dyn Any + Send + Sync>);

thread_local! {
    static SNAPSHOT_CACHE: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// A swappable `Arc<T>` with lock-free cached reads.
pub struct EpochCell<T: Send + Sync + 'static> {
    id: u64,
    /// Bumped after every swap; readers use it to validate cached Arcs.
    epoch: AtomicU64,
    /// The authoritative current snapshot. Held only for the duration of a
    /// pointer clone (readers) or a swap (writers) — never while user code
    /// runs against the value.
    current: Mutex<Arc<T>>,
}

impl<T: Send + Sync + 'static> EpochCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(value)),
        }
    }

    /// The current snapshot. Steady state: one atomic load, a thread-local
    /// hit and one increment of the shared reference count, no lock; after
    /// a swap: one brief lock to re-pin.
    pub fn load(&self) -> Arc<T> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let cached = SNAPSHOT_CACHE.with(|cache| {
            cache
                .borrow()
                .iter()
                .find_map(|(id, e, arc)| (*id == self.id && *e == epoch).then(|| arc.clone()))
        });
        if let Some(arc) = cached {
            if let Ok(typed) = arc.downcast::<T>() {
                return typed;
            }
        }
        // Slow path: pin the current snapshot and cache it. The epoch is
        // re-read *before* the pointer clone, so a cached entry can never
        // be older than the epoch it is stored under (a swap bumps the
        // epoch only after publishing the new Arc).
        let epoch = self.epoch.load(Ordering::Acquire);
        let arc = self.current.lock().expect("epoch cell lock").clone();
        let erased: Arc<dyn Any + Send + Sync> = arc.clone();
        SNAPSHOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.retain(|(id, _, _)| *id != self.id);
            if cache.len() >= CACHE_SLOTS {
                cache.remove(0);
            }
            cache.push((self.id, epoch, erased));
        });
        arc
    }

    /// Replace the value. Readers holding the previous snapshot keep it;
    /// new loads see the replacement.
    pub fn store(&self, value: T) {
        let mut current = self.current.lock().expect("epoch cell lock");
        *current = Arc::new(value);
        // Publish the swap before bumping the epoch (the release pairs
        // with the Acquire in `load`).
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Read-copy-update: clone the current value, let `edit` mutate the
    /// copy, and swap it in. Concurrent `update` calls are serialized by
    /// the cell's writer lock, so no edit is ever lost.
    pub fn update<F: FnOnce(&mut T)>(&self, edit: F)
    where
        T: Clone,
    {
        let mut current = self.current.lock().expect("epoch cell lock");
        let mut next = (**current).clone();
        edit(&mut next);
        *current = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The swap count so far (diagnostics / tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

impl<T: Send + Sync + 'static + std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.epoch())
            .field("value", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let cell = EpochCell::new(1u32);
        assert_eq!(*cell.load(), 1);
        cell.store(2);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn snapshots_outlive_swaps() {
        let cell = EpochCell::new(String::from("old"));
        let pinned = cell.load();
        cell.store(String::from("new"));
        assert_eq!(*pinned, "old");
        assert_eq!(*cell.load(), "new");
    }

    #[test]
    fn update_applies_edits_in_order() {
        let cell = EpochCell::new(Vec::<u32>::new());
        cell.update(|v| v.push(1));
        cell.update(|v| v.push(2));
        assert_eq!(*cell.load(), vec![1, 2]);
    }

    #[test]
    fn cached_reads_see_every_swap() {
        let cell = EpochCell::new(0u64);
        for i in 1..100 {
            assert_eq!(*cell.load(), i - 1); // prime the thread-local cache
            cell.store(i);
            assert_eq!(*cell.load(), i, "stale read after swap {i}");
        }
    }

    #[test]
    fn many_cells_do_not_cross_talk() {
        let cells: Vec<EpochCell<usize>> = (0..40).map(EpochCell::new).collect();
        for _ in 0..3 {
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(*cell.load(), i);
            }
        }
        cells[7].store(700);
        assert_eq!(*cells[7].load(), 700);
        assert_eq!(*cells[8].load(), 8);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let cell = Arc::new(EpochCell::new(0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::SeqCst) {
                        let v = *cell.load();
                        assert!(v >= last, "time went backwards: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=1000 {
            cell.store(i);
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 1000);
    }
}
