//! Alg. 2 — the cyclically reused one-time-token bitmap, as a pure state
//! machine.
//!
//! An `n`-bit map tracks the used/unused status of the `n` one-time tokens
//! with consecutive indexes `start … end = start + n − 1`. Position
//! `startPtr` holds index `start`'s bit; positions wrap modulo `n`. When a
//! token with index beyond `end` arrives, `seek()` slides the window
//! forward (losing — conservatively rejecting — any indexes that fall off
//! the back: a *token miss*); an index beyond `end + n` resets the window
//! entirely.
//!
//! This pure version is the reference for property tests and for TS
//! replicas that model contract state; the gas-charged on-chain version
//! ([`crate::storage_bitmap`]) implements the same transitions over
//! storage words.

/// The §IV-C sizing rule: a bitmap that never misses an unexpired token
/// needs `token_lifetime × max_tx_per_second` bits.
///
/// `tx_rate` may be fractional (Table IV sweeps 35 / 3.5 / 0.35 tx/s).
pub fn bitmap_bits_for(token_lifetime_secs: u64, tx_rate_per_sec: f64) -> u64 {
    (token_lifetime_secs as f64 * tx_rate_per_sec).ceil() as u64
}

/// Outcome of presenting a one-time token index to the bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BitmapVerdict {
    /// Index accepted and now marked used.
    Accepted,
    /// Index below the window — either genuinely used or lost to a window
    /// slide (a token miss). Rejected either way.
    RejectedStale,
    /// Index within the window but its bit was already set.
    RejectedUsed,
}

impl BitmapVerdict {
    /// True iff the access was permitted.
    pub fn is_accepted(self) -> bool {
        matches!(self, BitmapVerdict::Accepted)
    }
}

/// The Alg. 2 state: `(S, start, startPtr, end, endPtr)` with
/// `end = start + n − 1` and `endPtr = startPtr + n − 1 mod n` both kept
/// implicit.
///
/// ```
/// use smacs_core::bitmap::{BitmapState, BitmapVerdict};
///
/// let mut bm = BitmapState::new(8);
/// assert!(bm.try_use(3).is_accepted());
/// assert_eq!(bm.try_use(3), BitmapVerdict::RejectedUsed); // one-time
/// assert!(bm.try_use(9).is_accepted());                   // window slides
/// assert_eq!(bm.start(), 2);
/// assert_eq!(bm.try_use(1), BitmapVerdict::RejectedStale); // token miss
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitmapState {
    bits: Vec<bool>,
    start: u128,
    start_ptr: usize,
}

impl BitmapState {
    /// A fresh bitmap of `n` bits covering indexes `0 … n−1`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "bitmap must have at least one bit");
        BitmapState {
            bits: vec![false; n],
            start: 0,
            start_ptr: 0,
        }
    }

    /// Capacity in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false — the bitmap is never empty (n > 0 enforced).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lowest index the window currently covers.
    pub fn start(&self) -> u128 {
        self.start
    }

    /// Highest index the window currently covers.
    pub fn end(&self) -> u128 {
        self.start + self.bits.len() as u128 - 1
    }

    fn position_of(&self, i: u128) -> usize {
        let n = self.bits.len();
        ((self.start_ptr as u128 + (i - self.start)) % n as u128) as usize
    }

    /// Present index `i`: Alg. 2's update. Returns whether the access is
    /// permitted and mutates the window accordingly.
    pub fn try_use(&mut self, i: u128) -> BitmapVerdict {
        let n = self.bits.len() as u128;
        let end = self.end();
        if i < self.start {
            return BitmapVerdict::RejectedStale;
        }
        if i <= end {
            let t = self.position_of(i);
            if self.bits[t] {
                return BitmapVerdict::RejectedUsed;
            }
            self.bits[t] = true;
            return BitmapVerdict::Accepted;
        }
        if i <= end + n {
            // Slide the window forward by exactly d = i − end. The paper's
            // seek() searches further for a zero bit, but any displacement
            // beyond the minimum shifts the bit↔index association and can
            // re-accept a used index; the minimal slide keeps every
            // surviving index bound to its original bit, so stale set bits
            // can only cause conservative misses, never double acceptance.
            // (Both §IV-C worked examples produce the minimal displacement,
            // so they are reproduced exactly — see the tests below.)
            let d = (i - end) as usize;
            let nn = self.bits.len();
            self.start_ptr = (self.start_ptr + d) % nn;
            self.start = i - n + 1;
            let end_ptr = (self.start_ptr + nn - 1) % nn;
            // i > every previous end, hence never accepted before: accept.
            self.bits[end_ptr] = true;
            BitmapVerdict::Accepted
        } else {
            // i > end + n: reset the whole window. (The paper's pseudocode
            // forgets to mark i as used here; we mark it.)
            self.reset_to(i);
            BitmapVerdict::Accepted
        }
    }

    fn reset_to(&mut self, i: u128) {
        for bit in &mut self.bits {
            *bit = false;
        }
        self.start_ptr = 0;
        self.start = i;
        self.bits[0] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn sizing_rule_matches_table_iv() {
        // 1-hour lifetime at the paper's three rates.
        assert_eq!(bitmap_bits_for(3600, 35.0), 126_000);
        assert_eq!(bitmap_bits_for(3600, 3.5), 12_600);
        assert_eq!(bitmap_bits_for(3600, 0.35), 1_260);
        // 15.38 KB, 1.54 KB, 0.154 KB as the paper reports.
        assert!((126_000.0_f64 / 8.0 / 1024.0 - 15.38).abs() < 0.01);
    }

    #[test]
    fn fresh_indexes_accepted_once() {
        let mut bm = BitmapState::new(8);
        for i in 0..8 {
            assert!(bm.try_use(i).is_accepted(), "index {i}");
            assert_eq!(bm.try_use(i), BitmapVerdict::RejectedUsed, "index {i}");
        }
    }

    /// The worked example from §IV-C, followed literally.
    #[test]
    fn paper_worked_example() {
        let mut bm = BitmapState::new(8);
        for i in [0u128, 1, 4, 5] {
            assert!(bm.try_use(i).is_accepted());
        }
        assert_eq!(bm.start(), 0);
        assert_eq!(bm.end(), 7);

        // Token 9 arrives: seek returns 2, window becomes [2, 9].
        assert!(bm.try_use(9).is_accepted());
        assert_eq!(bm.start(), 2);
        assert_eq!(bm.end(), 9);

        // Token 13: seek needs displacement ≥ 4 from startPtr 2 → j = 6,
        // window becomes [6, 13].
        assert!(bm.try_use(13).is_accepted());
        assert_eq!(bm.start(), 6);
        assert_eq!(bm.end(), 13);

        // "the information of the unused tokens with indexes 2 and 3 is
        // lost (access requests originated from these two tokens will be
        // rejected)" — token misses.
        assert_eq!(bm.try_use(2), BitmapVerdict::RejectedStale);
        assert_eq!(bm.try_use(3), BitmapVerdict::RejectedStale);
    }

    #[test]
    fn used_tokens_stay_used_across_slides() {
        let mut bm = BitmapState::new(8);
        assert!(bm.try_use(5).is_accepted());
        assert!(bm.try_use(9).is_accepted()); // slides window
                                              // 5 still within window [2..9] and must stay used.
        assert!(bm.start() <= 5);
        assert_eq!(bm.try_use(5), BitmapVerdict::RejectedUsed);
        assert_eq!(bm.try_use(9), BitmapVerdict::RejectedUsed);
    }

    #[test]
    fn far_future_index_resets() {
        let mut bm = BitmapState::new(8);
        assert!(bm.try_use(3).is_accepted());
        // 100 > end + n = 7 + 8: reset.
        assert!(bm.try_use(100).is_accepted());
        assert_eq!(bm.start(), 100);
        assert_eq!(bm.end(), 107);
        // The reset marks 100 itself used (paper omission, fixed).
        assert_eq!(bm.try_use(100), BitmapVerdict::RejectedUsed);
        // And everything older is stale.
        assert_eq!(bm.try_use(3), BitmapVerdict::RejectedStale);
        // Fresh indexes in the new window work.
        assert!(bm.try_use(101).is_accepted());
    }

    #[test]
    fn slide_over_full_window_is_sound() {
        let mut bm = BitmapState::new(4);
        for i in 0..4 {
            assert!(bm.try_use(i).is_accepted());
        }
        // Window full; index 5 slides the window to [2, 5] and is accepted
        // (it is above every previous end, hence provably fresh).
        assert!(bm.try_use(5).is_accepted());
        assert_eq!(bm.start(), 2);
        assert_eq!(bm.end(), 5);
        assert_eq!(bm.try_use(5), BitmapVerdict::RejectedUsed);
        // Index 4's recycled position carries index 0's stale bit — a
        // conservative miss, not a double acceptance.
        assert_eq!(bm.try_use(4), BitmapVerdict::RejectedUsed);
    }

    /// The exact scenario where the paper's zero-bit seek() would re-accept
    /// a used index: n = 4, indexes 0 and 1 used, then 4 arrives. The
    /// paper's seek would slide startPtr by 2 (first zero bit), remapping
    /// used index 1 onto a zero bit. The minimal slide keeps 1 rejected.
    #[test]
    fn paper_seek_double_spend_case_is_fixed() {
        let mut bm = BitmapState::new(4);
        assert!(bm.try_use(0).is_accepted());
        assert!(bm.try_use(1).is_accepted());
        assert!(bm.try_use(4).is_accepted());
        assert_eq!(bm.try_use(1), BitmapVerdict::RejectedUsed);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_size_panics() {
        BitmapState::new(0);
    }

    proptest! {
        /// THE one-time invariant: no index is ever accepted twice, no
        /// matter the arrival order.
        #[test]
        fn prop_no_index_accepted_twice(
            n in 1usize..64,
            indexes in prop::collection::vec(0u128..200, 1..100),
        ) {
            let mut bm = BitmapState::new(n);
            let mut accepted = HashSet::new();
            for i in indexes {
                if bm.try_use(i).is_accepted() {
                    prop_assert!(
                        accepted.insert(i),
                        "index {i} accepted twice (n={n})"
                    );
                }
            }
        }

        /// Strictly increasing indexes within capacity never miss.
        #[test]
        fn prop_monotone_arrivals_never_miss(
            n in 1usize..64,
            count in 1usize..100,
        ) {
            let mut bm = BitmapState::new(n);
            for i in 0..count as u128 {
                prop_assert!(bm.try_use(i).is_accepted(), "index {i} missed (n={n})");
            }
        }

        /// The window always covers exactly n consecutive indexes.
        #[test]
        fn prop_window_width_invariant(
            n in 1usize..32,
            indexes in prop::collection::vec(0u128..100, 0..50),
        ) {
            let mut bm = BitmapState::new(n);
            for i in indexes {
                bm.try_use(i);
                prop_assert_eq!(bm.end() - bm.start() + 1, n as u128);
            }
        }
    }
}
