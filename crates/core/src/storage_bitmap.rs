//! The on-chain, gas-charged realization of the Alg. 2 bitmap.
//!
//! State lives in the shielded contract's storage (see [`crate::layout`]):
//! one packed metadata word (`start`, `startPtr`, `n`), one epoch word, and
//! `⌈n/256⌉` bit words keyed by `(epoch, word_index)`. A full window reset
//! bumps the epoch instead of clearing `O(n)` words — every word of the new
//! epoch reads as zero, at the cost of leaking the old epoch's slots
//! (acceptable: resets only happen on an `n`-sized index jump, which a
//! correctly sized bitmap never sees in normal operation).
//!
//! Transitions are semantically identical to [`crate::bitmap::BitmapState`];
//! a property test in the crate's test suite drives both with the same
//! index sequences and asserts verdict-for-verdict equality.

use smacs_chain::{CallContext, VmError};

use crate::bitmap::BitmapVerdict;
use crate::costs::BITMAP_OVERHEAD_STEPS;
use crate::layout;

/// Handle for operating the bitmap of the currently executing contract.
pub struct StorageBitmap;

impl StorageBitmap {
    /// Initialize an `n_bits` bitmap in the executing contract's storage.
    /// Called from the shield's constructor: writes the metadata word, the
    /// epoch word, and — mirroring the paper's deployment measurement
    /// (Table IV) — pre-touches every bit word so the deployment
    /// transaction pays the full storage cost up front.
    pub fn init(ctx: &mut CallContext<'_, '_>, n_bits: u64) -> Result<(), VmError> {
        assert!(n_bits > 0, "bitmap must have at least one bit");
        ctx.sstore(
            layout::bitmap_meta_slot(),
            layout::pack_bitmap_meta(0, 0, n_bits),
        )?;
        ctx.sstore_u256(layout::bitmap_epoch_slot(), smacs_primitives::U256::ONE)?;
        // Pre-touch every word in the unused epoch 0, so deployment pays the
        // storage cost the paper's prototype pays while the live epoch 1's
        // words still read zero.
        for w in 0..layout::bitmap_word_count(n_bits) {
            ctx.sstore_u256(layout::bitmap_word_slot(0, w), smacs_primitives::U256::ONE)?;
        }
        Ok(())
    }

    /// Present one-time index `i`: the on-chain Alg. 2 update. Storage
    /// reads/writes and bookkeeping are gas-charged through `ctx`.
    pub fn try_use(ctx: &mut CallContext<'_, '_>, i: u128) -> Result<BitmapVerdict, VmError> {
        ctx.charge_compute(BITMAP_OVERHEAD_STEPS)?;
        let meta = ctx.sload(layout::bitmap_meta_slot())?;
        let (start, start_ptr, n_bits) = layout::unpack_bitmap_meta(meta);
        if n_bits == 0 {
            return ctx.revert("one-time token but no bitmap allocated");
        }
        let n = n_bits as u128;
        let end = start + n - 1;

        if i < start {
            return Ok(BitmapVerdict::RejectedStale);
        }
        if i <= end {
            // In-window: test and set the bit.
            let epoch = ctx.sload_u256(layout::bitmap_epoch_slot())?.low_u64();
            let pos = ((start_ptr as u128 + (i - start)) % n) as u64;
            let (word_idx, bit) = (pos / 256, (pos % 256) as u32);
            let slot = layout::bitmap_word_slot(epoch, word_idx);
            let word = ctx.sload(slot)?;
            if layout::get_bit(word, bit) {
                return Ok(BitmapVerdict::RejectedUsed);
            }
            ctx.sstore(slot, layout::set_bit(word, bit))?;
            return Ok(BitmapVerdict::Accepted);
        }
        if i <= end + n {
            // Minimal slide by d = i − end (see crate::bitmap for why the
            // displacement must be minimal).
            let d = (i - end) as u64;
            let new_start_ptr = (start_ptr + d) % n_bits;
            let new_start = i - n + 1;
            ctx.sstore(
                layout::bitmap_meta_slot(),
                layout::pack_bitmap_meta(new_start, new_start_ptr, n_bits),
            )?;
            let epoch = ctx.sload_u256(layout::bitmap_epoch_slot())?.low_u64();
            let end_pos = ((new_start_ptr as u128 + n - 1) % n) as u64;
            let (word_idx, bit) = (end_pos / 256, (end_pos % 256) as u32);
            let slot = layout::bitmap_word_slot(epoch, word_idx);
            let word = ctx.sload(slot)?;
            ctx.sstore(slot, layout::set_bit(word, bit))?;
            return Ok(BitmapVerdict::Accepted);
        }

        // Full reset: bump the epoch (all words of the new epoch read
        // zero), rebase the window at i, and mark i used.
        let epoch = ctx.sload_u256(layout::bitmap_epoch_slot())?.low_u64();
        ctx.sstore_u256(
            layout::bitmap_epoch_slot(),
            smacs_primitives::U256::from_u64(epoch + 1),
        )?;
        ctx.sstore(
            layout::bitmap_meta_slot(),
            layout::pack_bitmap_meta(i, 0, n_bits),
        )?;
        let slot = layout::bitmap_word_slot(epoch + 1, 0);
        let word = ctx.sload(slot)?;
        ctx.sstore(slot, layout::set_bit(word, 0))?;
        Ok(BitmapVerdict::Accepted)
    }
}
