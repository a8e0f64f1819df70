//! Equivalence of the two Alg. 2 implementations: the pure state machine
//! ([`smacs_core::bitmap::BitmapState`]) and the gas-charged storage-backed
//! version ([`smacs_core::storage_bitmap::StorageBitmap`]) must produce the
//! same verdict for every index sequence.

use proptest::prelude::*;
use smacs_chain::abi::{self, AbiType};
use smacs_chain::{CallContext, Chain, Contract, VmError};
use smacs_core::bitmap::{BitmapState, BitmapVerdict};
use smacs_core::storage_bitmap::StorageBitmap;
use smacs_primitives::{Bytes, U256};
use std::sync::Arc;

/// A contract exposing the storage bitmap directly:
/// `tryUse(uint256) → uint256` (0 = accepted, 1 = stale, 2 = used).
struct BitmapProbe {
    n_bits: u64,
}

impl Contract for BitmapProbe {
    fn name(&self) -> &'static str {
        "BitmapProbe"
    }

    fn constructor(&self, ctx: &mut CallContext<'_, '_>) -> Result<(), VmError> {
        StorageBitmap::init(ctx, self.n_bits)
    }

    fn execute(&self, ctx: &mut CallContext<'_, '_>) -> Result<Bytes, VmError> {
        let sel = ctx.msg_sig().unwrap();
        if sel == abi::selector("tryUse(uint256)") {
            let args = ctx.decode_args(&[AbiType::Uint])?;
            let index = args[0].as_uint().unwrap().low_u128();
            let verdict = StorageBitmap::try_use(ctx, index)?;
            let code = match verdict {
                BitmapVerdict::Accepted => 0u64,
                BitmapVerdict::RejectedStale => 1,
                BitmapVerdict::RejectedUsed => 2,
            };
            Ok(Bytes::from(U256::from_u64(code).to_be_bytes()))
        } else {
            ctx.revert("unknown")
        }
    }
}

fn drive_storage(n_bits: u64, indexes: &[u128]) -> Vec<u64> {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let (probe, _) = chain
        .deploy(&owner, Arc::new(BitmapProbe { n_bits }))
        .unwrap();
    indexes
        .iter()
        .map(|&i| {
            let call = abi::encode_call(
                "tryUse(uint256)",
                &[smacs_chain::AbiValue::Uint(U256::from_u128(i))],
            );
            let receipt = chain.call_contract(&owner, probe.address, 0, call).unwrap();
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
            U256::from_be_slice(&receipt.return_data).unwrap().low_u64()
        })
        .collect()
}

fn drive_pure(n_bits: u64, indexes: &[u128]) -> Vec<u64> {
    let mut bm = BitmapState::new(n_bits as usize);
    indexes
        .iter()
        .map(|&i| match bm.try_use(i) {
            BitmapVerdict::Accepted => 0,
            BitmapVerdict::RejectedStale => 1,
            BitmapVerdict::RejectedUsed => 2,
        })
        .collect()
}

#[test]
fn worked_example_agrees() {
    let indexes = [0u128, 1, 4, 5, 9, 13, 2, 3, 13, 100, 100, 101];
    assert_eq!(drive_pure(8, &indexes), drive_storage(8, &indexes));
}

#[test]
fn word_boundary_indexes_agree() {
    // Indexes straddling 256-bit word boundaries exercise the storage
    // version's word addressing.
    let indexes = [0u128, 255, 256, 257, 511, 512, 300, 255, 256];
    assert_eq!(drive_pure(600, &indexes), drive_storage(600, &indexes));
}

#[test]
fn reset_epoch_agrees() {
    // A jump beyond end + n triggers the storage version's epoch bump and
    // the pure version's clear — both must report identical verdicts after.
    let indexes = [0u128, 1, 5000, 5001, 0, 1, 5000, 4999, 5007];
    assert_eq!(drive_pure(8, &indexes), drive_storage(8, &indexes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_storage_matches_pure(
        n_exp in 0u32..3,
        indexes in prop::collection::vec(0u128..2_000, 1..40),
    ) {
        // Sizes 8, 64, 512 cover sub-word, word, and multi-word bitmaps.
        let n_bits = 8u64 << (3 * n_exp);
        prop_assert_eq!(
            drive_pure(n_bits, &indexes),
            drive_storage(n_bits, &indexes),
            "n_bits = {}", n_bits
        );
    }
}
