//! The curve arithmetic fits a small thread stack even in a debug build.
//!
//! This file is its own test binary with one test, so `G`'s comb is
//! still unbuilt when the thread below derives its key: the first
//! derivation, a signature and a recovery all run on a fresh 48 KiB
//! stack. A debug build that force-inlines the field arithmetic gives
//! every inlined copy its own stack slots and overflows here, aborting
//! the whole process.

use smacs_crypto::{keccak256, recover_address, Keypair};

const STACK: usize = 48 * 1024;

#[test]
fn derive_sign_and_recover_fit_a_48kib_stack_from_cold() {
    let (recovered, signer) = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(|| {
            let kp = Keypair::from_seed(0xC01D);
            let digest = keccak256(b"cold stack");
            let signature = kp.sign_digest(&digest);
            (recover_address(&digest, &signature), kp.address())
        })
        .expect("spawn a small-stack thread")
        .join()
        .expect("small-stack thread finished");
    assert_eq!(recovered, Some(signer));
}
