//! The curve arithmetic fits a small thread stack even in a debug build.
//!
//! This file is its own test binary with one test, so `G`'s comb is
//! still unbuilt when the thread below derives its key: the first
//! derivation, a signature and a recovery all run on a fresh 48 KiB
//! stack. Then the same thread learns the signer, which builds its GLV
//! comb there, and checks a second signature against that comb. A debug
//! build that force-inlines the field arithmetic gives every inlined copy
//! its own stack slots and overflows here, aborting the whole process.

use smacs_crypto::{keccak256, recover_address, recover_expecting, Keypair};

const STACK: usize = 48 * 1024;

#[test]
fn derive_sign_and_recover_fit_a_48kib_stack_from_cold() {
    let (answers, signer) = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(|| {
            let kp = Keypair::from_seed(0xC01D);
            let digest = keccak256(b"cold stack");
            let signature = kp.sign_digest(&digest);
            let recovered = recover_address(&digest, &signature);
            // The first expecting call recovers in full and learns the key;
            // the second is checked against the learned comb.
            let learned = recover_expecting(&digest, &signature, kp.address());
            let again = keccak256(b"known signer");
            let known = recover_expecting(&again, &kp.sign_digest(&again), kp.address());
            ([recovered, learned, known], kp.address())
        })
        .expect("spawn a small-stack thread")
        .join()
        .expect("small-stack thread finished");
    assert_eq!(answers, [Some(signer); 3]);
}
