//! Known-answer vectors: published secp256k1, Ethereum-address and
//! Keccak-256 values, and the inputs `ecrecover` must refuse. Everything
//! here is checkable offline against any other implementation.

use smacs_crypto::secp256k1::{self as curve, to_be_bytes, U256L};
use smacs_crypto::{keccak256, recover_address, Keypair, Signature};
use smacs_primitives::H256;

const GX: &str = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
const GY: &str = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

fn bytes32(hex_str: &str) -> [u8; 32] {
    hex::decode(hex_str).unwrap().try_into().unwrap()
}

fn small(v: u64) -> U256L {
    [v, 0, 0, 0]
}

fn n_minus(v: u64) -> U256L {
    curve::sub_mod(&curve::N, &small(v), &curve::N)
}

#[test]
fn small_generator_multiples() {
    let vectors = [
        (small(1), GX, GY),
        (
            small(2),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
        ),
        (
            small(3),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        ),
        // (n − 1)·G = −G = (Gx, p − Gy).
        (
            n_minus(1),
            GX,
            "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777",
        ),
    ];
    for (k, x, y) in vectors {
        // Through the fixed-base comb and through the shared ladder.
        for point in [curve::mul_g(&k), curve::Point::generator().mul(&k)] {
            let affine = point.to_affine().unwrap();
            assert_eq!(hex::encode(to_be_bytes(&affine.x)), x, "k {k:x?}");
            assert_eq!(hex::encode(to_be_bytes(&affine.y)), y, "k {k:x?}");
        }
    }
}

#[test]
fn addresses_of_secret_keys_one_two_three() {
    for (secret, address) in [
        (1, "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"),
        (2, "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"),
        (3, "0x6813eb9362372eef6200f3b1dbc3f819671cba69"),
    ] {
        let kp = Keypair::from_secret_bytes(&to_be_bytes(&small(secret))).unwrap();
        assert_eq!(kp.address().to_hex(), address);
    }
}

#[test]
fn keccak256_of_empty_and_abc() {
    assert_eq!(
        hex::encode(keccak256(b"").0),
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    );
    assert_eq!(
        hex::encode(keccak256(b"abc").0),
        "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    );
}

#[test]
fn recover_refuses_out_of_range_and_off_curve_inputs() {
    let kp = Keypair::from_seed(1);
    let digest = keccak256(b"kat");
    let good = kp.sign_digest(&digest);
    assert_eq!(recover_address(&digest, &good), Some(kp.address()));

    let zero = [0u8; 32];
    let n = to_be_bytes(&curve::N);
    for (what, bad) in [
        ("r = 0", Signature { r: zero, ..good }),
        ("s = 0", Signature { s: zero, ..good }),
        ("r = n", Signature { r: n, ..good }),
        ("s = n", Signature { s: n, ..good }),
        (
            "r > n",
            Signature {
                r: [0xFF; 32],
                ..good
            },
        ),
        ("v = 26", Signature { v: 26, ..good }),
        ("v = 29", Signature { v: 29, ..good }),
        ("v = 0", Signature { v: 0, ..good }),
        // 5³ + 7 = 132 is a quadratic non-residue mod p.
        (
            "r not an x-coordinate",
            Signature {
                r: to_be_bytes(&small(5)),
                ..good
            },
        ),
    ] {
        assert_eq!(recover_address(&digest, &bad), None, "{what}");
    }
}

#[test]
fn recover_refuses_an_infinite_result() {
    // R = G (r = Gx, Gy even so v = 27) and z = s give
    // u1·G + u2·R = r⁻¹·(s − z)·G = ∞: equal and opposite operands meet
    // inside the shared ladder.
    for s in [small(1), small(0xDEAD_BEEF), n_minus(1)] {
        let sig = Signature {
            r: bytes32(GX),
            s: to_be_bytes(&s),
            v: 27,
        };
        assert_eq!(recover_address(&H256(to_be_bytes(&s)), &sig), None);
        // One off, and the result is a finite key again.
        let other = H256(to_be_bytes(&small(2)));
        assert!(recover_address(&other, &sig).is_some());
    }
}

#[test]
fn high_s_signatures_still_recover() {
    // (r, n − s, v flipped) is the same signature un-normalized; Ethereum's
    // precompile accepts it, and so does `recover`.
    for seed in 0..8 {
        let kp = Keypair::from_seed(seed);
        let digest = keccak256(&[seed as u8; 7]);
        let low = kp.sign_digest(&digest);
        let s = curve::from_be_bytes(&low.s);
        let high = Signature {
            s: to_be_bytes(&curve::sub_mod(&[0; 4], &s, &curve::N)),
            v: 27 + 28 - low.v,
            ..low
        };
        assert!(high.s > low.s);
        assert_eq!(recover_address(&digest, &high), Some(kp.address()));
    }
}
