//! secp256k1 group and ECDSA arithmetic, implemented from scratch.
//!
//! The build environment has no external crates, so this module provides the
//! curve math `k256` used to supply: field/scalar arithmetic over the real
//! secp256k1 parameters, Jacobian point arithmetic, public-key derivation,
//! recoverable signing, and public-key recovery. It is written for clarity
//! and determinism, not constant-time operation — the workspace uses it to
//! *simulate* Ethereum's signature scheme, never to protect production key
//! material.
//!
//! Numbers are 256-bit little-endian limb arrays (`[u64; 4]`), kept fully
//! reduced. Both moduli have the Solinas shape `2^256 − c`, so a wide
//! product reduces by folding the high half with `hi·2^256 ≡ hi·c (mod m)`:
//!
//! - The field `p` has a one-limb `c`, and a kernel of its own: `fmul` is
//!   the 16-product `mul_wide`, `fsqr` the 10-product `sqr_wide`, each
//!   followed by `reduce_p`, whose fold is 4 products and whose second fold
//!   is one. `fadd` / `fsub` are branch-free.
//! - The scalar field `n` has a 129-bit `c` and keeps the generic
//!   `mul_mod` / `reduce_wide`; they run a handful of times per signature
//!   (`u1`, `u2`, `s`, the GLV split).
//! - Both share one inverse, `modinv`: the safegcd divsteps of Bernstein &
//!   Yang ("Fast constant-time gcd computation and modular inversion",
//!   TCHES 2019) over signed 62-bit limbs, in libsecp256k1's variable-time
//!   form; like everything here, its running time depends on its input.
//!   Every caller reaches it through one batched form, `batch_inv`
//!   (Montgomery's trick: one `modinv` and 3 products per element). The
//!   only exponentiation left is `fsqrt`'s fixed addition chain.
//!
//! With `M` = `fmul` and `S` = `fsqr`, `double` is 3M + 4S, `add_affine`
//! 8M + 3S and `add` 12M + 4S. Every entry point is a batch (a lone
//! `sign` or `recover` is its one-item case), and a batch pays **one**
//! field and **one** scalar inversion in all (per nonce round, for
//! signing):
//!
//! - `sign_batch` (`sign`): per signature one `mul_g` (≤ 32 mixed
//!   additions from `G`'s 8-bit comb, no doublings); the batch normalizes
//!   every `k·G` and inverts every `k` together.
//! - `recover_batch` (`recover`): per item one `fsqrt` (254S + 13M), one
//!   `Point::mul` for `u2·R` (~128 doublings and ~50 general additions,
//!   see there) and one walk of `G`'s comb for `u1·G` (≤ 32 mixed
//!   additions); the batch inverts every `r` and normalizes every result
//!   together.
//! - `verify_known_batch`: whether each signature recovers to a key whose
//!   `Comb` is at hand. Per item ≤ 32 + 64 mixed additions over `G`'s comb
//!   and the key's; the batch inverts every `s` and normalizes every
//!   result together.
//!
//! Range checks, `lift_x` and infinity checks run per item before
//! anything enters a shared product, so an invalid item never poisons
//! its batch and gets exactly the lone call's answer.
//!
//! Every scalar multiplication is one of two: a comb walk for a fixed
//! base, or `Point::mul`'s GLV ladder for a variable one. `G` and every
//! known key share one comb type (`Comb`) and one walk, at two widths:
//! `G`'s 8-bit comb (≈ 510 KB, built once per process on the first
//! `mul_g`, ≈ 5 ms) and the 4-bit `KeyComb` of a learned key (≈ 61 KB,
//! ≈ 0.5 ms). Learned keys stay at 4 bits because an 8-bit comb per key
//! would cost 8 MB at the known-signer cap of 16.

/// 256-bit value as little-endian 64-bit limbs.
pub type U256L = [u64; 4];

/// The field prime `p = 2^256 − 2^32 − 977`.
pub const P: U256L = [
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
];
const C_P: U256L = [0x1_0000_03D1, 0, 0, 0];

/// The group order `n`.
pub const N: U256L = [
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
];
pub(crate) const C_N: U256L = [0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0];

/// Generator x-coordinate.
const GX: U256L = [
    0x59F2_815B_16F8_1798,
    0x029B_FCDB_2DCE_28D9,
    0x55A0_6295_CE87_0B07,
    0x79BE_667E_F9DC_BBAC,
];
/// Generator y-coordinate.
const GY: U256L = [
    0x9C47_D08F_FB10_D4B8,
    0xFD17_B448_A685_5419,
    0x5DA4_FBFC_0E11_08A8,
    0x483A_DA77_26A3_C465,
];

pub(crate) const ZERO: U256L = [0, 0, 0, 0];
const ONE: U256L = [1, 0, 0, 0];
const SEVEN: U256L = [7, 0, 0, 0];

// ---- bignum helpers ----

/// Compare little-endian limb arrays.
pub fn cmp(a: &U256L, b: &U256L) -> std::cmp::Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// True iff all limbs are zero.
pub fn is_zero(a: &U256L) -> bool {
    *a == ZERO
}

fn sub_raw(a: &U256L, b: &U256L) -> (U256L, bool) {
    let mut out = ZERO;
    let mut borrow = false;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        out[i] = d;
        borrow = b1 || b2;
    }
    (out, borrow)
}

fn add_raw(a: &U256L, b: &U256L) -> (U256L, bool) {
    let mut out = ZERO;
    let mut carry = false;
    for i in 0..4 {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        out[i] = s;
        carry = c1 || c2;
    }
    (out, carry)
}

/// `a + b (mod m)`; inputs must already be `< m`.
pub fn add_mod(a: &U256L, b: &U256L, m: &U256L) -> U256L {
    let (sum, carry) = add_raw(a, b);
    if carry || cmp(&sum, m) != std::cmp::Ordering::Less {
        sub_raw(&sum, m).0
    } else {
        sum
    }
}

/// `a − b (mod m)`; inputs must already be `< m`.
pub fn sub_mod(a: &U256L, b: &U256L, m: &U256L) -> U256L {
    let (diff, borrow) = sub_raw(a, b);
    if borrow {
        add_raw(&diff, m).0
    } else {
        diff
    }
}

/// `a + b·c + carry` as `(low, high)`; cannot overflow 128 bits.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 * c as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` as `(low, high)`.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// The 512-bit product, schoolbook by rows: row `i`'s carry lands in the
/// still-untouched limb `i + 4`, so no carry tail is needed.
#[inline(always)]
fn mul_wide(a: &U256L, b: &U256L) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0;
        for j in 0..4 {
            (out[i + j], carry) = mac(out[i + j], a[i], b[j], carry);
        }
        out[i + 4] = carry;
    }
    out
}

/// The 512-bit square in 10 products: the 6 cross products once, doubled,
/// plus the 4 diagonal squares.
#[inline(always)]
fn sqr_wide(a: &U256L) -> [u64; 8] {
    let (w1, c) = mac(0, a[0], a[1], 0);
    let (w2, c) = mac(0, a[0], a[2], c);
    let (w3, w4) = mac(0, a[0], a[3], c);
    let (w3, c) = mac(w3, a[1], a[2], 0);
    let (w4, w5) = mac(w4, a[1], a[3], c);
    let (w5, w6) = mac(w5, a[2], a[3], 0);
    let w7 = w6 >> 63;
    let w6 = (w6 << 1) | (w5 >> 63);
    let w5 = (w5 << 1) | (w4 >> 63);
    let w4 = (w4 << 1) | (w3 >> 63);
    let w3 = (w3 << 1) | (w2 >> 63);
    let w2 = (w2 << 1) | (w1 >> 63);
    let w1 = w1 << 1;
    let (w0, c) = mac(0, a[0], a[0], 0);
    let (w1, c) = adc(w1, c, 0);
    let (w2, hi) = mac(w2, a[1], a[1], c);
    let (w3, c) = adc(w3, hi, 0);
    let (w4, hi) = mac(w4, a[2], a[2], c);
    let (w5, c) = adc(w5, hi, 0);
    let (w6, hi) = mac(w6, a[3], a[3], c);
    let (w7, _) = adc(w7, hi, 0);
    [w0, w1, w2, w3, w4, w5, w6, w7]
}

fn reduce_wide(mut w: [u64; 8], m: &U256L, c: &U256L) -> U256L {
    // Fold hi·2^256 ≡ hi·c until the high half is clear. With c < 2^130
    // each fold shrinks the value by ≥ 126 bits, so this terminates in ≤ 3
    // iterations.
    while w[4] != 0 || w[5] != 0 || w[6] != 0 || w[7] != 0 {
        let hi = [w[4], w[5], w[6], w[7]];
        let lo = [w[0], w[1], w[2], w[3]];
        let mut folded = mul_wide(&hi, c);
        let mut carry = false;
        for i in 0..4 {
            let (s, c1) = folded[i].overflowing_add(lo[i]);
            let (s, c2) = s.overflowing_add(carry as u64);
            folded[i] = s;
            carry = c1 || c2;
        }
        let mut k = 4;
        while carry {
            let (s, c1) = folded[k].overflowing_add(1);
            folded[k] = s;
            carry = c1;
            k += 1;
        }
        w = folded;
    }
    let mut r = [w[0], w[1], w[2], w[3]];
    while cmp(&r, m) != std::cmp::Ordering::Less {
        r = sub_raw(&r, m).0;
    }
    r
}

/// `a · b (mod m)` for `m = 2^256 − c`.
pub fn mul_mod(a: &U256L, b: &U256L, m: &U256L, c: &U256L) -> U256L {
    reduce_wide(mul_wide(a, b), m, c)
}

/// The low 256 bits of `x >> t`, `1 ≤ t ≤ 63`.
fn shr(x: &[u64; 5], t: u32) -> U256L {
    std::array::from_fn(|i| x[i] >> t | x[i + 1] << (64 - t))
}

// ---- modular inverse ----
//
// The safegcd inverse of Bernstein & Yang ("Fast constant-time gcd
// computation and modular inversion", TCHES 2019), in the variable-time
// form of libsecp256k1's `modinv64_var`. `f = m` and `g = a` run through
// divsteps until `g = 0`, which leaves `f = ±gcd(a, m) = ±1`; `d` and `e`
// track `f` and `g` as multiples of `a (mod m)`, so `d = ±a⁻¹`. The steps
// go 62 at a time on the low limbs only, as one 2×2 matrix scaled by 2^62,
// which is then applied to the full `(f, g)` and, with a multiple of `m`
// that keeps the division by 2^62 exact, to `(d, e)`.

/// `Σ v[i]·2^(62·i)`: limbs 0–3 in `[0, 2^62)`, the top limb signed.
type Signed62 = [i64; 5];

const M62: u64 = u64::MAX >> 2;

/// An odd modulus in the form the inverse needs.
struct Modulus {
    s62: Signed62,
    /// `m⁻¹ mod 2^62`.
    inv62: u64,
}

const P_MOD: Modulus = Modulus {
    s62: to_signed62(&P),
    inv62: 0x27C7_F6E2_2DDA_CACF,
};
const N_MOD: Modulus = Modulus {
    s62: to_signed62(&N),
    inv62: 0x34F2_0099_AA77_4EC1,
};

const fn to_signed62(a: &U256L) -> Signed62 {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        ((a[2] >> 58 | a[3] << 6) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// The low 256 bits of a value whose limbs are all in `[0, 2^62)`.
fn from_signed62(v: &Signed62) -> U256L {
    let v = v.map(|x| x as u64);
    [
        v[0] | v[1] << 62,
        v[1] >> 2 | v[2] << 60,
        v[2] >> 4 | v[3] << 58,
        v[3] >> 6 | v[4] << 56,
    ]
}

/// A product of 62 divsteps, scaled by 2^62: `[[u, v], [q, r]]` maps
/// `(f, g)` to `2^62·(f', g')`.
type Transition = [[i64; 2]; 2];

/// 62 divsteps from `eta = −δ` on the low 64 bits of `f` (odd) and `g`,
/// which decide them all: the new `eta` and the matrix. A run of zero
/// bits of `g` is one shift, and each odd step cancels up to 6 low bits
/// of `g` (4 when `eta ≥ 0`).
fn divsteps_62(mut eta: i64, mut f: u64, mut g: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let mut i = 62;
    loop {
        // The sentinel bits stop the count at the `i` steps left.
        let zeros = (g | u64::MAX << i).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros as i64;
        i -= zeros;
        if i == 0 {
            break;
        }
        // No more than `eta + 1` bits: past that the swap comes back.
        let limit = (eta.unsigned_abs() + 1).min(i as u64) as u32;
        let w = if eta < 0 {
            // δ > 0 and g odd: (f, g) ← (g, −f).
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // −g·f⁻¹ mod 2^6, with f·(f² − 2) ≡ −f⁻¹ (mod 2^6).
            let mask = (u64::MAX >> (64 - limit)) & 63;
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
        } else {
            // −g·f⁻¹ mod 2^4, with f + ((f + 1) & 4)·2 ≡ f⁻¹ (mod 2^4).
            let mask = (u64::MAX >> (64 - limit)) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    (eta, [[u as i64, v as i64], [q as i64, r as i64]])
}

/// `(a, b) ← (t·(a, b) + k·m) / 2^62` over the low `len` limbs, where the
/// caller has made the low 62 bits of the sum zero. Inlined so that
/// `(f, g)`'s `k = 0` costs nothing.
#[inline(always)]
fn update(
    t: &Transition,
    k: [i64; 2],
    m: &Signed62,
    len: usize,
    a: &mut Signed62,
    b: &mut Signed62,
) {
    let [[u, v], [q, r]] = t.map(|row| row.map(i128::from));
    let [ka, kb] = k.map(i128::from);
    let (mut ca, mut cb) = (0i128, 0i128);
    for i in 0..len {
        ca += u * a[i] as i128 + v * b[i] as i128 + ka * m[i] as i128;
        cb += q * a[i] as i128 + r * b[i] as i128 + kb * m[i] as i128;
        debug_assert!(i > 0 || (ca | cb) as u64 & M62 == 0);
        if i > 0 {
            a[i - 1] = (ca as u64 & M62) as i64;
            b[i - 1] = (cb as u64 & M62) as i64;
        }
        (ca, cb) = (ca >> 62, cb >> 62);
    }
    (a[len - 1], b[len - 1]) = (ca as i64, cb as i64);
}

/// Whether `j·d + k·m > 0`, for the range check below.
fn is_positive(j: i128, d: &Signed62, k: i128, m: &Signed62) -> bool {
    let (mut carry, mut low) = (0i128, 0i128);
    for i in 0..5 {
        let t = carry + j * d[i] as i128 + k * m[i] as i128;
        low |= t & M62 as i128;
        carry = t >> 62;
    }
    carry > 0 || carry == 0 && low != 0
}

/// `a⁻¹ mod m` for `a < m` and an odd prime `m`; zero maps to zero.
/// Variable-time, like the rest of this module: the number of divsteps
/// and the length of `(f, g)` depend on `a`.
fn modinv(a: &U256L, m: &Modulus) -> U256L {
    #[cfg(test)]
    tests::count_inversion(m);
    let (mut d, mut e): (Signed62, Signed62) = ([0; 5], [1, 0, 0, 0, 0]);
    let (mut f, mut g) = (m.s62, to_signed62(a));
    let (mut eta, mut len) = (-1, 5);
    loop {
        let t;
        (eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        // The multiple of m for d' (and e'): t's column for each negative
        // input, which keeps both in (−2m, m), less what clears 62 bits.
        let (sd, se) = (d[4] >> 63, e[4] >> 63);
        let k = t.map(|[x, y]| {
            let k = (x & sd) + (y & se);
            let low = x.wrapping_mul(d[0]).wrapping_add(y.wrapping_mul(e[0]));
            k - (m.inv62.wrapping_mul(low as u64).wrapping_add(k as u64) & M62) as i64
        });
        update(&t, k, &m.s62, 5, &mut d, &mut e);
        update(&t, [0, 0], &m.s62, len, &mut f, &mut g);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // Drop the top limb once it only carries the sign of both.
        let (fl, gl) = (f[len - 1], g[len - 1]);
        if len > 1 && fl ^ (fl >> 63) == 0 && gl ^ (gl >> 63) == 0 {
            f[len - 2] |= fl << 62;
            g[len - 2] |= gl << 62;
            len -= 1;
        }
    }
    debug_assert!(
        is_positive(1, &d, 2, &m.s62) && is_positive(-1, &d, 1, &m.s62),
        "d outside (−2m, m)"
    );
    // f = ±1 and d = f·a⁻¹: add m if d < 0, negate if f < 0, then add m
    // if still negative, carrying after each pass.
    for negate in [f[len - 1] >> 63, 0] {
        let add = d[4] >> 63;
        for (limb, mi) in d.iter_mut().zip(m.s62) {
            *limb = ((*limb + (mi & add)) ^ negate) - negate;
        }
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    }
    from_signed62(&d)
}

/// Parse 32 big-endian bytes.
pub fn from_be_bytes(bytes: &[u8; 32]) -> U256L {
    let mut out = ZERO;
    for i in 0..4 {
        out[3 - i] = u64::from_be_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    }
    out
}

/// Render as 32 big-endian bytes.
pub fn to_be_bytes(a: &U256L) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&a[3 - i].to_be_bytes());
    }
    out
}

/// Reduce an arbitrary 256-bit value modulo `m` (single conditional
/// subtraction suffices because `m > 2^255`).
fn reduce_once(v: U256L, m: &U256L) -> U256L {
    if cmp(&v, m) != std::cmp::Ordering::Less {
        sub_raw(&v, m).0
    } else {
        v
    }
}

/// `reduce_once` of 32 big-endian bytes.
pub fn reduce_bytes(bytes: &[u8; 32], m: &U256L) -> U256L {
    reduce_once(from_be_bytes(bytes), m)
}

// ---- field shorthand ----

/// Reduce a 512-bit value mod `p = 2^256 − c` with the one-limb
/// `c = 0x1000003D1`: fold `hi·c` into the low half (4 products), fold the
/// ≤ 34-bit overflow limb the same way, then subtract `p` at most once.
#[inline(always)]
fn reduce_p(w: [u64; 8]) -> U256L {
    const C: u64 = C_P[0];
    let (r0, c) = mac(w[0], w[4], C, 0);
    let (r1, c) = mac(w[1], w[5], C, c);
    let (r2, c) = mac(w[2], w[6], C, c);
    let (r3, c) = mac(w[3], w[7], C, c);
    let (r0, c) = mac(r0, c, C, 0);
    let (r1, c) = adc(r1, c, 0);
    let (r2, c) = adc(r2, c, 0);
    let (r3, c) = adc(r3, c, 0);
    // A carry out of 2^256 leaves a value below 2^68: one more `+ c`
    // cannot carry again and lands below `p`.
    let (r0, c) = adc(r0, c * C, 0);
    let (r1, c) = adc(r1, c, 0);
    let (r2, c) = adc(r2, c, 0);
    let r3 = r3 + c;
    let r = [r0, r1, r2, r3];
    if ge_p(&r) {
        // The top three limbs are all ones, so r − p is one limb.
        [r0 - P[0], 0, 0, 0]
    } else {
        r
    }
}

/// `r ≥ p`: only when the top three limbs are all ones.
#[inline(always)]
fn ge_p(r: &U256L) -> bool {
    r[3] & r[2] & r[1] == u64::MAX && r[0] >= P[0]
}

// Forced inline: left to itself the compiler keeps `fmul` / `fsqr` as
// calls that pass operands through memory, which measured 31 ns against
// 19.5 ns per chained product.
#[inline(always)]
fn fmul(a: &U256L, b: &U256L) -> U256L {
    reduce_p(mul_wide(a, b))
}

#[inline(always)]
fn fsqr(a: &U256L) -> U256L {
    reduce_p(sqr_wide(a))
}

/// `a + b (mod p)` for reduced inputs, branch-free: a sum that carried out
/// or reached `p` is `≥ p`, and `− p` is `+ c (mod 2^256)`.
fn fadd(a: &U256L, b: &U256L) -> U256L {
    let (sum, carry) = add_raw(a, b);
    let over = carry | ge_p(&sum);
    add_raw(&sum, &[over as u64 * C_P[0], 0, 0, 0]).0
}

/// `a − b (mod p)` for reduced inputs, branch-free: a difference that
/// borrowed gets `+ p`, which is `− c (mod 2^256)`.
fn fsub(a: &U256L, b: &U256L) -> U256L {
    let (diff, borrow) = sub_raw(a, b);
    sub_raw(&diff, &[borrow as u64 * C_P[0], 0, 0, 0]).0
}

fn fneg(a: &U256L) -> U256L {
    fsub(&ZERO, a)
}

/// Square `a` `n` times.
fn fsqr_n(a: &U256L, n: u32) -> U256L {
    let mut r = *a;
    for _ in 0..n {
        r = fsqr(&r);
    }
    r
}

/// Square root mod p (p ≡ 3 mod 4): `a^((p+1)/4)` by a fixed addition
/// chain of 254 squarings and 13 products; verify before use. The
/// exponent is 223 one bits, a zero, 22 ones, then `00001100`; `x_k`
/// below is `a^(2^k − 1)`.
fn fsqrt(a: &U256L) -> U256L {
    let x2 = fmul(&fsqr(a), a);
    let x3 = fmul(&fsqr(&x2), a);
    let x6 = fmul(&fsqr_n(&x3, 3), &x3);
    let x9 = fmul(&fsqr_n(&x6, 3), &x3);
    let x11 = fmul(&fsqr_n(&x9, 2), &x2);
    let x22 = fmul(&fsqr_n(&x11, 11), &x11);
    let x44 = fmul(&fsqr_n(&x22, 22), &x22);
    let x88 = fmul(&fsqr_n(&x44, 44), &x44);
    let x176 = fmul(&fsqr_n(&x88, 88), &x88);
    let x220 = fmul(&fsqr_n(&x176, 44), &x44);
    let x223 = fmul(&fsqr_n(&x220, 3), &x3);
    let t = fmul(&fsqr_n(&x223, 23), &x22);
    let t = fmul(&fsqr_n(&t, 6), &x2);
    fsqr_n(&t, 2)
}

// ---- points ----

/// A curve point in Jacobian coordinates; `z == 0` encodes infinity.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: U256L,
    y: U256L,
    z: U256L,
}

/// An affine point (never infinity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Affine {
    /// x-coordinate.
    pub x: U256L,
    /// y-coordinate.
    pub y: U256L,
}

impl Point {
    /// The point at infinity.
    pub const INFINITY: Point = Point {
        x: ONE,
        y: ONE,
        z: ZERO,
    };

    /// The group generator.
    pub fn generator() -> Point {
        Point {
            x: GX,
            y: GY,
            z: ONE,
        }
    }

    /// Lift an affine point.
    pub fn from_affine(a: &Affine) -> Point {
        Point {
            x: a.x,
            y: a.y,
            z: ONE,
        }
    }

    /// True iff this is the point at infinity.
    pub fn is_infinity(&self) -> bool {
        is_zero(&self.z)
    }

    /// Normalize to affine coordinates (`None` for infinity): the one-item
    /// case of `to_affine_all`.
    pub fn to_affine(&self) -> Option<Affine> {
        to_affine_all(&[*self]).pop().flatten()
    }

    /// Point doubling (a = 0 curve).
    pub fn double(&self) -> Point {
        if self.is_infinity() || is_zero(&self.y) {
            return Point::INFINITY;
        }
        let y2 = fsqr(&self.y);
        let s = {
            // 4·X·Y²
            let t = fmul(&self.x, &y2);
            let t = fadd(&t, &t);
            fadd(&t, &t)
        };
        let m = {
            // 3·X²
            let x2 = fsqr(&self.x);
            fadd(&fadd(&x2, &x2), &x2)
        };
        let x3 = fsub(&fsqr(&m), &fadd(&s, &s));
        let y3 = {
            // M·(S − X3) − 8·Y⁴
            let y4 = fsqr(&y2);
            let y4_8 = {
                let t = fadd(&y4, &y4);
                let t = fadd(&t, &t);
                fadd(&t, &t)
            };
            fsub(&fmul(&m, &fsub(&s, &x3)), &y4_8)
        };
        let z3 = {
            let t = fmul(&self.y, &self.z);
            fadd(&t, &t)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    pub fn add(&self, other: &Point) -> Point {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = fsqr(&self.z);
        let z2z2 = fsqr(&other.z);
        let u1 = fmul(&self.x, &z2z2);
        let u2 = fmul(&other.x, &z1z1);
        let s1 = fmul(&self.y, &fmul(&z2z2, &other.z));
        let s2 = fmul(&other.y, &fmul(&z1z1, &self.z));
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Point::INFINITY
            };
        }
        let h = fsub(&u2, &u1);
        let r = fsub(&s2, &s1);
        let h2 = fsqr(&h);
        let h3 = fmul(&h2, &h);
        let u1h2 = fmul(&u1, &h2);
        let x3 = fsub(&fsub(&fsqr(&r), &h3), &fadd(&u1h2, &u1h2));
        let y3 = fsub(&fmul(&r, &fsub(&u1h2, &x3)), &fmul(&s1, &h3));
        let z3 = fmul(&h, &fmul(&self.z, &other.z));
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// `scalar·self` for a base point of order `n` (every finite point on
    /// the curve), over the GLV split: `scalar = k1 + k2·λ` gives two
    /// ~128-bit width-5 wNAF streams over `self` and `λ·self = (β·x, y)`,
    /// added into a **single** chain of ~128 doublings.
    ///
    /// Each stream reads `self`'s eight odd multiples (~21 general
    /// additions per stream, plus 7 and a doubling to build the table,
    /// and 8 products for `λ` times it). The table stays Jacobian:
    /// normalizing it would cost an inversion to save ~215 products. The
    /// equal-, opposite- and infinite-operand branches live in
    /// [`Point::add`], so `self = ±G`, `±λG` or infinity needs no care
    /// here.
    pub fn mul(&self, scalar: &U256L) -> Point {
        let streams = glv_split(scalar).map(|(k, neg)| wnaf(&k, 5, neg));
        let two = self.double();
        let mut odd = [*self; 8];
        for i in 1..8 {
            odd[i] = odd[i - 1].add(&two);
        }
        let tables = [odd, odd.map(|p| p.endo())];
        let len = streams.iter().map(|s| s.1).max();
        let mut acc = Point::INFINITY;
        for i in (0..len.expect("two streams")).rev() {
            acc = acc.double();
            for ((digits, _), table) in streams.iter().zip(&tables) {
                let d = digits[i];
                if d != 0 {
                    let entry = table[d.unsigned_abs() as usize / 2];
                    acc = acc.add(&if d < 0 { entry.neg() } else { entry });
                }
            }
        }
        acc
    }

    /// `λ·self` for a point of order `n`: `(β·x, y)`.
    fn endo(&self) -> Point {
        Point {
            x: fmul(&self.x, &BETA),
            ..*self
        }
    }

    /// `−self`.
    fn neg(&self) -> Point {
        Point {
            y: fneg(&self.y),
            ..*self
        }
    }

    /// Mixed addition: `self + other` with `other` affine (z = 1). Saves
    /// ~5 field multiplications over the general Jacobian add — the inner
    /// loop of fixed-base multiplication.
    pub fn add_affine(&self, other: &Affine) -> Point {
        if self.is_infinity() {
            return Point::from_affine(other);
        }
        let z1z1 = fsqr(&self.z);
        let u2 = fmul(&other.x, &z1z1);
        let s2 = fmul(&other.y, &fmul(&z1z1, &self.z));
        if self.x == u2 {
            return if self.y == s2 {
                self.double()
            } else {
                Point::INFINITY
            };
        }
        let h = fsub(&u2, &self.x);
        let r = fsub(&s2, &self.y);
        let h2 = fsqr(&h);
        let h3 = fmul(&h2, &h);
        let u1h2 = fmul(&self.x, &h2);
        let x3 = fsub(&fsub(&fsqr(&r), &h3), &fadd(&u1h2, &u1h2));
        let y3 = fsub(&fmul(&r, &fsub(&u1h2, &x3)), &fmul(&self.y, &h3));
        let z3 = fmul(&h, &self.z);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

// ---- GLV endomorphism ----
//
// secp256k1 has the endomorphism `φ(x, y) = (β·x, y)`, which acts on the
// order-`n` group as multiplication by `λ`, where `β³ ≡ 1 (mod p)` and
// `λ³ ≡ 1 (mod n)` are the matching non-trivial cube roots of unity
// (`λ² + λ + 1 ≡ 0`, `β² + β + 1 ≡ 0`). A scalar `k` splits as
// `k ≡ k1 + k2·λ (mod n)` with `|k1|, |k2| < 2^128`, so `k·P` becomes
// `k1·P + k2·φ(P)` over half as many doublings.
//
// The split rounds `k` onto the lattice `{(x, y) : x + y·λ ≡ 0 (mod n)}`,
// which has the short basis
//
//   (a1, b1) = ( 0x3086d221a7d46bcde86c90e49284eb15, −0xe4437ed6010e88286f547fa90abfe4c3)
//   (a2, b2) = (0x114ca50f7a8e2f3f657c1108d9d44cfd8,  0x3086d221a7d46bcde86c90e49284eb15)
//
// with `a1·b2 − a2·b1 = n`: `c1 = ⌊b2·k/n⌉`, `c2 = ⌊−b1·k/n⌉`,
// `k2 = −c1·b1 − c2·b2`, `k1 = k − k2·λ`. The divisions by `n` are
// multiplications by `G1 = ⌊2^384·b2/n⌉` and `G2 = ⌊2^384·(−b1)/n⌉`
// followed by a rounding shift. The unit tests prove every identity
// quoted here rather than trusting the constants.

const LAMBDA: U256L = [
    0xDF02_967C_1B23_BD72,
    0x122E_22EA_2081_6678,
    0xA526_1C02_8812_645A,
    0x5363_AD4C_C05C_30E0,
];
const BETA: U256L = [
    0xC139_6C28_7195_01EE,
    0x9CF0_4975_12F5_8995,
    0x6E64_479E_AC34_34E9,
    0x7AE9_6A2B_657C_0710,
];
const MINUS_B1: U256L = [0x6F54_7FA9_0ABF_E4C3, 0xE443_7ED6_010E_8828, 0, 0];
const B2: U256L = [0xE86C_90E4_9284_EB15, 0x3086_D221_A7D4_6BCD, 0, 0];
const G1: U256L = [
    0xE893_209A_45DB_B031,
    0x3DAA_8A14_71E8_CA7F,
    0xE86C_90E4_9284_EB15,
    0x3086_D221_A7D4_6BCD,
];
const G2: U256L = [
    0x1571_B4AE_8AC4_7F71,
    0x2212_08AC_9DF5_06C6,
    0x6F54_7FA9_0ABF_E4C4,
    0xE443_7ED6_010E_8828,
];

/// Split `k` (any 256-bit value, taken mod `n`) into `[k1, k2]` with
/// `k ≡ k1 + k2·λ (mod n)`, each as a magnitude below `2^128` and a
/// "negative" flag.
fn glv_split(k: &U256L) -> [(U256L, bool); 2] {
    let k = reduce_once(*k, &N);
    // ⌊k·g / 2^384⌉
    let mul_shift = |g: &U256L| {
        let w = mul_wide(&k, g);
        add_raw(&[w[6], w[7], 0, 0], &[w[5] >> 63, 0, 0, 0]).0
    };
    let (c1, c2) = (mul_shift(&G1), mul_shift(&G2));
    let k2 = sub_mod(&nmul(&c1, &MINUS_B1), &nmul(&c2, &B2), &N);
    let k1 = sub_mod(&k, &nmul(&k2, &LAMBDA), &N);
    [k1, k2].map(|k| {
        if cmp(&k, &n_half()) == std::cmp::Ordering::Greater {
            (sub_raw(&N, &k).0, true)
        } else {
            (k, false)
        }
    })
}

// ---- wNAF recoding ----

/// Decompose `±scalar` into width-`w` NAF digits, least significant
/// first: each digit is odd with `|d| < 2^(w−1)` (or zero), and any two
/// non-zero digits are at least `w` positions apart, so an `L`-bit scalar
/// averages `L/(w+1)` point additions.
///
/// Returns the digit buffer and its length (≤ 257: rounding the top
/// window up can carry one position past the input width).
fn wnaf(scalar: &U256L, w: u32, negate: bool) -> ([i8; 257], usize) {
    debug_assert!((2..=8).contains(&w));
    let k = [scalar[0], scalar[1], scalar[2], scalar[3], 0, 0];
    let mut digits = [0i8; 257];
    let mut len = 0;
    let mut carry = 0;
    let mut bit = 0;
    while bit <= 256 {
        let (limb, shift) = (bit / 64, bit % 64);
        if (k[limb] >> shift) & 1 == carry {
            bit += 1;
            continue;
        }
        // The `w` bits from `bit` up, plus the carry: odd, in 1..2^w.
        let mut word = k[limb] >> shift;
        if shift + w as usize > 64 {
            word |= k[limb + 1] << (64 - shift);
        }
        let word = (word & ((1 << w) - 1)) + carry;
        carry = word >> (w - 1);
        let d = word as i32 - ((carry as i32) << w);
        digits[bit] = (if negate { -d } else { d }) as i8;
        len = bit + 1;
        bit += w as usize;
    }
    (digits, len)
}

// ---- fixed-base combs ----
//
// Every ECDSA sign, every key derivation and every recovery multiplies
// the *generator* by a scalar, and `verify_known_batch` multiplies both
// `G` and a known public key. A one-time table of `j·2^(W·i)·B`
// (`256/W` windows `i` of `W` bits, digits `j` in `1..2^W`) turns `k·B`
// from 256 doubles + ~128 general adds into at most `256/W` mixed
// additions. `G`'s table is 8 bits wide (≈ 510 KB, built lazily on the
// first `mul_g` in ≈ 5 ms, amortized forever); a learned key's is 4 bits
// wide (≈ 61 KB, ≈ 0.5 ms), see `KeyComb`.

/// A fixed-base comb `W` bits wide (`W` divides 64, so a digit never
/// straddles two limbs): the affine multiples `j·2^(W·i)·B` of one base
/// point.
pub(crate) struct Comb<const W: usize>(Vec<Affine>);

/// The comb of a learned public key. 4 bits, not `G`'s 8: an 8-bit comb
/// is 510 KB per key, 8 MB at the known-signer cap of 16.
pub(crate) type KeyComb = Comb<4>;

impl<const W: usize> Comb<W> {
    const WINDOWS: usize = {
        assert!(64 % W == 0 && W <= 8);
        256 / W
    };
    /// Non-zero digits per window.
    const ENTRIES: usize = (1 << W) - 1;

    /// Build the comb of a finite point: `256/W · (2^W − 1)` general
    /// additions, normalized ~256 points per inversion so that no Jacobian
    /// scratch array the size of the table (≈ 780 KB at 8 bits) is live.
    pub(crate) fn new(base: &Affine) -> Self {
        let mut table = Vec::with_capacity(Self::WINDOWS * Self::ENTRIES);
        let mut jac = Vec::with_capacity(256);
        let mut base = Point::from_affine(base);
        for w in 0..Self::WINDOWS {
            let mut cur = base;
            for _ in 0..Self::ENTRIES {
                jac.push(cur);
                cur = cur.add(&base);
            }
            base = cur; // 2^W·(previous base)
            if jac.len() >= 240 || w + 1 == Self::WINDOWS {
                table.extend(batch_to_affine(&jac));
                jac.clear();
            }
        }
        Comb(table)
    }

    /// `acc + k·B`: ≤ `256/W` mixed additions (8M + 3S each), no
    /// doublings.
    fn mul_add(&self, k: &U256L, mut acc: Point) -> Point {
        for w in 0..Self::WINDOWS {
            let digit = ((k[w * W / 64] >> (w * W % 64)) as usize) & Self::ENTRIES;
            if digit != 0 {
                acc = acc.add_affine(&self.0[w * Self::ENTRIES + digit - 1]);
            }
        }
        acc
    }
}

fn g_comb() -> &'static Comb<8> {
    use std::sync::OnceLock;
    static COMB: OnceLock<Comb<8>> = OnceLock::new();
    COMB.get_or_init(|| Comb::new(&Affine { x: GX, y: GY }))
}

/// Replace every element of `values` by its inverse modulo the odd prime
/// `m`, with one `modinv` and 3 `mul` products per element (Montgomery's
/// trick); an empty slice costs nothing. Every element must be non-zero
/// mod `m`.
fn batch_inv(values: &mut [U256L], m: &Modulus, mul: impl Fn(&U256L, &U256L) -> U256L) {
    if values.is_empty() {
        return;
    }
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = ONE;
    for v in values.iter() {
        prefix.push(acc);
        acc = mul(&acc, v);
    }
    let mut inv = modinv(&acc, m);
    for (v, before) in values.iter_mut().zip(prefix).rev() {
        let v_inv = mul(&inv, &before);
        inv = mul(&inv, v);
        *v = v_inv;
    }
}

/// Normalize many Jacobian points with one field inversion. All inputs
/// must be finite.
fn batch_to_affine(points: &[Point]) -> Vec<Affine> {
    let mut zinvs: Vec<U256L> = points.iter().map(|p| p.z).collect();
    batch_inv(&mut zinvs, &P_MOD, fmul);
    points
        .iter()
        .zip(zinvs)
        .map(|(p, zinv)| {
            let zinv2 = fsqr(&zinv);
            Affine {
                x: fmul(&p.x, &zinv2),
                y: fmul(&p.y, &fmul(&zinv2, &zinv)),
            }
        })
        .collect()
}

/// [`Point::to_affine`] of every point, with one field inversion shared by
/// the finite ones; an infinite point never enters the shared product.
fn to_affine_all(points: &[Point]) -> Vec<Option<Affine>> {
    let finite: Vec<Point> = points
        .iter()
        .filter(|p| !p.is_infinity())
        .copied()
        .collect();
    let mut affine = batch_to_affine(&finite).into_iter();
    points
        .iter()
        .map(|p| (!p.is_infinity()).then(|| affine.next().expect("one per finite point")))
        .collect()
}

/// `k·G` via the generator's comb.
pub fn mul_g(k: &U256L) -> Point {
    g_comb().mul_add(k, Point::INFINITY)
}

impl Affine {
    /// Whether `y² = x³ + 7` holds.
    pub fn is_on_curve(&self) -> bool {
        let y2 = fsqr(&self.y);
        let x3 = fmul(&fsqr(&self.x), &self.x);
        y2 == fadd(&x3, &SEVEN)
    }

    /// Lift an x-coordinate to a point with the given y-parity; `None` when
    /// x³ + 7 is a non-residue.
    pub fn lift_x(x: &U256L, y_is_odd: bool) -> Option<Affine> {
        if cmp(x, &P) != std::cmp::Ordering::Less {
            return None;
        }
        let rhs = fadd(&fmul(&fsqr(x), x), &SEVEN);
        let y = fsqrt(&rhs);
        if fsqr(&y) != rhs {
            return None;
        }
        let y = if (y[0] & 1 == 1) == y_is_odd {
            y
        } else {
            fneg(&y)
        };
        Some(Affine { x: *x, y })
    }

    /// The uncompressed 64-byte SEC1 body (`x ‖ y`, no 0x04 tag).
    pub fn to_bytes64(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&to_be_bytes(&self.x));
        out[32..].copy_from_slice(&to_be_bytes(&self.y));
        out
    }
}

// ---- ECDSA ----

/// Derive the public key for a secret scalar (must be in `[1, n)`).
pub fn pubkey(secret: &U256L) -> Affine {
    mul_g(secret)
        .to_affine()
        .expect("secret in [1, n) never lands on infinity")
}

/// Whether `s` is a valid secret scalar (`1 ≤ s < n`).
pub fn scalar_is_valid(s: &U256L) -> bool {
    !is_zero(s) && cmp(s, &N) == std::cmp::Ordering::Less
}

fn nmul(a: &U256L, b: &U256L) -> U256L {
    mul_mod(a, b, &N, &C_N)
}

/// One recoverable ECDSA signature: `(r, s)` scalars plus the y-parity of
/// the nonce point (after low-s normalization).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawSignature {
    /// `r = (k·G).x mod n`.
    pub r: U256L,
    /// `s = k⁻¹(z + r·d) mod n`, low-s normalized.
    pub s: U256L,
    /// Recovery bit: y-parity of `k·G`.
    pub y_odd: bool,
}

/// Sign digest `z` with secret `d`, deriving the nonce deterministically via
/// `nonce(counter)` until a valid `(k, r, s)` triple appears: the one-item
/// case of [`sign_batch`].
///
/// Deviation from the seed's `k256` backend: the deterministic nonce is a
/// keccak-based stretch rather than RFC 6979's HMAC-SHA256 construction.
/// Signatures remain deterministic and verifiable, but their exact `(r, s)`
/// bytes differ from what an RFC 6979 signer would emit.
pub fn sign(z: &U256L, d: &U256L, mut nonce: impl FnMut(u32) -> [u8; 32]) -> RawSignature {
    let mut sigs = sign_batch(&[*z], d, |_, counter| nonce(counter));
    sigs.pop().expect("one signature per digest")
}

/// Sign every digest of `zs` with secret `d`; item `i`'s nonce at retry
/// `counter` is `nonce(i, counter)`. Each signature equals what signing
/// its digest alone would give.
///
/// Every pending item draws its `k` at the same counter, and the round
/// normalizes all the `k·G` with one field inversion and inverts all the
/// `k` with one scalar inversion. An item that needs a retry (`k = 0`,
/// `r ≥ n`, `r = 0` or `s = 0`) stays pending for the next counter.
pub fn sign_batch(
    zs: &[U256L],
    d: &U256L,
    mut nonce: impl FnMut(usize, u32) -> [u8; 32],
) -> Vec<RawSignature> {
    let mut sigs: Vec<Option<RawSignature>> = zs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..zs.len()).collect();
    for counter in 0u32.. {
        if pending.is_empty() {
            break;
        }
        let (mut items, mut ks) = (Vec::new(), Vec::new());
        for i in std::mem::take(&mut pending) {
            let k = reduce_bytes(&nonce(i, counter), &N);
            if is_zero(&k) {
                pending.push(i);
            } else {
                items.push(i);
                ks.push(k);
            }
        }
        // k ∈ [1, n): every k·G is finite and every k invertible.
        let nonce_points = batch_to_affine(&ks.iter().map(mul_g).collect::<Vec<_>>());
        batch_inv(&mut ks, &N_MOD, nmul);
        for ((i, rp), kinv) in items.into_iter().zip(nonce_points).zip(ks) {
            match finish_signature(&zs[i], d, &rp, &kinv) {
                Some(sig) => sigs[i] = Some(sig),
                None => pending.push(i),
            }
        }
    }
    sigs.into_iter()
        .map(|sig| sig.expect("nonce search always terminates"))
        .collect()
}

/// The signature of `z` under `d` for the nonce point `rp = k·G`, or
/// `None` when this `k` needs a retry.
fn finish_signature(z: &U256L, d: &U256L, rp: &Affine, kinv: &U256L) -> Option<RawSignature> {
    // Skip the (astronomically rare) r.x ≥ n case rather than encoding
    // recovery-id bit 1; keeps `v` in Ethereum's {27, 28}.
    let r = rp.x;
    if !scalar_is_valid(&r) {
        return None;
    }
    let mut s = nmul(kinv, &add_mod(z, &nmul(&r, d), &N));
    if is_zero(&s) {
        return None;
    }
    // Low-s normalization; flipping s mirrors the nonce point.
    let mut y_odd = rp.y[0] & 1 == 1;
    if cmp(&s, &n_half()) == std::cmp::Ordering::Greater {
        s = sub_mod(&ZERO, &s, &N);
        y_odd = !y_odd;
    }
    Some(RawSignature { r, s, y_odd })
}

/// `⌊n / 2⌋`.
fn n_half() -> U256L {
    shr(&[N[0], N[1], N[2], N[3], 0], 1)
}

/// Recover the public key `r⁻¹·(s·R − z·G)` from a digest and a
/// recoverable signature, where `R` is the point with x-coordinate `r` and
/// the given y-parity: the one-item case of [`recover_batch`].
pub fn recover(z: &U256L, sig: &RawSignature) -> Option<Affine> {
    recover_batch(&[(*z, *sig)]).pop().flatten()
}

/// [`recover`] of every `(z, signature)` item. `None` for `r` or `s`
/// outside `[1, n)`, an `r` that is no x-coordinate, and an infinite
/// result.
///
/// Those checks run per item before anything enters a shared product, so
/// the batch costs one `fsqrt` (`lift_x`), one [`Point::mul`] and one
/// comb walk per item, one scalar inversion (every `r⁻¹`) and one field
/// inversion (every `to_affine`).
pub fn recover_batch(items: &[(U256L, RawSignature)]) -> Vec<Option<Affine>> {
    let lifted: Vec<(usize, Affine)> = items
        .iter()
        .enumerate()
        .filter(|(_, (_, sig))| scalar_is_valid(&sig.r) && scalar_is_valid(&sig.s))
        .filter_map(|(i, (_, sig))| Some((i, Affine::lift_x(&sig.r, sig.y_odd)?)))
        .collect();
    let mut rinvs: Vec<U256L> = lifted.iter().map(|&(i, _)| items[i].1.r).collect();
    batch_inv(&mut rinvs, &N_MOD, nmul);
    let points: Vec<Point> = lifted
        .iter()
        .zip(rinvs)
        .map(|(&(i, rp), rinv)| {
            let (z, sig) = &items[i];
            let u1 = nmul(&sub_mod(&ZERO, z, &N), &rinv);
            let u2 = nmul(&sig.s, &rinv);
            g_comb().mul_add(&u1, Point::from_affine(&rp).mul(&u2))
        })
        .collect();
    let mut out = vec![None; items.len()];
    for ((i, _), key) in lifted.into_iter().zip(to_affine_all(&points)) {
        out[i] = key;
    }
    out
}

/// Whether `recover(z, signature)` is the key `Q` whose comb is `comb`,
/// for every `(z, signature, comb)` item, without recovering: `recover`
/// yields `Q` exactly when `R = (z·s⁻¹)·G + (r·s⁻¹)·Q` is finite with
/// x-coordinate `r` and y-parity `y_odd`. `recover` lifts the unique point `R₀` with that x-coordinate
/// and parity and returns `r⁻¹·(s·R₀ − z·G)`, which is `Q` iff `R₀ = R`.
/// Same range checks as `recover`, applied per item before the shared
/// products.
///
/// Costs two comb walks per item into one accumulator (≤ 32 + 64 mixed
/// additions), one scalar inversion (every `s⁻¹`) and one field inversion
/// (every `to_affine`): no square root, no doubling.
pub(crate) fn verify_known_batch(items: &[(U256L, RawSignature, &KeyComb)]) -> Vec<bool> {
    let valid: Vec<usize> = (0..items.len())
        .filter(|&i| scalar_is_valid(&items[i].1.r) && scalar_is_valid(&items[i].1.s))
        .collect();
    let mut sinvs: Vec<U256L> = valid.iter().map(|&i| items[i].1.s).collect();
    batch_inv(&mut sinvs, &N_MOD, nmul);
    let points: Vec<Point> = valid
        .iter()
        .zip(sinvs)
        .map(|(&i, sinv)| {
            let (z, sig, q) = &items[i];
            q.mul_add(&nmul(&sig.r, &sinv), mul_g(&nmul(z, &sinv)))
        })
        .collect();
    let mut out = vec![false; items.len()];
    for (i, point) in valid.into_iter().zip(to_affine_all(&points)) {
        let sig = &items[i].1;
        out[i] = point.is_some_and(|p| p.x == sig.r && (p.y[0] & 1 == 1) == sig.y_odd);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// `modinv` calls on this thread: `(mod n, mod p)`.
        static INVERSIONS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count_inversion(m: &Modulus) {
        INVERSIONS.with(|c| {
            let (n, p) = c.get();
            c.set(if m.s62 == N_MOD.s62 {
                (n + 1, p)
            } else {
                (n, p + 1)
            });
        });
    }

    /// The `(scalar, field)` inversions `f` runs on this thread.
    fn inversions<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
        let before = INVERSIONS.with(Cell::get);
        let out = f();
        let after = INVERSIONS.with(Cell::get);
        ((after.0 - before.0, after.1 - before.1), out)
    }

    // ---- slow references ----

    /// `a · b (mod m)` one bit at a time, through `add_mod` alone: shares
    /// no code with `mul_wide`, either reduction or the squaring.
    fn mul_ref(a: &U256L, b: &U256L, m: &U256L) -> U256L {
        let (a, b) = (reduce_once(*a, m), reduce_once(*b, m));
        let mut acc = ZERO;
        for i in (0..256).rev() {
            acc = add_mod(&acc, &acc, m);
            if (b[i / 64] >> (i % 64)) & 1 == 1 {
                acc = add_mod(&acc, &a, m);
            }
        }
        acc
    }

    /// `a^e (mod m)` by square-and-multiply over the generic `mul_mod`.
    fn pow_mod(a: &U256L, e: &U256L, m: &U256L, c: &U256L) -> U256L {
        let mut result = ONE;
        for i in (0..256).rev() {
            result = mul_mod(&result, &result, m, c);
            if (e[i / 64] >> (i % 64)) & 1 == 1 {
                result = mul_mod(&result, a, m, c);
            }
        }
        result
    }

    /// `x / 2^t (mod m)` for odd `m` and `1 ≤ t ≤ 63`: add the multiple
    /// `q·m` that clears the low `t` bits (`q = −x·m⁻¹ mod 2^t`), then
    /// shift.
    fn div_pow2_mod(x: &U256L, t: u32, m: &U256L, neg_m_inv: u64) -> U256L {
        let q = x[0].wrapping_mul(neg_m_inv) & ((1 << t) - 1);
        let (r0, c) = mac(x[0], q, m[0], 0);
        let (r1, c) = mac(x[1], q, m[1], c);
        let (r2, c) = mac(x[2], q, m[2], c);
        let (r3, r4) = mac(x[3], q, m[3], c);
        shr(&[r0, r1, r2, r3, r4], t)
    }

    /// Modular inverse for an odd prime `m` and `a < m`, by the binary
    /// extended GCD; zero maps to zero. The invariants `x1·a ≡ u` and
    /// `x2·a ≡ v (mod m)` hold while `u` shrinks to 0, which leaves
    /// `v = gcd(a, m) = 1`. `v` stays odd; each round strips `u`'s trailing
    /// zeros (dividing `x1` to match) and subtracts the smaller from the
    /// larger.
    fn inv_mod(a: &U256L, m: &U256L) -> U256L {
        // −m⁻¹ mod 2^64 by Newton iteration; `m` is its own inverse mod 8.
        let neg_m_inv = (0..5)
            .fold(m[0], |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(x)))
            })
            .wrapping_neg();
        let (mut u, mut v) = (*a, *m);
        let (mut x1, mut x2) = (ONE, ZERO);
        while !is_zero(&u) {
            let t = u[0].trailing_zeros().min(63);
            if t > 0 {
                u = shr(&[u[0], u[1], u[2], u[3], 0], t);
                x1 = div_pow2_mod(&x1, t, m, neg_m_inv);
                if u[0] & 1 == 0 {
                    continue;
                }
            }
            let (d, borrow) = sub_raw(&u, &v);
            if borrow {
                (u, v) = (sub_raw(&v, &u).0, u);
                (x1, x2) = (sub_mod(&x2, &x1, m), x1);
            } else {
                u = d;
                x1 = sub_mod(&x1, &x2, m);
            }
        }
        x2
    }

    /// The plain double-and-add ladder (MSB first).
    fn mul_binary(base: &Point, scalar: &U256L) -> Point {
        let mut acc = Point::INFINITY;
        for i in (0..256).rev() {
            acc = acc.double();
            if (scalar[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(base);
            }
        }
        acc
    }

    // ---- seeded inputs ----

    /// Cases per differential pair. A debug build spends ~2 ms in each
    /// `mul_binary`, so the full count runs in release (CI has a step).
    const CASES: usize = if cfg!(debug_assertions) { 300 } else { 10_000 };

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform limbs, with one limb in four forced to all zeros or
        /// all ones so that carries and borrows run the full width.
        fn u256(&mut self) -> U256L {
            std::array::from_fn(|_| match self.next() % 8 {
                0 => 0,
                1 => u64::MAX,
                _ => self.next(),
            })
        }
    }

    fn n_minus(v: u64) -> U256L {
        sub_raw(&N, &[v, 0, 0, 0]).0
    }

    /// 0, 1, p − 1, p, 2^256 − 1 − p, 2^256 − 1 and neighbours: values
    /// that make both fold carries and the final subtract fire.
    fn field_edges() -> Vec<U256L> {
        let all_ones = [u64::MAX; 4];
        vec![
            ZERO,
            ONE,
            sub_raw(&P, &ONE).0,
            P,
            sub_raw(&all_ones, &P).0,
            all_ones,
            [0, u64::MAX, u64::MAX, u64::MAX],
            [u64::MAX, 0, 0, u64::MAX],
            [P[0] + 1, u64::MAX, u64::MAX, u64::MAX],
            [0, 0, 0, 1 << 63],
        ]
    }

    /// 0, 1, n − 1, n, 2^128 and 2^128 ± 1.
    fn scalar_edges() -> Vec<U256L> {
        vec![
            ZERO,
            ONE,
            n_minus(1),
            N,
            [u64::MAX, u64::MAX, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 1, 0],
        ]
    }

    /// Edge operands crossed with each other, then seeded random pairs up
    /// to `CASES`.
    fn pairs(edges: &[U256L], seed: u64) -> Vec<(U256L, U256L)> {
        let mut rng = XorShift(seed);
        let mut out = Vec::new();
        for a in edges {
            for b in edges {
                out.push((*a, *b));
            }
        }
        while out.len() < CASES {
            out.push((rng.u256(), rng.u256()));
        }
        out
    }

    /// `G`, `−G`, `λG`, `−λG`, then seeded random points.
    fn bases(count: usize, seed: u64) -> Vec<Point> {
        let g = Point::generator();
        let mut rng = XorShift(seed);
        let mut out = vec![g, g.neg(), g.endo(), g.endo().neg()];
        while out.len() < count {
            out.push(mul_g(&rng.u256()));
        }
        out
    }

    // ---- curve constants ----

    #[test]
    fn generator_is_on_curve() {
        let g = Affine { x: GX, y: GY };
        assert!(g.is_on_curve());
    }

    #[test]
    fn generator_has_order_n() {
        assert!(Point::generator().mul(&N).is_infinity());
        assert!(mul_binary(&Point::generator(), &N).is_infinity());
    }

    #[test]
    fn glv_constants_satisfy_their_defining_equations() {
        // λ and β are non-trivial cube roots of unity.
        assert_ne!(LAMBDA, ONE);
        assert_eq!(nmul(&nmul(&LAMBDA, &LAMBDA), &LAMBDA), ONE);
        assert_eq!(mul_ref(&mul_ref(&LAMBDA, &LAMBDA, &N), &LAMBDA, &N), ONE);
        assert_ne!(BETA, ONE);
        assert_eq!(fmul(&fsqr(&BETA), &BETA), ONE);
        assert_eq!(mul_ref(&mul_ref(&BETA, &BETA, &P), &BETA, &P), ONE);
        // They are the *matching* pair: λ·G = (β·Gx, Gy).
        let lambda_g = mul_binary(&Point::generator(), &LAMBDA).to_affine();
        assert_eq!(Point::generator().endo().to_affine(), lambda_g);
        assert_eq!(
            lambda_g,
            Some(Affine {
                x: mul_ref(&BETA, &GX, &P),
                y: GY
            })
        );
        // Both basis vectors lie on the lattice a + b·λ ≡ 0 (mod n), with
        // a1 = b2.
        const A2: U256L = [0x57C1_108D_9D44_CFD8, 0x14CA_50F7_A8E2_F3F6, 1, 0];
        assert_eq!(mul_ref(&MINUS_B1, &LAMBDA, &N), B2);
        assert_eq!(add_mod(&A2, &mul_ref(&B2, &LAMBDA, &N), &N), ZERO);
        // … and span a cell of area a1·b2 − a2·b1 = n.
        let (sq, cross) = (mul_wide(&B2, &B2), mul_wide(&A2, &MINUS_B1));
        let mut det = [0u64; 8];
        let mut carry = 0;
        for i in 0..8 {
            (det[i], carry) = adc(sq[i], cross[i], carry);
        }
        assert_eq!(det, [N[0], N[1], N[2], N[3], 0, 0, 0, 0]);
    }

    #[test]
    fn glv_split_recombines_with_short_halves() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut scalars = scalar_edges();
        scalars.extend([n_minus(2), n_half(), [u64::MAX; 4], LAMBDA]);
        while scalars.len() < CASES.max(10_000) {
            scalars.push(rng.u256());
        }
        for k in scalars {
            let [(k1, neg1), (k2, neg2)] = glv_split(&k);
            // |k1|, |k2| < 2^129 (in fact < 2^128).
            assert!(k1[2] < 2 && k1[3] == 0, "k1 of {k:x?}");
            assert!(k2[2] < 2 && k2[3] == 0, "k2 of {k:x?}");
            let signed = |v: U256L, neg| if neg { sub_mod(&ZERO, &v, &N) } else { v };
            let sum = add_mod(
                &signed(k1, neg1),
                &mul_ref(&signed(k2, neg2), &LAMBDA, &N),
                &N,
            );
            assert_eq!(sum, reduce_once(k, &N), "k {k:x?}");
        }
    }

    #[test]
    fn small_multiples_match_known_vectors() {
        // 2G.x from the standard secp256k1 tables.
        let two_g = Point::generator().double().to_affine().unwrap();
        assert_eq!(
            hex::encode(to_be_bytes(&two_g.x)),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        // G + 2G == 3G == G·3.
        let three_g = Point::generator().add(&Point::generator().double());
        let three_g2 = Point::generator().mul(&[3, 0, 0, 0]);
        assert_eq!(three_g.to_affine(), three_g2.to_affine());
    }

    // ---- every fast path against its slow reference ----

    #[test]
    fn field_kernel_matches_generic_and_bit_serial_products() {
        for (a, b) in pairs(&field_edges(), 1) {
            let want = mul_mod(&a, &b, &P, &C_P);
            assert_eq!(fmul(&a, &b), want, "fmul {a:x?} {b:x?}");
            assert_eq!(mul_ref(&a, &b, &P), want, "mul_mod {a:x?} {b:x?}");
            assert_eq!(fsqr(&a), mul_mod(&a, &a, &P, &C_P), "fsqr {a:x?}");
            // fadd / fsub take reduced operands.
            let (a, b) = (reduce_once(a, &P), reduce_once(b, &P));
            assert_eq!(fadd(&a, &b), add_mod(&a, &b, &P), "fadd {a:x?} {b:x?}");
            assert_eq!(fsub(&a, &b), sub_mod(&a, &b, &P), "fsub {a:x?} {b:x?}");
        }
    }

    #[test]
    fn scalar_product_matches_bit_serial_product() {
        let mut edges = scalar_edges();
        edges.extend([[u64::MAX; 4], n_half(), C_N]);
        for (a, b) in pairs(&edges, 2) {
            assert_eq!(nmul(&a, &b), mul_ref(&a, &b, &N), "{a:x?} {b:x?}");
        }
    }

    #[test]
    fn inverses_and_sqrt_match_pow_mod() {
        const SQRT_EXP: U256L = [
            0xFFFF_FFFF_BFFF_FF0C,
            0xFFFF_FFFF_FFFF_FFFF,
            0xFFFF_FFFF_FFFF_FFFF,
            0x3FFF_FFFF_FFFF_FFFF,
        ];
        let p_minus_2 = sub_raw(&P, &[2, 0, 0, 0]).0;
        for (a, b) in pairs(&field_edges(), 3) {
            for x in [reduce_once(a, &P), reduce_once(b, &P)] {
                assert_eq!(
                    modinv(&x, &P_MOD),
                    pow_mod(&x, &p_minus_2, &P, &C_P),
                    "{x:x?}"
                );
                assert_eq!(fsqrt(&x), pow_mod(&x, &SQRT_EXP, &P, &C_P), "{x:x?}");
            }
        }
        let mut edges = scalar_edges();
        edges.extend([n_minus(2), n_half(), [0, 0, 0, 1 << 62], [0, 1, 0, 0]]);
        for (a, b) in pairs(&edges, 4) {
            for x in [reduce_once(a, &N), reduce_once(b, &N)] {
                let want = pow_mod(&x, &n_minus(2), &N, &C_N);
                assert_eq!(modinv(&x, &N_MOD), want, "{x:x?}");
                if !is_zero(&x) {
                    assert_eq!(nmul(&x, &want), ONE);
                }
            }
        }
    }

    /// Both moduli's constants: the signed-62 limbs hold `m`, and `inv62`
    /// inverts it mod 2^62.
    #[test]
    fn modulus_constants_hold_their_modulus() {
        for (m, info) in [(P, &P_MOD), (N, &N_MOD)] {
            assert_eq!(from_signed62(&info.s62), m);
            assert!(info.s62.iter().all(|&limb| (0..1 << 62).contains(&limb)));
            assert_eq!(m[0].wrapping_mul(info.inv62) & M62, 1);
        }
    }

    /// `modinv` against the binary GCD, on the edges and on seeded values
    /// of every length, so that `g` starts short as well as full.
    #[test]
    fn modinv_matches_binary_gcd() {
        const INVERSES: usize = if cfg!(debug_assertions) {
            3_000
        } else {
            100_000
        };
        for (m, info, seed) in [(P, &P_MOD, 11), (N, &N_MOD, 12)] {
            let minus = |v: u64| sub_raw(&m, &[v, 0, 0, 0]).0;
            let mut inputs = vec![
                ONE,
                [2, 0, 0, 0],
                minus(1),
                minus(2),
                [0, 0, 0, 1 << 63],
                [u64::MAX, u64::MAX, u64::MAX, u64::MAX - 1],
            ];
            let mut rng = XorShift(seed);
            while inputs.len() < INVERSES {
                let (x, bits) = (reduce_once(rng.u256(), &m), rng.next() % 257);
                // The low `bits` bits of x: values of every length.
                let x: U256L = std::array::from_fn(|i| match bits.saturating_sub(64 * i as u64) {
                    0 => 0,
                    keep => x[i] & u64::MAX >> (64 - keep.min(64)),
                });
                if !is_zero(&x) {
                    inputs.push(x);
                }
            }
            for x in inputs {
                let want = inv_mod(&x, &m);
                assert_eq!(modinv(&x, info), want, "{x:x?} mod {m:x?}");
                assert_eq!(mul_ref(&x, &want, &m), ONE);
            }
            assert_eq!(modinv(&ZERO, info), ZERO, "zero maps to zero");
        }
    }

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        let mut rng = XorShift(5);
        let mut scalars = scalar_edges();
        scalars.extend([[31, 0, 0, 0], [u64::MAX; 4], [u64::MAX, 0, 0, 0]]);
        scalars.extend((0..200).map(|_| rng.u256()));
        for scalar in scalars {
            for (w, negate) in [(5, false), (5, true), (8, false), (2, true)] {
                let (digits, len) = wnaf(&scalar, w, negate);
                // Non-zero digits are odd, |d| < 2^(w−1), and ≥ w apart.
                let mut last_nonzero: Option<usize> = None;
                for (i, &d) in digits[..len].iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d % 2 != 0 && (d as i32).abs() < 1 << (w - 1), "{d} at {i}");
                    if let Some(prev) = last_nonzero {
                        assert!(i - prev >= w as usize, "{prev} and {i} too close");
                    }
                    last_nonzero = Some(i);
                }
                assert!(digits[len..].iter().all(|&d| d == 0));
                // Σ dᵢ·2ⁱ == ±scalar, evaluated mod n (which is odd, so
                // the doubling loses nothing).
                let mut acc = ZERO;
                for &d in digits[..len].iter().rev() {
                    acc = add_mod(&acc, &acc, &N);
                    let mag = [d.unsigned_abs() as u64, 0, 0, 0];
                    acc = if (d < 0) != negate {
                        sub_mod(&acc, &mag, &N)
                    } else {
                        add_mod(&acc, &mag, &N)
                    };
                }
                assert_eq!(acc, reduce_once(scalar, &N), "w {w} of {scalar:x?}");
            }
        }
    }

    /// Both comb widths: `G`'s 8-bit comb through `mul_g`, and a 4-bit
    /// comb of `G` (the learned-key width) walked directly.
    #[test]
    fn fixed_base_mul_matches_binary_ladder() {
        let g = Point::generator();
        let g4 = KeyComb::new(&Affine { x: GX, y: GY });
        for (k, _) in pairs(&scalar_edges(), 6) {
            let want = mul_binary(&g, &k).to_affine();
            assert_eq!(mul_g(&k).to_affine(), want, "k {k:x?}");
            assert_eq!(
                g4.mul_add(&k, Point::INFINITY).to_affine(),
                want,
                "k {k:x?}"
            );
        }
        for k in [N, ZERO] {
            assert!(mul_g(&k).is_infinity());
            assert!(g4.mul_add(&k, Point::INFINITY).is_infinity());
        }
    }

    #[test]
    fn point_mul_matches_binary_ladder() {
        let scalars = pairs(&scalar_edges(), 7);
        let bases = bases(scalars.len(), 8);
        for ((k, _), base) in scalars.iter().zip(&bases) {
            assert_eq!(
                base.mul(k).to_affine(),
                mul_binary(base, k).to_affine(),
                "k {k:x?} base {base:x?}"
            );
        }
        // Every edge scalar on every edge base.
        for base in &bases[..4] {
            for k in scalar_edges() {
                assert_eq!(base.mul(&k).to_affine(), mul_binary(base, &k).to_affine());
            }
        }
        assert!(Point::INFINITY.mul(&[5, 0, 0, 0]).is_infinity());
    }

    /// `u1·G + u2·R` as `recover_batch` computes it.
    fn double_mul(u1: &U256L, r: &Point, u2: &U256L) -> Point {
        g_comb().mul_add(u1, r.mul(u2))
    }

    #[test]
    fn double_mul_matches_two_binary_ladders() {
        let g = Point::generator();
        let check = |u1: &U256L, r: &Point, u2: &U256L| {
            assert_eq!(
                double_mul(u1, r, u2).to_affine(),
                mul_binary(&g, u1).add(&mul_binary(r, u2)).to_affine(),
                "u1 {u1:x?} u2 {u2:x?} r {r:x?}"
            );
        };
        // R ∈ {G, −G, λG, −λG, ∞} under every pair of edge scalars: equal
        // and opposite operands meet inside the loop (u1 = u2 on R = −G
        // cancels to infinity), and u1 = 0 is a digest ≡ 0 (mod n).
        let mut edge_bases = bases(4, 0);
        edge_bases.push(Point::INFINITY);
        for r in &edge_bases {
            for u1 in scalar_edges() {
                for u2 in scalar_edges() {
                    check(&u1, r, &u2);
                }
            }
        }
        assert!(double_mul(&LAMBDA, &g.neg(), &LAMBDA).is_infinity());
        assert!(double_mul(&LAMBDA, &g.endo().neg(), &ONE).is_infinity());
        let scalars = pairs(&[], 9);
        let bases = bases(scalars.len(), 10);
        for ((u1, u2), r) in scalars.iter().zip(&bases) {
            check(u1, r, u2);
        }
    }

    #[test]
    fn sign_recover_round_trip() {
        let d = [0xDEAD_BEEF, 1, 2, 3];
        let z = [77, 88, 99, 11];
        let sig = sign(&z, &d, |ctr| {
            let mut seed = to_be_bytes(&z);
            seed[0] ^= ctr as u8;
            seed[1] |= 1;
            seed
        });
        let q = recover(&z, &sig).unwrap();
        assert_eq!(q, pubkey(&d));
    }

    /// Items whose nonce at counter 0 reduces to `k = 0` (the bytes of 0
    /// and of `n`) go round again at counter 1, exactly as a lone `sign`
    /// does, and their neighbours sign as if nothing had retried.
    #[test]
    fn sign_batch_retries_match_sign() {
        let d = [0xDEAD_BEEF, 1, 2, 3];
        let zs: Vec<U256L> = (0..9).map(|i| [77 * i + 1, 88, 99, i]).collect();
        let plain = |i: usize, counter: u32| {
            let mut seed = to_be_bytes(&zs[i]);
            seed[0] ^= counter as u8;
            seed[1] |= 1;
            seed
        };
        let retrying = |i: usize, counter: u32| match (i, counter) {
            (2, 0) => [0; 32],
            (5, 0) | (8, 0) => to_be_bytes(&N),
            _ => plain(i, counter),
        };
        let batch = sign_batch(&zs, &d, retrying);
        let undisturbed = sign_batch(&zs, &d, plain);
        for (i, z) in zs.iter().enumerate() {
            assert_eq!(batch[i], sign(z, &d, |counter| retrying(i, counter)), "{i}");
            if [2, 5, 8].contains(&i) {
                assert_eq!(batch[i], sign(z, &d, |counter| plain(i, counter + 1)));
            } else {
                assert_eq!(batch[i], undisturbed[i], "{i}");
            }
            let sig = batch[i];
            assert_eq!(recover(z, &sig), Some(pubkey(&d)));
        }
        assert!(sign_batch(&[], &d, plain).is_empty());
    }
    /// A batch over k valid items costs one scalar and one field inversion
    /// in all, whatever k; the one-item entry points cost one of each; an
    /// item refused by its range checks costs nothing, and one whose
    /// point is infinite stays out of the field product.
    #[test]
    fn batches_share_one_scalar_and_one_field_inversion() {
        let d = [0xDEAD_BEEF, 1, 2, 3];
        let zs: Vec<U256L> = (0..24).map(|i| [i + 1, 7, 8, i]).collect();
        let sigs = sign_batch(&zs, &d, |i, counter| {
            let mut seed = to_be_bytes(&zs[i]);
            seed[0] ^= counter as u8;
            seed[1] |= 1;
            seed
        });
        let q = pubkey(&d);
        // `sign_batch` above built `G`'s comb outside the counted calls.
        let comb = KeyComb::new(&q);
        for k in [1, 2, 5, 24] {
            let items: Vec<(U256L, RawSignature)> =
                zs.iter().copied().zip(sigs.clone()).take(k).collect();
            let (cost, keys) = inversions(|| recover_batch(&items));
            assert_eq!(cost, (1, 1), "recover_batch of {k}");
            assert!(keys.iter().all(|key| *key == Some(q)));
            let checks: Vec<_> = items.iter().map(|&(z, sig)| (z, sig, &comb)).collect();
            let (cost, ok) = inversions(|| verify_known_batch(&checks));
            assert_eq!(cost, (1, 1), "verify_known_batch of {k}");
            assert!(ok.iter().all(|&ok| ok));
            let (cost, _) = inversions(|| sign_batch(&zs[..k], &d, |i, _| to_be_bytes(&zs[i])));
            assert_eq!(cost, (1, 1), "sign_batch of {k}");
        }
        let (z, sig) = (zs[0], sigs[0]);
        assert_eq!(inversions(|| recover(&z, &sig)).0, (1, 1));
        assert_eq!(inversions(|| sign(&z, &d, |_| to_be_bytes(&z))).0, (1, 1));

        let zero_s = RawSignature { s: ZERO, ..sig };
        assert_eq!(
            inversions(|| recover_batch(&[(z, zero_s)])),
            ((0, 0), vec![None])
        );
        assert_eq!(inversions(|| recover_batch(&[])), ((0, 0), vec![]));
        // A refused item never enters, so never poisons, the shared product.
        for bad in [zero_s, RawSignature { r: ZERO, ..sig }] {
            let (cost, keys) = inversions(|| recover_batch(&[(z, bad), (z, sig)]));
            assert_eq!((cost, keys), ((1, 1), vec![None, Some(q)]));
            let (cost, ok) = inversions(|| verify_known_batch(&[(z, sig, &comb), (z, bad, &comb)]));
            assert_eq!((cost, ok), ((1, 1), vec![true, false]));
        }
        // z ≡ −r·d: the nonce point of the known-key check is infinite.
        let rd = nmul(&sig.r, &d);
        let infinite = (sub_mod(&ZERO, &rd, &N), sig, &comb);
        let (cost, ok) = inversions(|| verify_known_batch(&[infinite, (z, sig, &comb)]));
        assert_eq!((cost, ok), ((1, 1), vec![false, true]));
        assert_eq!(
            inversions(|| verify_known_batch(&[infinite])),
            ((1, 0), vec![false])
        );
    }
}
