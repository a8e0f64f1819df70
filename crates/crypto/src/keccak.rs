//! keccak256 — Ethereum's ubiquitous hash function.
//!
//! Implemented from scratch (keccak-f\[1600\] sponge, rate 1088, the original
//! Keccak `0x01` domain padding — *not* NIST SHA-3's `0x06`), since the
//! build environment has no access to external crates. Verified against the
//! well-known empty-string / `"abc"` / ERC-20-selector vectors below.

use smacs_primitives::H256;

const RATE: usize = 136; // 1088-bit rate for a 256-bit capacity-512 sponge
const ROUNDS: usize = 24;

const ROUND_CONSTANTS: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

// Rotation offsets and the pi-step lane permutation, both in the standard
// x + 5y lane order.
const ROTATIONS: [u32; 25] = [
    0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56, 14,
];

fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in &ROUND_CONSTANTS {
        // θ
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                let from = x + 5 * y;
                let to = y + 5 * ((2 * x + 3 * y) % 5);
                b[to] = state[from].rotate_left(ROTATIONS[from]);
            }
        }
        // χ
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// Hash `data` with keccak256 (the original Keccak, not NIST SHA-3).
pub fn keccak256(data: &[u8]) -> H256 {
    let mut hasher = Keccak256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Hash the concatenation of several byte slices without materializing the
/// concatenated buffer (the `abi.encodePacked` + `keccak256` idiom Alg. 1's
/// payload reconstruction uses).
pub fn keccak256_concat(parts: &[&[u8]]) -> H256 {
    let mut hasher = Keccak256::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// An incremental keccak256 hasher for streaming use.
pub struct Keccak256 {
    state: [u64; 25],
    buffer: [u8; RATE],
    buffered: usize,
}

impl Keccak256 {
    /// Start a new hash computation.
    pub fn new() -> Self {
        Keccak256 {
            state: [0; 25],
            buffer: [0; RATE],
            buffered: 0,
        }
    }

    fn absorb_block(&mut self) {
        for (lane, chunk) in self.buffer.chunks_exact(8).enumerate() {
            self.state[lane] ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        keccak_f1600(&mut self.state);
        self.buffered = 0;
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let take = (RATE - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == RATE {
                self.absorb_block();
            }
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> H256 {
        // Original-Keccak multi-rate padding: 0x01 … 0x80 (possibly the same
        // byte, 0x81, when one byte of room remains).
        self.buffer[self.buffered..].fill(0);
        self.buffer[self.buffered] = 0x01;
        self.buffer[RATE - 1] |= 0x80;
        self.absorb_block();

        let mut out = [0u8; 32];
        for (chunk, lane) in out.chunks_exact_mut(8).zip(self.state.iter()) {
            chunk.copy_from_slice(&lane.to_le_bytes());
        }
        H256(out)
    }
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Well-known keccak256 test vectors.
    #[test]
    fn empty_input_vector() {
        assert_eq!(
            keccak256(b"").to_hex(),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            keccak256(b"abc").to_hex(),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn solidity_selector_vector() {
        // The canonical ERC-20 transfer selector: keccak("transfer(address,uint256)")[..4] = a9059cbb.
        let h = keccak256(b"transfer(address,uint256)");
        assert_eq!(&h.0[..4], &[0xa9, 0x05, 0x9c, 0xbb]);
    }

    #[test]
    fn rate_boundary_inputs() {
        // Exercise the padding around the 136-byte rate boundary.
        for len in [135usize, 136, 137, 271, 272, 273] {
            let data = vec![0x5au8; len];
            let whole = keccak256(&data);
            let mut streamed = Keccak256::new();
            for chunk in data.chunks(17) {
                streamed.update(chunk);
            }
            assert_eq!(whole, streamed.finalize(), "len={len}");
        }
    }

    #[test]
    fn concat_matches_plain() {
        let joined = keccak256(b"hello world");
        let parts = keccak256_concat(&[b"hello", b" ", b"world"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn streaming_matches_plain() {
        let mut h = Keccak256::new();
        h.update(b"str");
        h.update(b"eam");
        assert_eq!(h.finalize(), keccak256(b"stream"));
    }
}
