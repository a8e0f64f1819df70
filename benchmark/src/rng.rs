//! Seeded randomness: every input the program receives is a pure function
//! of `--seed`.

/// xorshift64* — the generator the repo's own load generator uses.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a list of tags (workload, lane, round …), so
    /// that independent streams never share a state.
    pub fn new(seed: u64, tags: &[u64]) -> Rng {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for &t in tags {
            x = splitmix(x ^ t.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        }
        Rng(splitmix(x) | 1) // xorshift must not start at 0
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential with the given mean (Poisson inter-arrival gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 53 random bits mapped into (0, 1]: ln never sees 0.
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Poisson arrival offsets (seconds from the window start) at `rate` per
/// second, up to `duration` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < duration {
        due.push(t);
        t += rng.exp(1.0 / rate);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_tag() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7, &[1, 2]).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, &[1, 2]).next_u64(), Rng::new(7, &[2, 1]).next_u64());
        assert_ne!(Rng::new(7, &[1]).next_u64(), Rng::new(8, &[1]).next_u64());
    }

    #[test]
    fn poisson_schedule_hits_its_rate() {
        let due = poisson_schedule(&mut Rng::new(1, &[]), 1_000.0, 10.0);
        assert!((9_500..10_500).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] < w[1]));
    }
}
