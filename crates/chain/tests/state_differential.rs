//! Differential test: the journaled `WorldState` must be observably
//! identical to a naive clone-the-world reference model across randomized
//! operation sequences — writes, nested checkpoints, reverts, commits, and
//! forks.
//!
//! The reference model implements snapshots by deep-cloning its entire maps
//! and reverts by swapping the clone back, i.e. exactly the semantics the
//! journal is supposed to preserve while making a checkpoint O(1) and a
//! revert O(changes) instead of O(world).

use smacs_chain::state::WorldState;
use smacs_primitives::{Address, H256, U256};
use std::collections::HashMap;

/// Deterministic xorshift* PRNG so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The clone-based reference: full-copy snapshots, full-copy forks.
#[derive(Clone, Default)]
struct RefState {
    accounts: HashMap<Address, (u64, u128, usize, bool)>, // nonce, balance, code_len, is_contract
    storage: HashMap<(Address, H256), H256>,
}

impl RefState {
    fn exists(&self, a: Address) -> bool {
        self.accounts.contains_key(&a)
    }

    fn entry(&mut self, a: Address) -> &mut (u64, u128, usize, bool) {
        self.accounts.entry(a).or_default()
    }

    fn balance(&self, a: Address) -> u128 {
        self.accounts.get(&a).map(|e| e.1).unwrap_or(0)
    }

    fn storage_get(&self, a: Address, k: H256) -> H256 {
        self.storage.get(&(a, k)).copied().unwrap_or(H256::ZERO)
    }

    fn storage_set(&mut self, a: Address, k: H256, v: H256) {
        if v.is_zero() {
            self.storage.remove(&(a, k));
        } else {
            self.storage.insert((a, k), v);
        }
    }
}

const ADDR_SPACE: u64 = 5;
const KEY_SPACE: u64 = 6;

fn addr(n: u64) -> Address {
    Address::from_low_u64(n + 1)
}

fn key(n: u64) -> H256 {
    H256::from_u256(U256::from_u64(n))
}

/// Assert the merged observable state matches the reference exactly:
/// existence, account fields, and every slot of the small address/key space.
fn assert_equivalent(world: &WorldState, reference: &RefState, ctx: &str) {
    for a in 0..ADDR_SPACE {
        let a = addr(a);
        assert_eq!(world.exists(a), reference.exists(a), "{ctx}: exists({a})");
        let expected = reference.accounts.get(&a);
        assert_eq!(
            world.nonce(a),
            expected.map(|e| e.0).unwrap_or(0),
            "{ctx}: nonce({a})"
        );
        assert_eq!(
            world.balance(a),
            reference.balance(a),
            "{ctx}: balance({a})"
        );
        assert_eq!(
            world.account(a).map(|acct| acct.code_len).unwrap_or(0),
            expected.map(|e| e.2).unwrap_or(0),
            "{ctx}: code_len({a})"
        );
        assert_eq!(
            world.is_contract(a),
            expected.map(|e| e.3).unwrap_or(false),
            "{ctx}: is_contract({a})"
        );
        for k in 0..KEY_SPACE {
            let k = key(k);
            assert_eq!(
                world.storage_get(a, k),
                reference.storage_get(a, k),
                "{ctx}: storage({a}, {k})"
            );
        }
        // Non-zero slot accounting must agree too (exercises tombstones).
        let ref_count = reference.storage.keys().filter(|(ra, _)| *ra == a).count();
        assert_eq!(
            world.storage_slot_count(a),
            ref_count,
            "{ctx}: slot_count({a})"
        );
    }
}

/// One operation applied identically to both implementations.
fn apply_random_op(
    rng: &mut Rng,
    world: &mut WorldState,
    reference: &mut RefState,
    snapshots: &mut Vec<(smacs_chain::state::Snapshot, RefState)>,
    forks: &mut Vec<(WorldState, RefState)>,
    step: usize,
) {
    match rng.below(12) {
        // Balance writes (credit / debit / set).
        0 | 1 => {
            let a = addr(rng.below(ADDR_SPACE));
            let amount = rng.below(1000) as u128;
            world.credit(a, amount);
            let entry = reference.entry(a);
            entry.1 = entry.1.saturating_add(amount);
        }
        2 => {
            let a = addr(rng.below(ADDR_SPACE));
            let amount = rng.below(1500) as u128;
            let ok = world.debit(a, amount);
            let can = reference.balance(a) >= amount;
            assert_eq!(ok, can, "step {step}: debit admissibility");
            if can {
                reference.entry(a).1 -= amount;
            }
        }
        // Storage writes, including zero-clears.
        3..=5 => {
            let a = addr(rng.below(ADDR_SPACE));
            let k = rng.below(KEY_SPACE);
            let v = if rng.below(4) == 0 {
                U256::ZERO
            } else {
                U256::from_u64(rng.below(1_000_000) + 1)
            };
            world.storage_set_u256(a, key(k), v);
            reference.storage_set(a, key(k), H256::from_u256(v));
        }
        6 => {
            let a = addr(rng.below(ADDR_SPACE));
            world.bump_nonce(a);
            reference.entry(a).0 += 1;
        }
        7 => {
            let a = addr(rng.below(ADDR_SPACE));
            let code_len = rng.below(4096) as usize;
            world.set_contract(a, code_len);
            let entry = reference.entry(a);
            entry.2 = code_len;
            entry.3 = true;
        }
        // Checkpoint management: push, revert-to-random, commit.
        8 => {
            if snapshots.len() < 6 {
                snapshots.push((world.snapshot(), reference.clone()));
            }
        }
        9 => {
            if !snapshots.is_empty() {
                // Reverting to snapshot i invalidates the deeper ones.
                let i = rng.below(snapshots.len() as u64) as usize;
                let (snap, ref_copy) = snapshots[i].clone();
                world.revert_to(snap);
                *reference = ref_copy;
                snapshots.truncate(i);
            }
        }
        10 => {
            world.commit();
            snapshots.clear(); // commit invalidates outstanding snapshots
        }
        // Forking: the fork must observe the same state and stay isolated.
        11 => {
            if forks.len() < 3 {
                forks.push((world.fork(), reference.clone()));
            }
        }
        _ => unreachable!(),
    }
}

/// Seeds of [`journaled_state_matches_clone_reference`]: a release build
/// runs the full count.
const SEEDS: u64 = if cfg!(debug_assertions) { 20 } else { 1_000 };

#[test]
fn journaled_state_matches_clone_reference() {
    for seed in 1..=SEEDS {
        let mut rng = Rng(seed | 1);
        let mut world = WorldState::new();
        let mut reference = RefState::default();
        let mut snapshots: Vec<(smacs_chain::state::Snapshot, RefState)> = Vec::new();
        let mut forks: Vec<(WorldState, RefState)> = Vec::new();

        for step in 0..400 {
            apply_random_op(
                &mut rng,
                &mut world,
                &mut reference,
                &mut snapshots,
                &mut forks,
                step,
            );
            assert_equivalent(&world, &reference, &format!("seed {seed} step {step}"));
        }

        // Forks captured along the way must still show exactly the state at
        // their creation point (isolation from everything that followed).
        for (i, (fork, expected)) in forks.iter().enumerate() {
            assert_equivalent(fork, expected, &format!("seed {seed} fork {i}"));
        }

        // And mutating a fork must not affect the original.
        if let Some((mut fork, mut fork_ref)) = forks.pop() {
            let before_world = reference.clone();
            for step in 0..100 {
                let mut fork_snaps = Vec::new();
                let mut fork_forks = Vec::new();
                apply_random_op(
                    &mut rng,
                    &mut fork,
                    &mut fork_ref,
                    &mut fork_snaps,
                    &mut fork_forks,
                    step,
                );
            }
            assert_equivalent(
                &world,
                &before_world,
                &format!("seed {seed} post-fork-mutation"),
            );
        }
    }
}

/// Deep nesting: a tower of checkpoints unwound in random order.
#[test]
fn nested_checkpoint_tower_unwinds_exactly() {
    for seed in 1..=10u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9) | 1);
        let mut world = WorldState::new();
        let mut reference = RefState::default();
        let mut tower: Vec<(smacs_chain::state::Snapshot, RefState)> = Vec::new();

        for depth in 0..30 {
            tower.push((world.snapshot(), reference.clone()));
            // A few writes per level.
            for _ in 0..3 {
                let a = addr(rng.below(ADDR_SPACE));
                let k = rng.below(KEY_SPACE);
                let v = U256::from_u64(rng.below(100));
                world.storage_set_u256(a, key(k), v);
                reference.storage_set(a, key(k), H256::from_u256(v));
                world.credit(a, depth as u128);
                reference.entry(a).1 += depth as u128;
            }
        }
        // Unwind to random heights until the tower is empty.
        while !tower.is_empty() {
            let i = rng.below(tower.len() as u64) as usize;
            let (snap, ref_copy) = tower[i].clone();
            world.revert_to(snap);
            reference = ref_copy;
            tower.truncate(i);
            assert_equivalent(&world, &reference, &format!("seed {seed} unwind to {i}"));
        }
    }
}
