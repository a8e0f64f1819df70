//! Differential suite: `BlockMode::Parallel` — a signature prepass across a
//! worker pool, then the sequential loop serving those recoveries from a
//! memo — must be bit-identical to `BlockMode::Sequential`: same receipts
//! (status, gas, logs, return data, full call traces), same per-tx errors,
//! same final state digest. Every block runs with no sender memoized, as it
//! would arrive off the wire, so the prepass recovers every sender.
//!
//! Unshielded regimes (only sender recoveries are memoised):
//!
//! - **low**: disjoint EOA transfers;
//! - **high**: every transaction swaps on one AMM;
//! - **medium**: a randomized mix of transfers, swaps, cross-contract
//!   `forward_call` chains (`LendingPool::leverageSwap` → `SmacsAmm`),
//!   same-sender nonce chains, deliberate nonce errors, and reverting
//!   swaps (`minOut` set above the quote).
//!
//! The **shielded** regime deploys the AMM, a lending pool routing to it
//! and an airdrop through `OwnerToolkit::deploy_shielded`, so calls carry
//! tokens whose TS signatures the prepass recovers from the shield's hints:
//! super, method, argument and one-time tokens; a one-time index spent
//! twice in one block; expired tokens; forged TS signatures; a token for
//! another contract; shielded `forward_call` chains, whose nested
//! recovery misses the memo and runs live; senders whose signature does
//! not recover; and bad nonces. Each adversarial transaction's sequential
//! outcome is asserted too, so the regime provably exercises those paths.
//! Because the prepass recovers each chunk of a block as one batch, the
//! regime also runs on pools of 1, 2 and 4 threads with a forged TS
//! signature and a non-recovering sender pinned first, last and beside
//! every chunk boundary.
//!
//! Same deterministic-PRNG approach as `state_differential.rs` in the
//! chain crate, lifted to whole blocks.

use smacs_chain::{
    BlockMode, Chain, ChainError, ExecStatus, Receipt, Selector, SignedTransaction, Transaction,
};
use smacs_contracts::{Airdrop, LendingPool, SmacsAmm};
use smacs_core::{build_call_data, build_chain_call_data, OwnerToolkit, ShieldParams};
use smacs_crypto::Keypair;
use smacs_primitives::pool::WorkerPool;
use smacs_primitives::{Address, Bytes};
use smacs_token::{signing_digest, PayloadContext, Token, TokenType, NO_INDEX};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Per-sender nonces for one generated block.
struct Nonces(HashMap<Address, u64>);

impl Nonces {
    fn of(chain: &Chain, senders: &[Keypair]) -> Nonces {
        Nonces(
            senders
                .iter()
                .map(|kp| (kp.address(), chain.state().nonce(kp.address())))
                .collect(),
        )
    }

    /// The sender's next nonce, consumed.
    fn take(&mut self, addr: Address) -> u64 {
        let n = self.0.get_mut(&addr).expect("known sender");
        *n += 1;
        *n - 1
    }

    /// The sender's next nonce, left for a later transaction.
    fn peek(&self, addr: Address) -> u64 {
        self.0[&addr]
    }
}

/// Execute `txs` sequentially on `seq` and under the prepass on `par`, each
/// with no sender memoized, and assert the two are bit-identical. Returns
/// the sequential results.
fn assert_modes_agree(
    seq: &mut Chain,
    par: &mut Chain,
    txs: &[SignedTransaction],
    pool: &WorkerPool,
    seed: u64,
) -> Vec<Result<Receipt, ChainError>> {
    assert_eq!(
        seq.state().state_digest(),
        par.state().state_digest(),
        "fixtures must start identical (seed {seed})"
    );
    let cold = || -> Vec<SignedTransaction> {
        txs.iter()
            .map(|s| SignedTransaction::from_parts(s.tx.clone(), s.signature))
            .collect()
    };
    let seq_results = seq.execute_block_with(&cold(), BlockMode::Sequential);
    let par_results = par.execute_block_with(&cold(), BlockMode::Parallel(pool));
    assert_eq!(
        seq_results.len(),
        par_results.len(),
        "result count (seed {seed})"
    );
    for (i, (s, p)) in seq_results.iter().zip(&par_results).enumerate() {
        assert_eq!(s, p, "tx {i} of seed {seed} diverged");
    }
    assert_eq!(
        seq.state().state_digest(),
        par.state().state_digest(),
        "final state diverged (seed {seed})"
    );
    let seq_block = seq.seal_block().clone();
    let par_block = par.seal_block().clone();
    assert_eq!(
        seq_block.transactions, par_block.transactions,
        "sealed block (seed {seed})"
    );
    seq_results
}

// ---- Unshielded regimes ----

struct Fixture {
    chain: Chain,
    senders: Vec<Keypair>,
    amm: Address,
    pool: Address,
}

/// Deterministic world: funded senders, a seeded AMM, and a lending pool
/// routing to it. Built identically for the sequential and parallel runs.
fn fixture(n_senders: usize) -> Fixture {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let senders: Vec<Keypair> = (0..n_senders)
        .map(|i| chain.funded_keypair(100 + i as u64, 10u128.pow(24)))
        .collect();
    let (amm, _) = chain
        .deploy(&owner, Arc::new(SmacsAmm))
        .expect("deploy amm");
    let (pool, _) = chain
        .deploy(&owner, Arc::new(LendingPool::routing_to(amm.address)))
        .expect("deploy pool");
    chain
        .call_contract(
            &owner,
            amm.address,
            0,
            SmacsAmm::seed_payload(1_000_000_000, 1_000_000_000),
        )
        .expect("seed amm");
    chain.seal_block();
    Fixture {
        chain,
        senders,
        amm: amm.address,
        pool: pool.address,
    }
}

enum Regime {
    Low,
    Medium,
    High,
}

/// Generate one block of signed transactions for the regime. Nonces are
/// tracked per sender so same-sender chains stay valid — except for the
/// deliberate bad-nonce transactions the medium regime injects.
fn generate_block(
    fixture: &Fixture,
    regime: &Regime,
    rng: &mut Rng,
    txs_per_block: usize,
) -> Vec<SignedTransaction> {
    let senders = &fixture.senders;
    let mut nonces = Nonces::of(&fixture.chain, senders);
    (0..txs_per_block)
        .map(|i| {
            let kp = match regime {
                // Low: one tx per sender, strictly disjoint accounts.
                Regime::Low => &senders[i % senders.len()],
                _ => &senders[rng.below(senders.len() as u64) as usize],
            };
            let sender = kp.address();
            let kind = match regime {
                Regime::Low => 0,
                Regime::High => 1,
                Regime::Medium => rng.below(10),
            };
            let tx = match kind {
                // Disjoint transfer to a fresh address derived from the tx
                // index (low regime) or the sender (medium).
                0 | 2 | 3 | 4 => {
                    let to = match regime {
                        Regime::Low => Address::from_low_u64(0x9000 + i as u64),
                        _ => Address::from_low_u64(0xA000 + rng.below(64)),
                    };
                    Transaction::call(
                        nonces.take(sender),
                        to,
                        1 + rng.below(1000) as u128,
                        Bytes::new(),
                    )
                }
                // AMM swap; occasionally with minOut above any possible
                // quote so it reverts — receipts must match exactly.
                1 | 5 | 6 => {
                    let min_out = if matches!(regime, Regime::Medium) && rng.below(4) == 0 {
                        u64::MAX
                    } else {
                        0
                    };
                    Transaction::call(
                        nonces.take(sender),
                        fixture.amm,
                        0,
                        SmacsAmm::swap_payload(1 + rng.below(10_000), min_out),
                    )
                }
                // Cross-contract forward_call chain: pool → AMM.
                7 | 8 => Transaction::call(
                    nonces.take(sender),
                    fixture.pool,
                    0,
                    LendingPool::leverage_payload(1 + rng.below(10_000), 0),
                ),
                // Deliberate bad nonce: rejected with ChainError::BadNonce,
                // whose `expected` field depends on earlier txs in the block.
                _ => Transaction::call(
                    nonces.peek(sender) + 1 + rng.below(3),
                    Address::from_low_u64(0xB000),
                    1,
                    Bytes::new(),
                ),
            };
            tx.sign(kp)
        })
        .collect()
}

fn run_regime(regime: Regime, seeds: &[u64], n_senders: usize, txs_per_block: usize) {
    let pool = WorkerPool::new(4, 1024);
    for &seed in seeds {
        let mut rng = Rng(seed);
        let mut seq = fixture(n_senders);
        let mut par = fixture(n_senders);
        let txs = generate_block(&seq, &regime, &mut rng, txs_per_block);
        assert_modes_agree(&mut seq.chain, &mut par.chain, &txs, &pool, seed);
    }
    pool.shutdown();
}

// ---- Shielded regime ----

/// Token lifetime of the shielded world, and its bitmap sizing.
const LIFETIME: u64 = 3_600;

struct ShieldedFixture {
    chain: Chain,
    ts: Keypair,
    senders: Vec<Keypair>,
    amm: Address,
    pool: Address,
    drop: Address,
}

/// Sign a token the way the TS does: over Alg. 1's `data` for a call from
/// `sender` to `contract` with `payload`.
fn sign_token(
    ts: &Keypair,
    ttype: TokenType,
    contract: Address,
    sender: Address,
    payload: &[u8],
    index: i128,
    expire: u32,
) -> Token {
    let ctx = PayloadContext {
        sender,
        contract,
        selector: Selector::from_calldata(payload),
        calldata: Some(payload.to_vec()),
    };
    Token {
        ttype,
        expire,
        index,
        signature: ts.sign_digest(&signing_digest(ttype, expire, index, &ctx)),
    }
}

/// The AMM, a pool routing to it and an airdrop, all shielded by one TS
/// key, with the AMM seeded through its own shield.
fn shielded_fixture(n_senders: usize) -> ShieldedFixture {
    let mut chain = Chain::default_chain();
    let toolkit = OwnerToolkit::from_seeds(1, 2);
    let owner = toolkit.owner().clone();
    chain.fund_account(owner.address(), 10u128.pow(24));
    let senders: Vec<Keypair> = (0..n_senders)
        .map(|i| chain.funded_keypair(100 + i as u64, 10u128.pow(24)))
        .collect();
    let params = ShieldParams {
        token_lifetime_secs: LIFETIME,
        max_tx_per_second: 1.0,
        disable_one_time: false,
    };
    let deploy = |chain: &mut Chain, logic| {
        let (deployed, _) = toolkit
            .deploy_shielded(chain, logic, &params)
            .expect("deploy shielded");
        deployed.address
    };
    let amm = deploy(&mut chain, Arc::new(SmacsAmm));
    let pool = deploy(&mut chain, Arc::new(LendingPool::routing_to(amm)));
    let drop = deploy(&mut chain, Arc::new(Airdrop::granting(100)));

    let ts = toolkit.ts_keypair().clone();
    let seed = SmacsAmm::seed_payload(1_000_000_000, 1_000_000_000);
    let expire = (chain.pending_env().timestamp + LIFETIME) as u32;
    let token = sign_token(
        &ts,
        TokenType::Method,
        amm,
        owner.address(),
        &seed,
        NO_INDEX,
        expire,
    );
    let receipt = chain
        .call_contract(&owner, amm, 0, build_call_data(&seed, amm, token))
        .expect("seed amm");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    chain.seal_block();
    ShieldedFixture {
        chain,
        ts,
        senders,
        amm,
        pool,
        drop,
    }
}

/// What a generated shielded transaction must do under sequential
/// execution.
#[derive(Debug)]
enum Expect {
    Success,
    Revert(&'static str),
    Rejected,
}

impl ShieldedFixture {
    /// An identical world on a fork of this one's chain.
    fn fork(&self) -> ShieldedFixture {
        ShieldedFixture {
            chain: self.chain.fork(),
            ts: self.ts.clone(),
            senders: self.senders.clone(),
            ..*self
        }
    }
}

/// A forged TS signature (8) or a sender signature that does not recover
/// (10) at some positions of a generated block: `forced(position)`.
type Forced<'a> = &'a dyn Fn(usize) -> Option<u64>;

/// One block of token-bearing transactions, the kind at each position
/// drawn from `rng` unless `forced` names it. Each adversarial kind comes
/// with its expected sequential outcome.
fn generate_shielded_block(
    fixture: &ShieldedFixture,
    rng: &mut Rng,
    txs_per_block: usize,
    forced: Forced<'_>,
) -> Vec<(SignedTransaction, Expect)> {
    let ShieldedFixture {
        chain,
        ts,
        senders,
        amm,
        pool,
        drop,
        ..
    } = fixture;
    let (amm, pool, drop) = (*amm, *pool, *drop);
    let now = chain.pending_env().timestamp;
    let expire = (now + LIFETIME) as u32;
    let forger = Keypair::from_seed(0xF0F0);
    let mut nonces = Nonces::of(chain, senders);
    // Every index below `next_index` was spent by a successful claim; the
    // airdrop itself refuses a second claim per account.
    let mut next_index: i128 = 0;
    let mut claimed: HashSet<Address> = HashSet::new();
    let mut block = Vec::with_capacity(txs_per_block);
    while block.len() < txs_per_block {
        let kp = &senders[rng.below(senders.len() as u64) as usize];
        let sender = kp.address();
        let swap = SmacsAmm::swap_payload(1 + rng.below(10_000), 0);
        let claim = Airdrop::claim_payload();
        let token = |ttype, contract, payload: &[u8], index| {
            sign_token(ts, ttype, contract, sender, payload, index, expire)
        };
        let kind = forced(block.len()).unwrap_or_else(|| rng.below(12));
        let (to, data, expect, nonce) = match kind {
            // Super, method and argument tokens on a swap.
            kind @ 0..=2 => {
                let ttype =
                    [TokenType::Super, TokenType::Method, TokenType::Argument][kind as usize];
                let data = build_call_data(&swap, amm, token(ttype, amm, &swap, NO_INDEX));
                (amm, data, Expect::Success, nonces.take(sender))
            }
            // A fresh one-time claim.
            3 | 4 => {
                if !claimed.insert(sender) {
                    continue;
                }
                let index = next_index;
                next_index += 1;
                let data =
                    build_call_data(&claim, drop, token(TokenType::Method, drop, &claim, index));
                (drop, data, Expect::Success, nonces.take(sender))
            }
            // A one-time index already spent in this block, by an account
            // the airdrop itself would still accept.
            5 => {
                if next_index == 0 || claimed.contains(&sender) {
                    continue;
                }
                let index = next_index - 1;
                let data =
                    build_call_data(&claim, drop, token(TokenType::Method, drop, &claim, index));
                let expect = Expect::Revert("SMACS: one-time token already used or missed");
                (drop, data, expect, nonces.take(sender))
            }
            // Shielded forward_call chain: a method token for the pool and
            // an argument token for the swap the pool forwards.
            6 => {
                let amount = 1 + rng.below(10_000);
                let leverage = LendingPool::leverage_payload(amount, 0);
                let forwarded = SmacsAmm::swap_payload(amount, 0);
                let data = build_chain_call_data(
                    &leverage,
                    &[
                        (pool, token(TokenType::Method, pool, &leverage, NO_INDEX)),
                        (amm, token(TokenType::Argument, amm, &forwarded, NO_INDEX)),
                    ],
                );
                (pool, data, Expect::Success, nonces.take(sender))
            }
            // An expired token.
            7 => {
                let stale = sign_token(
                    ts,
                    TokenType::Method,
                    amm,
                    sender,
                    &swap,
                    NO_INDEX,
                    (now - 1) as u32,
                );
                let data = build_call_data(&swap, amm, stale);
                (
                    amm,
                    data,
                    Expect::Revert("SMACS: token expired"),
                    nonces.take(sender),
                )
            }
            // A TS signature from the wrong key.
            8 => {
                let forged = sign_token(
                    &forger,
                    TokenType::Method,
                    amm,
                    sender,
                    &swap,
                    NO_INDEX,
                    expire,
                );
                let data = build_call_data(&swap, amm, forged);
                let expect = Expect::Revert("SMACS: invalid token signature");
                (amm, data, expect, nonces.take(sender))
            }
            // Only a token for another contract.
            9 => {
                let data =
                    build_call_data(&swap, pool, token(TokenType::Method, pool, &swap, NO_INDEX));
                let expect = Expect::Revert("SMACS: no token for this contract");
                (amm, data, expect, nonces.take(sender))
            }
            // A sender signature that does not recover.
            10 => {
                let data =
                    build_call_data(&swap, amm, token(TokenType::Method, amm, &swap, NO_INDEX));
                let mut signed = Transaction::call(nonces.peek(sender), amm, 0, data).sign(kp);
                signed.signature.r = [0xFF; 32];
                block.push((signed, Expect::Rejected));
                continue;
            }
            // A bad nonce on an otherwise valid call.
            _ => {
                let data =
                    build_call_data(&swap, amm, token(TokenType::Method, amm, &swap, NO_INDEX));
                (
                    amm,
                    data,
                    Expect::Rejected,
                    nonces.peek(sender) + 1 + rng.below(3),
                )
            }
        };
        block.push((Transaction::call(nonce, to, 0, data).sign(kp), expect));
    }
    block
}

/// Generate a block on `seq`'s world, run it in both modes, and assert
/// each transaction's sequential outcome.
fn run_shielded_block(
    seq: &mut ShieldedFixture,
    par: &mut ShieldedFixture,
    pool: &WorkerPool,
    seed: u64,
    txs_per_block: usize,
    forced: Forced<'_>,
) {
    let mut rng = Rng(seed);
    let (txs, expects): (Vec<_>, Vec<_>) =
        generate_shielded_block(seq, &mut rng, txs_per_block, forced)
            .into_iter()
            .unzip();
    let results = assert_modes_agree(&mut seq.chain, &mut par.chain, &txs, pool, seed);
    for (i, (result, expect)) in results.iter().zip(&expects).enumerate() {
        let ok = match (expect, result) {
            (Expect::Success, Ok(r)) => r.status.is_success(),
            (Expect::Revert(reason), Ok(r)) => {
                matches!(&r.status, ExecStatus::Reverted(got) if got.contains(reason))
            }
            (Expect::Rejected, Err(_)) => true,
            _ => false,
        };
        assert!(
            ok,
            "tx {i} of seed {seed}: expected {expect:?}, got {result:?}"
        );
    }
}

fn run_shielded(seeds: &[u64], n_senders: usize, txs_per_block: usize) {
    let pool = WorkerPool::new(4, 1024);
    for &seed in seeds {
        let mut seq = shielded_fixture(n_senders);
        let mut par = shielded_fixture(n_senders);
        run_shielded_block(&mut seq, &mut par, &pool, seed, txs_per_block, &|_| None);
    }
    pool.shutdown();
}

#[test]
fn low_conflict_blocks_match_sequential() {
    run_regime(Regime::Low, &[11, 12, 13, 14], 16, 16);
}

#[test]
fn high_conflict_blocks_match_sequential() {
    run_regime(Regime::High, &[21, 22, 23, 24], 16, 16);
}

#[test]
fn medium_conflict_blocks_match_sequential() {
    run_regime(Regime::Medium, &[31, 32, 33, 34], 12, 32);
}

#[test]
fn shielded_blocks_match_sequential() {
    run_shielded(&[51, 52, 53, 54], 12, 32);
}

/// The prepass batches each chunk's recoveries together, so an item that
/// fails must not disturb its chunk. On pools of 1, 2 and 4 threads, a
/// forged TS signature and a sender that does not recover sit first,
/// last and on both sides of every cut a block can get at up to 4
/// chunks — each spot takes both kinds, over two runs.
#[test]
fn shielded_chunk_boundaries_match_sequential() {
    let base = shielded_fixture(12);
    for threads in [1, 2, 4] {
        let pool = WorkerPool::new(threads, 64);
        for len in [1, 2, 15, 16, 17, 32, 33] {
            let mut edges = HashSet::from([0, len - 1]);
            for chunks in 2..=4 {
                for cut in (1..chunks).map(|c| c * len / chunks).filter(|&b| b > 0) {
                    edges.extend([cut - 1, cut]);
                }
            }
            for flip in 0..2 {
                let forced = |p: usize| edges.contains(&p).then_some([8, 10][(p + flip) % 2]);
                let seed = 60 + 100 * threads as u64 + 2 * len as u64 + flip as u64;
                let (mut seq, mut par) = (base.fork(), base.fork());
                run_shielded_block(&mut seq, &mut par, &pool, seed, len, &forced);
            }
        }
        pool.shutdown();
    }
}

/// Short cross-regime pass for CI's parallel-exec differential smoke.
#[test]
fn parallel_differential_smoke() {
    run_regime(Regime::Low, &[41], 8, 8);
    run_regime(Regime::High, &[42], 8, 8);
    run_regime(Regime::Medium, &[43], 8, 12);
    run_shielded(&[44], 8, 16);
}
