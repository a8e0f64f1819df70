//! `block_replay` — the chain alone. One op is a 32-transaction block of
//! pre-signed, token-bearing transactions with cold sender caches, executed
//! with `BlockMode::Parallel` and sealed: two `ecrecover`s per transaction,
//! the executor, the journal and the TouchSets. No Token Service code runs
//! in a timed window. Latency is per block, goodput in transactions.

use super::Workload;
use crate::driver::Lane;
use crate::host;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::world::{self, Env};
use smacs_chain::{BlockMode, Chain, SignedTransaction, Transaction};
use smacs_contracts::{Airdrop, SessionGame, SmacsAmm};
use smacs_core::{build_call_data, OwnerToolkit, ShieldParams};
use smacs_crypto::{Keypair, Signature};
use smacs_primitives::{Address, WorkerPool, H256};
use smacs_token::{Token, TokenRequest};
use smacs_ts::{RuleBook, TokenService, TokenServiceConfig};
use std::sync::Arc;

pub const BLOCK_TXS: usize = 32;
/// Blocks in the pre-signed sequence. Sealing moves the chain clock 13 s a
/// block and tokens live 3,600 s, so a sequence must stay under 276 blocks.
const BLOCKS: usize = 128;
const PLAYERS: usize = 64;
const TRADERS: usize = 16;
const FUNDING: u128 = 10u128.pow(24);

/// A signed transaction as it would arrive off the wire: body and
/// signature, no cached sender.
pub type WireTx = (Transaction, Signature);

/// The post-set-up chain and the block sequence replayed on forks of it.
pub struct BlockWorld {
    pub base: Chain,
    pub blocks: Arc<Vec<Vec<WireTx>>>,
    /// Transactions of the sequence by kind: plays, claims, swaps.
    pub mix: [usize; 3],
}

struct Account {
    keypair: Keypair,
    nonce: u64,
}

impl Account {
    fn fund(chain: &mut Chain, keypair: Keypair) -> Account {
        chain.fund_account(keypair.address(), FUNDING);
        Account { keypair, nonce: 0 }
    }

    /// Sign a call carrying `token`, consuming one nonce.
    fn call(&mut self, to: Address, payload: &[u8], token: Token) -> SignedTransaction {
        let data = build_call_data(payload, to, token);
        let signed = Transaction::call(self.nonce, to, 0, data).sign(&self.keypair);
        self.nonce += 1;
        signed
    }
}

impl BlockWorld {
    /// Deploy three shielded contracts, prepare their state, and pre-sign
    /// `blocks` blocks: 70 % method-token `play`s on per-player slots, 20 %
    /// one-time `claim`s (bitmap writes, a fresh account each) and 10 %
    /// argument-token AMM swaps on shared reserves. Senders are distinct
    /// within a block, so only the contracts' shared slots conflict.
    pub fn build(seed: u64, blocks: usize) -> BlockWorld {
        let mut rng = Rng::new(seed, &[0xB10C]);
        let mut chain = Chain::default_chain();
        let owner_key = Keypair::from_seed(rng.next_u64());
        let toolkit = OwnerToolkit::new(owner_key.clone(), world::ts_keypair(seed));
        let mut owner = Account::fund(&mut chain, owner_key);
        // 3,600 s × 3.5 tx/s = 12,600 bitmap bits: every one-time index of
        // the sequence stays inside the window.
        let params = ShieldParams {
            token_lifetime_secs: 3_600,
            max_tx_per_second: 3.5,
            disable_one_time: false,
        };
        let mut deploy = |logic| {
            owner.nonce += 1;
            let (deployed, receipt) = toolkit
                .deploy_shielded(&mut chain, logic, &params)
                .expect("deploy");
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
            deployed.address
        };
        let game = deploy(Arc::new(SessionGame));
        let drop = deploy(Arc::new(Airdrop::granting(100)));
        let amm = deploy(Arc::new(SmacsAmm));

        let ts = TokenService::new(
            world::ts_keypair(seed),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let now = chain.pending_env().timestamp;
        let issue = |request: &TokenRequest| ts.issue(request, now).expect("permissive rules");
        let method_token = |contract, sender, sig: &str| {
            issue(&TokenRequest::method_token(contract, sender, sig))
        };
        let mut submit = |signed: SignedTransaction| {
            let receipt = chain.submit(signed).expect("set-up transaction");
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
        };

        let own = owner.keypair.address();
        let seed_call = SmacsAmm::seed_payload(1_000_000_000, 1_000_000_000);
        submit(owner.call(amm, &seed_call, method_token(amm, own, SmacsAmm::SEED_SIG)));
        // The owner holds a high score no player reaches, so `play` never
        // writes the shared high-score slot.
        submit(owner.call(
            game,
            &SessionGame::join_payload(),
            method_token(game, own, SessionGame::JOIN_SIG),
        ));
        let play_token = method_token(game, own, SessionGame::PLAY_SIG);
        for _ in 0..3 {
            submit(owner.call(game, &SessionGame::play_payload(100), play_token));
        }
        let mut players: Vec<(Account, Token)> = world::keypairs(seed, 2, PLAYERS)
            .into_iter()
            .map(|kp| {
                let mut account = Account::fund(&mut chain, kp);
                let addr = account.keypair.address();
                let join = method_token(game, addr, SessionGame::JOIN_SIG);
                let signed = account.call(game, &SessionGame::join_payload(), join);
                let receipt = chain.submit(signed).expect("join");
                assert!(receipt.status.is_success(), "{:?}", receipt.status);
                (account, method_token(game, addr, SessionGame::PLAY_SIG))
            })
            .collect();
        let mut traders: Vec<Account> = world::keypairs(seed, 3, TRADERS)
            .into_iter()
            .map(|kp| Account::fund(&mut chain, kp))
            .collect();
        chain.seal_block();

        // Tokens of the sequence are issued at the post-set-up chain time,
        // the time every replay starts from.
        let now = chain.pending_env().timestamp;
        let issue = |request: &TokenRequest| ts.issue(request, now).expect("permissive rules");
        for (account, token) in &mut players {
            let addr = account.keypair.address();
            *token = issue(&TokenRequest::method_token(game, addr, SessionGame::PLAY_SIG));
        }
        let play = SessionGame::play_payload(1);
        let claim = Airdrop::claim_payload();
        let mut mix = [0; 3];
        let sequence = (0..blocks)
            .map(|_| {
                let mut player_order: Vec<usize> = (0..PLAYERS).collect();
                rng.shuffle(&mut player_order);
                let mut next_player = player_order.into_iter();
                let mut next_trader = 0;
                (0..BLOCK_TXS)
                    .map(|_| {
                        let kind = rng.below(100);
                        let signed = if (70..90).contains(&kind) {
                            mix[1] += 1;
                            let mut claimer =
                                Account::fund(&mut chain, Keypair::from_seed(rng.next_u64()));
                            let request = TokenRequest::method_token(
                                drop,
                                claimer.keypair.address(),
                                Airdrop::CLAIM_SIG,
                            )
                            .one_time();
                            claimer.call(drop, &claim, issue(&request))
                        } else if kind >= 90 && next_trader < TRADERS {
                            mix[2] += 1;
                            let trader = &mut traders[next_trader];
                            next_trader += 1;
                            let swap = SmacsAmm::swap_payload(10 + rng.below(990), 1);
                            let request = TokenRequest::argument_token(
                                amm,
                                trader.keypair.address(),
                                SmacsAmm::SWAP_SIG,
                                Vec::new(),
                                swap.clone(),
                            );
                            trader.call(amm, &swap, issue(&request))
                        } else {
                            mix[0] += 1;
                            let index = next_player.next().expect("32 txs, 64 players");
                            let (player, token) = &mut players[index];
                            player.call(game, &play, *token)
                        };
                        (signed.tx.clone(), signed.signature)
                    })
                    .collect()
            })
            .collect();
        BlockWorld {
            base: chain,
            blocks: Arc::new(sequence),
            mix,
        }
    }
}

/// Execute one block of wire transactions into `chain`'s pending block and
/// seal it. Every transaction must be accepted with a `Success` receipt.
pub fn run_block(
    chain: &mut Chain,
    block: &[WireTx],
    mode: BlockMode<'_>,
    t: &mut Tracer,
) -> Result<(), String> {
    // Reassembled from parts per execution: a block off the wire carries no
    // recovered senders, and a replayed object would keep its cache.
    let txs: Vec<SignedTransaction> = block
        .iter()
        .map(|(tx, signature)| SignedTransaction::from_parts(tx.clone(), *signature))
        .collect();
    t.begin("chain.execute_block");
    let results = chain.execute_block_with(&txs, mode);
    t.end();
    for result in &results {
        match result {
            Ok(receipt) if receipt.status.is_success() => {}
            Ok(receipt) => return Err(format!("receipt {:?}", receipt.status)),
            Err(e) => return Err(format!("rejected: {e}")),
        }
    }
    t.begin("chain.seal_block");
    chain.seal_block();
    t.end();
    Ok(())
}

pub struct BlockLane {
    world: BlockWorld,
    pool: Arc<WorkerPool>,
    chain: Chain,
    /// Blocks executed on `chain` since it was forked.
    cursor: usize,
    first_error: Option<String>,
}

impl BlockLane {
    fn refork(&mut self) {
        self.chain = self.world.base.fork();
        self.cursor = 0;
    }
}

impl Lane for BlockLane {
    /// Every window replays the sequence from the start on a fresh fork.
    fn begin_window(&mut self) {
        self.refork();
    }

    fn op(&mut self, t: &mut Tracer) -> u32 {
        if self.cursor == self.world.blocks.len() {
            self.refork();
        }
        let block = &self.world.blocks[self.cursor];
        self.cursor += 1;
        match run_block(&mut self.chain, block, BlockMode::Parallel(&self.pool), t) {
            Ok(()) => BLOCK_TXS as u32,
            Err(e) => {
                self.first_error.get_or_insert(e);
                0
            }
        }
    }
}

pub struct BlockReplay {
    lanes: Vec<BlockLane>,
}

impl BlockReplay {
    /// The digest of a sequential replay of the first `blocks` blocks.
    fn sequential_digest(lane: &BlockLane, blocks: usize) -> Result<H256, String> {
        let mut chain = lane.world.base.fork();
        for block in &lane.world.blocks[..blocks] {
            run_block(&mut chain, block, BlockMode::Sequential, &mut Tracer::off())?;
        }
        Ok(chain.state().state_digest())
    }
}

impl Workload for BlockReplay {
    type Lane = BlockLane;
    const NAME: &'static str = "block_replay";
    /// Blocks per second.
    const OPEN_RATE: f64 = 12.0;
    const TRACE_OPS: u64 = 60;
    const WARMUP_OPS: u64 = 16;

    fn setup(seed: u64, _env: &Env) -> Self {
        let world = BlockWorld::build(seed, BLOCKS);
        let chain = world.base.fork();
        // One driver thread on the lane's CPU, which takes part in every
        // fan-out; the pool's workers run on the program's CPUs.
        let pool = {
            let _cpus = host::Affinity::program();
            WorkerPool::new(host::nproc(), 64)
        };
        BlockReplay {
            lanes: vec![BlockLane {
                world,
                pool,
                chain,
                cursor: 0,
                first_error: None,
            }],
        }
    }

    fn lanes(&mut self) -> &mut [BlockLane] {
        &mut self.lanes
    }

    fn audit(&mut self, _seed: u64, _sample: usize) -> Result<String, String> {
        let lane = &self.lanes[0];
        if let Some(e) = &lane.first_error {
            return Err(format!("a block transaction failed: {e}"));
        }
        let parallel = lane.chain.state().state_digest();
        let sequential = Self::sequential_digest(lane, lane.cursor)?;
        if parallel != sequential {
            return Err(format!(
                "state after {} parallel blocks differs from the sequential replay",
                lane.cursor
            ));
        }
        let [plays, claims, swaps] = lane.world.mix;
        Ok(format!(
            "every receipt Success; state digest after {} parallel blocks equals the sequential replay; sequence of {plays} method-token plays, {claims} one-time claims, {swaps} argument-token swaps",
            lane.cursor
        ))
    }

    fn shutdown(self) {
        for lane in self.lanes {
            lane.pool.shutdown();
        }
    }
}
