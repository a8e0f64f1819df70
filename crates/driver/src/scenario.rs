//! The scenario registry: named, reproducible worlds over the contract
//! corpus in `smacs-contracts`, shared by the REPL (`scenario <name>`) and
//! the attack suite.
//!
//! Each scenario deploys its contracts behind shields, funds a set of
//! client wallets, builds the Access Control Rules the Token Service
//! should enforce, and yields a list of *issuance templates*
//! ([`TokenRequest`]s). The template senders/contracts match the rules,
//! so every template is issuable — denied paths are exercised by the REPL
//! and the attack suite, not the templates.

use smacs_chain::Chain;
use smacs_contracts::{Airdrop, LendingPool, PriceOracle, SessionGame, SmacsAmm};
use smacs_core::client::ClientWallet;
use smacs_core::owner::{OwnerToolkit, ShieldParams};
use smacs_crypto::Keypair;
use smacs_primitives::Address;
use smacs_token::{ArgBinding, TokenRequest, TokenType};
use smacs_ts::{ListPolicy, RuleBook, TokenService, TokenServiceConfig};
use std::sync::Arc;

/// Bearer secret the driver uses for `set_rules` against its own TS.
pub const OWNER_SECRET: &str = "driver-owner";

/// A registry entry.
pub struct ScenarioSpec {
    /// Scenario name (the `scenario <name>` argument).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
}

/// Every scenario the driver knows.
pub const SCENARIOS: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "oracle",
        about: "PriceOracle: postPrice gated by a method-token operator whitelist",
    },
    ScenarioSpec {
        name: "amm",
        about: "SmacsAmm + LendingPool: argument-token price bounds, cross-contract composition",
    },
    ScenarioSpec {
        name: "game",
        about: "SessionGame: short-lifetime method tokens as sessions",
    },
    ScenarioSpec {
        name: "airdrop",
        about: "Airdrop: one-time claim tokens at scale",
    },
];

/// A fully-built scenario world.
pub struct ScenarioWorld {
    /// The chain with all scenario contracts deployed (shielded).
    pub chain: Chain,
    /// Owner + TS keys that deployed the shields.
    pub toolkit: OwnerToolkit,
    /// Deployed shielded contracts, `(name, address)` in deploy order.
    pub contracts: Vec<(String, Address)>,
    /// Funded client wallets (the REPL names them `w0..wN`).
    pub wallets: Vec<ClientWallet>,
    /// The ACRs this scenario's TS should enforce.
    pub rules: RuleBook,
    /// TS config (the game scenario shortens token lifetime).
    pub ts_config: TokenServiceConfig,
    /// Issuance templates (all permitted by `rules`).
    pub requests: Vec<TokenRequest>,
}

impl ScenarioWorld {
    /// A `TokenService` enforcing this scenario's rules, signing with the
    /// toolkit's TS key.
    pub fn token_service(&self) -> TokenService {
        TokenService::new(
            self.toolkit.ts_keypair().clone(),
            self.rules.clone(),
            self.ts_config.clone(),
        )
    }

    /// The pending block timestamp (what the TS clock should start at).
    pub fn now(&self) -> u64 {
        self.chain.pending_env().timestamp
    }

    /// Address of a deployed contract by name.
    pub fn contract(&self, name: &str) -> Option<Address> {
        self.contracts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| *a)
    }
}

fn small_shield() -> ShieldParams {
    ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    }
}

fn base(seed: u64) -> (Chain, OwnerToolkit) {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(seed, 10u128.pow(24));
    let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(seed + 9_000));
    (chain, toolkit)
}

fn wallets(chain: &mut Chain, seed: u64, n: usize) -> Vec<ClientWallet> {
    (0..n)
        .map(|i| ClientWallet::new(chain.funded_keypair(seed + 100 + i as u64, 10u128.pow(22))))
        .collect()
}

/// Build a scenario world by name. `seed` varies keys and addresses
/// deterministically; equal seeds give identical worlds.
pub fn build(name: &str, seed: u64) -> Result<ScenarioWorld, String> {
    match name {
        "oracle" => Ok(build_oracle(seed)),
        "amm" => Ok(build_amm(seed)),
        "game" => Ok(build_game(seed)),
        "airdrop" => Ok(build_airdrop(seed)),
        other => Err(format!(
            "unknown scenario '{other}' (try: {})",
            SCENARIOS
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Oracle-update authorization: only the first 4 wallets (the operators)
/// may obtain `postPrice` method tokens; everyone may read.
fn build_oracle(seed: u64) -> ScenarioWorld {
    let (mut chain, toolkit) = base(seed);
    let (oracle, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(PriceOracle), &small_shield())
        .unwrap();
    let ws = wallets(&mut chain, seed, 6);

    let mut rules = RuleBook::deny_all();
    let method_rules = rules.rules_mut(TokenType::Method);
    method_rules.sender = Some(ListPolicy::allow_all());
    let mut operators = ListPolicy::deny_all();
    for w in &ws[..4] {
        operators.insert(w.address().to_hex());
    }
    method_rules
        .method
        .insert(PriceOracle::POST_SIG.into(), operators);

    let requests = ws[..4]
        .iter()
        .map(|w| TokenRequest::method_token(oracle.address, w.address(), PriceOracle::POST_SIG))
        .collect();

    ScenarioWorld {
        chain,
        toolkit,
        contracts: vec![("oracle".into(), oracle.address)],
        wallets: ws,
        rules,
        ts_config: TokenServiceConfig::default(),
        requests,
    }
}

/// DeFi composition: a seeded AMM plus a lending pool routing through it.
/// Argument tokens carry `arg0`/`arg1` bindings (amountIn/minOut); the
/// rules blacklist `arg1 = "0"` — an unbounded-slippage swap is never
/// authorized, per-value, with no contract change (§IV-E). Argument
/// policies are keyed `arg{i}` by parameter position and judged on the
/// swap calldata the token binds, so no declared binding gets past them.
fn build_amm(seed: u64) -> ScenarioWorld {
    let (mut chain, toolkit) = base(seed);
    let (amm, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(SmacsAmm), &small_shield())
        .unwrap();
    let (pool, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(LendingPool::routing_to(amm.address)),
            &small_shield(),
        )
        .unwrap();
    let ws = wallets(&mut chain, seed, 8);

    let mut rules = RuleBook::deny_all();
    rules.rules_mut(TokenType::Method).sender = Some(ListPolicy::allow_all());
    let arg_rules = rules.rules_mut(TokenType::Argument);
    arg_rules.sender = Some(ListPolicy::allow_all());
    let mut min_out = ListPolicy::allow_all();
    min_out.insert("0");
    arg_rules.argument.insert("arg1".into(), min_out);

    // Seed the pool through the shield with a one-off method token.
    let now = chain.pending_env().timestamp;
    let seeder = TokenService::new(
        toolkit.ts_keypair().clone(),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    let owner_wallet = ClientWallet::new(toolkit.owner().clone());
    let req = TokenRequest::method_token(amm.address, owner_wallet.address(), SmacsAmm::SEED_SIG);
    let token = seeder.issue(&req, now).unwrap();
    let receipt = owner_wallet
        .call_with_token(
            &mut chain,
            amm.address,
            0,
            &SmacsAmm::seed_payload(1_000_000, 1_000_000),
            token,
        )
        .unwrap();
    assert!(receipt.status.is_success(), "AMM seeding failed");

    // Issuance templates: argument-token swaps with varied sizes, all with
    // a non-zero minOut so they pass the blacklist.
    let requests = ws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let amount_in = 100 + 10 * i as u64;
            let min_out = 1 + i as u64;
            TokenRequest::argument_token(
                amm.address,
                w.address(),
                SmacsAmm::SWAP_SIG,
                vec![
                    ArgBinding {
                        name: "arg0".into(),
                        value: amount_in.to_string(),
                    },
                    ArgBinding {
                        name: "arg1".into(),
                        value: min_out.to_string(),
                    },
                ],
                SmacsAmm::swap_payload(amount_in, min_out),
            )
        })
        .collect();

    ScenarioWorld {
        chain,
        toolkit,
        contracts: vec![("amm".into(), amm.address), ("pool".into(), pool.address)],
        wallets: ws,
        rules,
        ts_config: TokenServiceConfig::default(),
        requests,
    }
}

/// Session-token game: the TS issues 120-second `play` method tokens —
/// a session — so a player re-authenticates by re-minting, never on
/// chain.
fn build_game(seed: u64) -> ScenarioWorld {
    let (mut chain, toolkit) = base(seed);
    let (game, _) = toolkit
        .deploy_shielded(&mut chain, Arc::new(SessionGame), &small_shield())
        .unwrap();
    let ws = wallets(&mut chain, seed, 8);

    let mut rules = RuleBook::deny_all();
    let method_rules = rules.rules_mut(TokenType::Method);
    method_rules.sender = Some(ListPolicy::allow_all());
    let mut players = ListPolicy::deny_all();
    for w in &ws {
        players.insert(w.address().to_hex());
    }
    method_rules
        .method
        .insert(SessionGame::PLAY_SIG.into(), players);
    // Joining uses auto-minted argument tokens (the REPL's default).
    rules.rules_mut(TokenType::Argument).sender = Some(ListPolicy::allow_all());

    let requests = ws
        .iter()
        .map(|w| TokenRequest::method_token(game.address, w.address(), SessionGame::PLAY_SIG))
        .collect();

    ScenarioWorld {
        chain,
        toolkit,
        contracts: vec![("game".into(), game.address)],
        wallets: ws,
        rules,
        ts_config: TokenServiceConfig {
            token_lifetime_secs: 120,
        },
        requests,
    }
}

/// Airdrop: every issuance template is a one-time claim token, so driving
/// this scenario at rate exercises the one-time counter (and, under a
/// `ReplicaSet`, the majority-quorum `CounterCluster`) on every event.
fn build_airdrop(seed: u64) -> ScenarioWorld {
    let (mut chain, toolkit) = base(seed);
    let (drop, _) = toolkit
        .deploy_shielded(
            &mut chain,
            Arc::new(Airdrop::granting(100)),
            &small_shield(),
        )
        .unwrap();
    let ws = wallets(&mut chain, seed, 16);

    let mut rules = RuleBook::deny_all();
    rules.rules_mut(TokenType::Method).sender = Some(ListPolicy::allow_all());

    let requests = ws
        .iter()
        .map(|w| {
            TokenRequest::method_token(drop.address, w.address(), Airdrop::CLAIM_SIG).one_time()
        })
        .collect();

    ScenarioWorld {
        chain,
        toolkit,
        contracts: vec![("airdrop".into(), drop.address)],
        wallets: ws,
        rules,
        ts_config: TokenServiceConfig::default(),
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_ts::TsApi;

    #[test]
    fn every_scenario_builds_and_its_templates_issue() {
        for spec in SCENARIOS {
            let world = build(spec.name, 7).unwrap();
            assert!(!world.requests.is_empty(), "{}: no templates", spec.name);
            let api = smacs_ts::FrontEnd::new(world.token_service(), OWNER_SECRET, world.now());
            for req in &world.requests {
                api.issue(req)
                    .unwrap_or_else(|e| panic!("{}: template rejected: {e:?}", spec.name));
            }
        }
    }

    #[test]
    fn amm_rules_deny_unbounded_slippage() {
        let world = build("amm", 3).unwrap();
        let amm = world.contract("amm").unwrap();
        let sender = world.wallets[0].address();
        let bad = TokenRequest::argument_token(
            amm,
            sender,
            SmacsAmm::SWAP_SIG,
            vec![
                ArgBinding {
                    name: "arg0".into(),
                    value: "100".into(),
                },
                ArgBinding {
                    name: "arg1".into(),
                    value: "0".into(),
                },
            ],
            SmacsAmm::swap_payload(100, 0),
        );
        assert!(world.rules.check(&bad).is_err());
    }

    #[test]
    fn oracle_rules_reject_non_operators() {
        let world = build("oracle", 5).unwrap();
        let oracle = world.contract("oracle").unwrap();
        let outsider = world.wallets[5].address();
        let req = TokenRequest::method_token(oracle, outsider, PriceOracle::POST_SIG);
        assert!(world.rules.check(&req).is_err());
    }
}
