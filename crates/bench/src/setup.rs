//! Shared experiment scaffolding: chains, shielded deployments, token
//! services, and issuance shortcuts.

use smacs_chain::Chain;
use smacs_contracts::{BenchTarget, ChainLink};
use smacs_core::client::ClientWallet;
use smacs_core::owner::{OwnerToolkit, ShieldParams};
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};

/// A ready-to-measure world: chain, owner toolkit, TS API client, one
/// shielded [`BenchTarget`], and a funded client.
pub struct World {
    /// The simulated chain.
    pub chain: Chain,
    /// Owner + TS keys.
    pub toolkit: OwnerToolkit,
    /// The Token Service behind the [`TsApi`] surface (permissive rules
    /// unless reconfigured via `api.service()`).
    pub api: FrontEnd,
    /// Address of the shielded benchmark target.
    pub target: Address,
    /// A funded client wallet.
    pub client: ClientWallet,
}

/// Shield parameters used across the gas experiments: 1-hour tokens at the
/// 0.35 tx/s rate (small bitmap so deployment fits default limits; Table IV
/// sweeps the larger sizes explicitly).
pub fn gas_experiment_params() -> ShieldParams {
    ShieldParams {
        token_lifetime_secs: 3_600,
        max_tx_per_second: 0.35,
        disable_one_time: false,
    }
}

impl World {
    /// Build the standard single-target world.
    pub fn new() -> World {
        let mut chain = Chain::default_chain();
        let owner = chain.funded_keypair(1, 10u128.pow(24));
        let client_kp = chain.funded_keypair(2, 10u128.pow(24));
        let toolkit = OwnerToolkit::new(owner, smacs_crypto::Keypair::from_seed(9_000));
        let (target, _) = toolkit
            .deploy_shielded(
                &mut chain,
                std::sync::Arc::new(BenchTarget),
                &gas_experiment_params(),
            )
            .expect("deployment");
        let ts = TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let api = FrontEnd::new(ts, "bench-owner", chain.pending_env().timestamp);
        World {
            chain,
            toolkit,
            api,
            target: target.address,
            client: ClientWallet::new(client_kp),
        }
    }

    /// Build a world whose target is a shielded call chain of `depth`
    /// links; returns the link addresses, entry first.
    pub fn with_chain_depth(depth: usize) -> (World, Vec<Address>) {
        let mut world = World::new();
        let params = gas_experiment_params();
        let mut next: Option<Address> = None;
        let mut links = Vec::new();
        for _ in 0..depth {
            let logic = match next {
                Some(addr) => ChainLink::forwarding_to(addr),
                None => ChainLink::terminal(),
            };
            let (deployed, _) = world
                .toolkit
                .deploy_shielded(&mut world.chain, std::sync::Arc::new(logic), &params)
                .expect("deployment");
            next = Some(deployed.address);
            links.push(deployed.address);
        }
        links.reverse();
        (world, links)
    }

    /// The TS-local time (aligned to the chain's pending block).
    pub fn now(&self) -> u64 {
        self.chain.pending_env().timestamp
    }

    /// Issue a token of `ttype` for `contract` bound to `payload`.
    pub fn issue(
        &self,
        ttype: TokenType,
        contract: Address,
        method: &str,
        payload: &[u8],
        one_time: bool,
    ) -> Token {
        let mut req = match ttype {
            TokenType::Super => TokenRequest::super_token(contract, self.client.address()),
            TokenType::Method => {
                TokenRequest::method_token(contract, self.client.address(), method)
            }
            TokenType::Argument => TokenRequest::argument_token(
                contract,
                self.client.address(),
                method,
                vec![],
                payload.to_vec(),
            ),
        };
        if one_time {
            req = req.one_time();
        }
        self.api.set_time(self.now());
        self.api.issue(&req).expect("issuance")
    }
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}
