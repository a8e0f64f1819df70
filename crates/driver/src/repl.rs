//! The `smacs-repl` command language and session engine.
//!
//! Commands are tokenized with the Solidity-subset lexer from
//! `smacs-lang` (so string literals, hex numbers, parentheses, and `//`
//! comments come for free) and interpreted against an in-process
//! [`Chain`] + Token Service (a [`FrontEnd`], called through [`TsApi`]).
//! See the crate docs for the full command reference.

use crate::scenario::{self, OWNER_SECRET};
use smacs_chain::abi::{self, AbiValue};
use smacs_chain::{Chain, Receipt};
use smacs_contracts::{Airdrop, LendingPool, PriceOracle, SessionGame, SmacsAmm};
use smacs_core::client::ClientWallet;
use smacs_core::owner::{OwnerToolkit, ShieldParams};
use smacs_crypto::Keypair;
use smacs_lang::lexer::{tokenize, Token as Lex};
use smacs_primitives::{Address, H256, U256};
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{
    FailoverClient, FrontEnd, ListPolicy, ReplicaSet, ReplicaSetConfig, RuleBook, TokenService,
    TokenServiceConfig, TsApi,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed REPL command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `help`
    Help,
    /// `scenarios`
    Scenarios,
    /// `scenario <name>`
    Scenario(String),
    /// `deploy <kind>` — deploy a corpus contract behind a shield.
    Deploy(String),
    /// `wallet <name>` — create and fund a wallet.
    Wallet(String),
    /// `wallets`
    Wallets,
    /// `contracts`
    Contracts,
    /// `rules permissive` / `rules deny`
    Rules(bool),
    /// `allow <type> sender <wallet>`
    AllowSender(TokenType, String),
    /// `allow <type> method "<sig>" <wallet>`
    AllowMethod(TokenType, String, String),
    /// `allow <type> arg "<name>" "<value>"`
    AllowArg(TokenType, String, String),
    /// `deny <type> arg "<name>" "<value>"`
    DenyArg(TokenType, String, String),
    /// `mint <type> <wallet> <contract> ["<sig>"] [once]`
    Mint {
        /// Requested token type.
        ttype: TokenType,
        /// Requesting wallet name.
        wallet: String,
        /// Target contract name.
        contract: String,
        /// Method signature (method/argument tokens).
        method: Option<String>,
        /// Request the one-time property.
        once: bool,
    },
    /// `tokens`
    Tokens,
    /// `call <wallet> <contract> "<sig>" (<args>) [value <n>] [using <ids>]`
    Call {
        /// Calling wallet name.
        wallet: String,
        /// Target contract name.
        contract: String,
        /// Method signature.
        method: String,
        /// Call arguments.
        args: Vec<CallArg>,
        /// Wei sent with the call.
        value: u128,
        /// Pre-minted token ids to attach (auto-mints when empty).
        using: Vec<usize>,
    },
    /// `cluster <n>` — replace the single TS with a replicated set of
    /// `n` wire-quorum replicas behind a failover client.
    Cluster(usize),
    /// `kill <i>` — take replica `i` off the network.
    Kill(usize),
    /// `recover <i>` — bring replica `i` back (WAL replay + catch-up).
    Recover(usize),
    /// `quorum` — report the counter group's quorum state.
    Quorum,
    /// `receipt` — dump the last receipt including the trace.
    Receipt,
    /// `storage <contract> <slot>`
    Storage(String, u64),
    /// `advance <secs>` — advance chain + TS time.
    Advance(u64),
    /// `time`
    Time,
    /// `quit` / `exit`
    Quit,
}

/// One argument of a `call` command.
#[derive(Clone, Debug, PartialEq)]
pub enum CallArg {
    /// A uint literal.
    Num(u64),
    /// A wallet or contract name (resolved to its address).
    Name(String),
    /// A literal `0x…` address.
    Addr(Address),
}

fn ttype_of(word: &str) -> Result<TokenType, String> {
    match word {
        "super" => Ok(TokenType::Super),
        "method" => Ok(TokenType::Method),
        "argument" => Ok(TokenType::Argument),
        other => Err(format!(
            "unknown token type '{other}' (super|method|argument)"
        )),
    }
}

fn ident(tok: Option<&Lex>, what: &str) -> Result<String, String> {
    match tok {
        Some(Lex::Ident(s)) => Ok(s.clone()),
        other => Err(format!("expected {what}, got {other:?}")),
    }
}

fn string(tok: Option<&Lex>, what: &str) -> Result<String, String> {
    match tok {
        Some(Lex::Str(s)) => Ok(s.clone()),
        other => Err(format!("expected quoted {what}, got {other:?}")),
    }
}

fn number(tok: Option<&Lex>, what: &str) -> Result<u64, String> {
    match tok {
        Some(Lex::Number(s)) => parse_u64(s),
        other => Err(format!("expected {what}, got {other:?}")),
    }
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("bad number '{text}'"))
}

/// Parse one input line into a [`Command`]. Blank lines and comment-only
/// lines return `Ok(None)`.
pub fn parse(line: &str) -> Result<Option<Command>, String> {
    let toks = tokenize(line).map_err(|e| e.to_string())?;
    if toks.is_empty() {
        return Ok(None);
    }
    let head = match &toks[0] {
        Lex::Ident(s) => s.as_str(),
        other => return Err(format!("expected a command, got {other}")),
    };
    let rest = &toks[1..];
    let cmd = match head {
        "help" => Command::Help,
        "scenarios" => Command::Scenarios,
        "scenario" => Command::Scenario(ident(rest.first(), "scenario name")?),
        "deploy" => Command::Deploy(ident(rest.first(), "contract kind")?),
        "wallet" => Command::Wallet(ident(rest.first(), "wallet name")?),
        "wallets" => Command::Wallets,
        "contracts" => Command::Contracts,
        "rules" => match ident(rest.first(), "permissive|deny")?.as_str() {
            "permissive" => Command::Rules(true),
            "deny" => Command::Rules(false),
            other => return Err(format!("rules takes permissive|deny, got '{other}'")),
        },
        "allow" | "deny" => {
            let ttype = ttype_of(&ident(rest.first(), "token type")?)?;
            let shape = ident(rest.get(1), "sender|method|arg")?;
            match (head, shape.as_str()) {
                ("allow", "sender") => {
                    Command::AllowSender(ttype, ident(rest.get(2), "wallet name")?)
                }
                ("allow", "method") => Command::AllowMethod(
                    ttype,
                    string(rest.get(2), "method signature")?,
                    ident(rest.get(3), "wallet name")?,
                ),
                ("allow", "arg") => Command::AllowArg(
                    ttype,
                    string(rest.get(2), "argument name")?,
                    string(rest.get(3), "argument value")?,
                ),
                ("deny", "arg") => Command::DenyArg(
                    ttype,
                    string(rest.get(2), "argument name")?,
                    string(rest.get(3), "argument value")?,
                ),
                _ => return Err(format!("'{head} {shape}' is not a command")),
            }
        }
        "mint" => {
            let ttype = ttype_of(&ident(rest.first(), "token type")?)?;
            let wallet = ident(rest.get(1), "wallet name")?;
            let contract = ident(rest.get(2), "contract name")?;
            let mut method = None;
            let mut once = false;
            let mut i = 3;
            while i < rest.len() {
                match &rest[i] {
                    Lex::Str(s) => method = Some(s.clone()),
                    Lex::Ident(w) if w == "once" => once = true,
                    other => return Err(format!("unexpected '{other}' in mint")),
                }
                i += 1;
            }
            Command::Mint {
                ttype,
                wallet,
                contract,
                method,
                once,
            }
        }
        "tokens" => Command::Tokens,
        "call" => parse_call(rest)?,
        "cluster" => Command::Cluster(number(rest.first(), "replica count")? as usize),
        "kill" => Command::Kill(number(rest.first(), "replica id")? as usize),
        "recover" => Command::Recover(number(rest.first(), "replica id")? as usize),
        "quorum" => Command::Quorum,
        "receipt" => Command::Receipt,
        "storage" => Command::Storage(
            ident(rest.first(), "contract name")?,
            number(rest.get(1), "slot number")?,
        ),
        "advance" => Command::Advance(number(rest.first(), "seconds")?),
        "time" => Command::Time,
        "quit" | "exit" => Command::Quit,
        other => return Err(format!("unknown command '{other}' (try help)")),
    };
    Ok(Some(cmd))
}

fn parse_call(rest: &[Lex]) -> Result<Command, String> {
    let wallet = ident(rest.first(), "wallet name")?;
    let contract = ident(rest.get(1), "contract name")?;
    let method = string(rest.get(2), "method signature")?;
    let mut i = 3;
    let mut args = Vec::new();
    if rest.get(i) == Some(&Lex::LParen) {
        i += 1;
        while rest.get(i) != Some(&Lex::RParen) {
            match rest.get(i) {
                Some(Lex::Number(n)) => {
                    if let Some(addr) = Address::from_hex(n) {
                        args.push(CallArg::Addr(addr));
                    } else {
                        args.push(CallArg::Num(parse_u64(n)?));
                    }
                }
                Some(Lex::Ident(name)) => args.push(CallArg::Name(name.clone())),
                Some(Lex::Comma) => {}
                other => return Err(format!("bad call argument {other:?}")),
            }
            i += 1;
        }
        i += 1; // consume ')'
    }
    let mut value = 0u128;
    let mut using = Vec::new();
    while i < rest.len() {
        match &rest[i] {
            Lex::Ident(w) if w == "value" => {
                value = number(rest.get(i + 1), "wei value")? as u128;
                i += 2;
            }
            Lex::Ident(w) if w == "using" => {
                i += 1;
                while i < rest.len() {
                    match &rest[i] {
                        Lex::Number(n) => using.push(parse_u64(n)? as usize),
                        Lex::Comma => {}
                        other => return Err(format!("bad token id {other:?}")),
                    }
                    i += 1;
                }
            }
            other => return Err(format!("unexpected '{other}' in call")),
        }
    }
    Ok(Command::Call {
        wallet,
        contract,
        method,
        args,
        value,
        using,
    })
}

/// Metadata kept alongside each minted token.
struct Minted {
    token: Token,
    contract: Address,
    summary: String,
}

/// How the session reaches its Token Service: one in-process instance, or
/// a live replicated set (started by `cluster <n>`) behind a failover
/// client — same signing identity either way, so minted tokens verify
/// against the shields already on the session's chain.
enum Backend {
    Local(Box<FrontEnd>),
    Replicated {
        set: Box<ReplicaSet>,
        client: FailoverClient,
    },
}

impl Backend {
    /// The service's API: the front end in process, or the failover
    /// client over the set, which takes owner updates through any replica.
    fn api(&self) -> &dyn TsApi {
        match self {
            Backend::Local(api) => api.as_ref(),
            Backend::Replicated { client, .. } => client,
        }
    }

    fn advance_time(&self, secs: u64) {
        match self {
            Backend::Local(api) => api.advance_time(secs),
            Backend::Replicated { set, .. } => set.advance_time(secs),
        }
    }
}

/// The interactive session: an in-process chain, shields deployed by one
/// owner toolkit, and a Token Service called in process through its
/// [`FrontEnd`] (or a replica set, after `cluster <n>`).
pub struct Repl {
    chain: Chain,
    toolkit: OwnerToolkit,
    backend: Backend,
    rules: RuleBook,
    wallets: BTreeMap<String, ClientWallet>,
    contracts: BTreeMap<String, Address>,
    tokens: Vec<Minted>,
    last_receipt: Option<Receipt>,
    wallet_seed: u64,
}

const HELP: &str = "\
commands:
  scenarios | scenario <name>         list / load a corpus scenario
  deploy <amm|pool|oracle|game|airdrop>
  wallet <name> | wallets | contracts
  rules <permissive|deny>
  allow <type> sender <wallet>
  allow <type> method \"<sig>\" <wallet>
  allow <type> arg \"<name>\" \"<value>\"      (deny ... blacklists)
  mint <type> <wallet> <contract> [\"<sig>\"] [once]
  tokens
  call <wallet> <contract> \"<sig>\" (<args>) [value <n>] [using <ids>]
  cluster <n> | kill <i> | recover <i> | quorum
  receipt | storage <contract> <slot> | advance <secs> | time
  quit
token types: super | method | argument";

impl Default for Repl {
    fn default() -> Self {
        Repl::new(1)
    }
}

impl Repl {
    /// A fresh session. The TS starts with an empty (deny-all) rule book:
    /// nothing is issuable until `rules permissive` or `allow …`.
    pub fn new(seed: u64) -> Repl {
        let mut chain = Chain::default_chain();
        let owner = chain.funded_keypair(seed, 10u128.pow(24));
        let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(seed + 9_000));
        let rules = RuleBook::deny_all();
        let api = FrontEnd::new(
            TokenService::new(
                toolkit.ts_keypair().clone(),
                rules.clone(),
                TokenServiceConfig::default(),
            ),
            OWNER_SECRET,
            chain.pending_env().timestamp,
        );
        Repl {
            chain,
            toolkit,
            backend: Backend::Local(Box::new(api)),
            rules,
            wallets: BTreeMap::new(),
            contracts: BTreeMap::new(),
            tokens: Vec::new(),
            last_receipt: None,
            wallet_seed: seed + 50,
        }
    }

    /// Parse and run one line. `Ok(None)` means "quit".
    pub fn eval(&mut self, line: &str) -> Result<Option<String>, String> {
        match parse(line)? {
            None => Ok(Some(String::new())),
            Some(Command::Quit) => Ok(None),
            Some(cmd) => self.run(cmd).map(Some),
        }
    }

    fn wallet(&self, name: &str) -> Result<&ClientWallet, String> {
        self.wallets
            .get(name)
            .ok_or_else(|| format!("unknown wallet '{name}'"))
    }

    fn contract(&self, name: &str) -> Result<Address, String> {
        self.contracts
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown contract '{name}'"))
    }

    fn push_rules(&self) -> Result<(), String> {
        self.backend
            .api()
            .set_rules(OWNER_SECRET, self.rules.clone())
            .map_err(|e| format!("set_rules failed: {e:?}"))
    }

    /// Replace the backend, shutting a previous replica set down cleanly.
    fn install_backend(&mut self, backend: Backend) {
        if let Backend::Replicated { set, .. } = std::mem::replace(&mut self.backend, backend) {
            set.shutdown();
        }
    }

    fn replica_set(&mut self) -> Result<&mut ReplicaSet, String> {
        match &mut self.backend {
            Backend::Replicated { set, .. } => Ok(set.as_mut()),
            Backend::Local(_) => Err("no cluster running (start one with: cluster <n>)".into()),
        }
    }

    fn run(&mut self, cmd: Command) -> Result<String, String> {
        match cmd {
            Command::Help => Ok(HELP.into()),
            Command::Scenarios => Ok(scenario::SCENARIOS
                .iter()
                .map(|s| format!("{:8} {}", s.name, s.about))
                .collect::<Vec<_>>()
                .join("\n")),
            Command::Scenario(name) => self.load_scenario(&name),
            Command::Deploy(kind) => self.deploy(&kind),
            Command::Wallet(name) => {
                self.wallet_seed += 1;
                let w =
                    ClientWallet::new(self.chain.funded_keypair(self.wallet_seed, 10u128.pow(22)));
                let line = format!("wallet {name} = {}", w.address().to_hex());
                self.wallets.insert(name, w);
                Ok(line)
            }
            Command::Wallets => Ok(self
                .wallets
                .iter()
                .map(|(n, w)| format!("{n} = {}", w.address().to_hex()))
                .collect::<Vec<_>>()
                .join("\n")),
            Command::Contracts => Ok(self
                .contracts
                .iter()
                .map(|(n, a)| format!("{n} = {}", a.to_hex()))
                .collect::<Vec<_>>()
                .join("\n")),
            Command::Rules(permissive) => {
                self.rules = if permissive {
                    RuleBook::permissive()
                } else {
                    RuleBook::deny_all()
                };
                self.push_rules()?;
                Ok(format!(
                    "rules reset to {}",
                    if permissive { "permissive" } else { "deny-all" }
                ))
            }
            Command::AllowSender(ttype, wallet) => {
                let addr = self.wallet(&wallet)?.address().to_hex();
                let rules = self.rules.rules_mut(ttype);
                match rules.sender.get_or_insert_with(ListPolicy::deny_all) {
                    ListPolicy::Whitelist(set) => {
                        set.insert(addr.clone());
                    }
                    ListPolicy::Blacklist(_) => {
                        return Err("sender policy is a blacklist; use rules deny first".into())
                    }
                }
                self.push_rules()?;
                Ok(format!("allowed {ttype:?} sender {addr}"))
            }
            Command::AllowMethod(ttype, sig, wallet) => {
                let addr = self.wallet(&wallet)?.address().to_hex();
                self.rules
                    .rules_mut(ttype)
                    .method
                    .entry(sig.clone())
                    .or_insert_with(ListPolicy::deny_all)
                    .insert(addr.clone());
                self.push_rules()?;
                Ok(format!("allowed {ttype:?} {sig} for {addr}"))
            }
            Command::AllowArg(ttype, name, value) => {
                self.rules
                    .rules_mut(ttype)
                    .argument
                    .entry(name.clone())
                    .or_insert_with(ListPolicy::deny_all)
                    .insert(value.clone());
                self.push_rules()?;
                Ok(format!("allowed {ttype:?} arg {name}={value}"))
            }
            Command::DenyArg(ttype, name, value) => {
                self.rules
                    .rules_mut(ttype)
                    .argument
                    .entry(name.clone())
                    .or_insert_with(ListPolicy::allow_all)
                    .insert(value.clone());
                self.push_rules()?;
                Ok(format!("denied {ttype:?} arg {name}={value}"))
            }
            Command::Mint {
                ttype,
                wallet,
                contract,
                method,
                once,
            } => self.mint(ttype, &wallet, &contract, method, once),
            Command::Tokens => Ok(self
                .tokens
                .iter()
                .enumerate()
                .map(|(i, m)| format!("#{i} {}", m.summary))
                .collect::<Vec<_>>()
                .join("\n")),
            Command::Call {
                wallet,
                contract,
                method,
                args,
                value,
                using,
            } => self.call(&wallet, &contract, &method, &args, value, &using),
            Command::Cluster(n) => self.start_cluster(n),
            Command::Kill(id) => {
                let set = self.replica_set()?;
                if id >= set.len() {
                    return Err(format!("no replica {id} (cluster has {})", set.len()));
                }
                set.kill(id);
                let live = set.live_count();
                let total = set.len();
                Ok(format!("replica {id} killed ({live}/{total} live)"))
            }
            Command::Recover(id) => {
                let set = self.replica_set()?;
                if id >= set.len() {
                    return Err(format!("no replica {id} (cluster has {})", set.len()));
                }
                set.recover(id)
                    .map_err(|e| format!("recover failed: {e}"))?;
                let live = set.live_count();
                let total = set.len();
                Ok(format!(
                    "replica {id} recovered from WAL and caught up ({live}/{total} live)"
                ))
            }
            Command::Quorum => {
                let set = self.replica_set()?;
                let counter = set.counter();
                Ok(format!(
                    "counter quorum {}/{} (nodes answering: {}), committed {}, one-time issuance {}",
                    counter.quorum(),
                    counter.len(),
                    counter.live_count(),
                    counter.committed(),
                    if set.has_quorum() {
                        "available"
                    } else {
                        "FAIL-CLOSED"
                    }
                ))
            }
            Command::Receipt => self.dump_receipt(),
            Command::Storage(contract, slot) => {
                let addr = self.contract(&contract)?;
                let val = self
                    .chain
                    .state()
                    .storage_get_u256(addr, H256::from_u256(U256::from_u64(slot)));
                Ok(format!(
                    "storage[{slot}] = {}",
                    H256::from_u256(val).to_hex()
                ))
            }
            Command::Advance(secs) => {
                self.chain.advance_time(secs);
                self.backend.advance_time(secs);
                Ok(format!(
                    "time += {secs}s, now {}",
                    self.chain.pending_env().timestamp
                ))
            }
            Command::Time => Ok(format!("now {}", self.chain.pending_env().timestamp)),
            Command::Quit => unreachable!("handled in eval"),
        }
    }

    fn load_scenario(&mut self, name: &str) -> Result<String, String> {
        let world = scenario::build(name, 1)?;
        let api = FrontEnd::new(world.token_service(), OWNER_SECRET, world.now());
        self.chain = world.chain;
        self.toolkit = world.toolkit;
        self.install_backend(Backend::Local(Box::new(api)));
        self.rules = world.rules;
        self.contracts = world.contracts.into_iter().collect();
        self.wallets = world
            .wallets
            .into_iter()
            .enumerate()
            .map(|(i, w)| (format!("w{i}"), w))
            .collect();
        self.tokens.clear();
        self.last_receipt = None;
        let mut out = format!("scenario {name} loaded\ncontracts:");
        for (n, a) in &self.contracts {
            let _ = write!(out, " {n}={}", a.to_hex());
        }
        let _ = write!(out, "\nwallets: w0..w{}", self.wallets.len() - 1);
        Ok(out)
    }

    /// `cluster <n>`: stand up a wire-quorum [`ReplicaSet`] sharing the
    /// session's TS signing key and current rule book, and route all
    /// subsequent issuance through a [`FailoverClient`] over real TCP.
    /// Tokens it mints verify against the shields already on the chain.
    fn start_cluster(&mut self, n: usize) -> Result<String, String> {
        if n == 0 {
            return Err("cluster needs at least one replica".into());
        }
        let set = ReplicaSet::start(
            self.toolkit.ts_keypair().clone(),
            self.rules.clone(),
            ReplicaSetConfig {
                replicas: n,
                owner_secret: OWNER_SECRET.into(),
                now: self.chain.pending_env().timestamp,
                ..ReplicaSetConfig::default()
            },
        )
        .map_err(|e| format!("cluster start failed: {e}"))?;
        let client = FailoverClient::new(set.addrs());
        let urls = set.urls().join(" ");
        self.install_backend(Backend::Replicated {
            set: Box::new(set),
            client,
        });
        Ok(format!(
            "cluster of {n} replicas up (wire counter quorum): {urls}"
        ))
    }

    fn deploy(&mut self, kind: &str) -> Result<String, String> {
        let shield = ShieldParams {
            token_lifetime_secs: 3_600,
            max_tx_per_second: 0.35,
            disable_one_time: false,
        };
        let contract: Arc<dyn smacs_chain::Contract> = match kind {
            "amm" => Arc::new(SmacsAmm),
            "pool" => {
                let amm = self
                    .contract("amm")
                    .map_err(|_| "deploy amm first (the pool routes through it)".to_string())?;
                Arc::new(LendingPool::routing_to(amm))
            }
            "oracle" => Arc::new(PriceOracle),
            "game" => Arc::new(SessionGame),
            "airdrop" => Arc::new(Airdrop::granting(100)),
            other => return Err(format!("unknown contract kind '{other}'")),
        };
        let (deployed, _) = self
            .toolkit
            .deploy_shielded(&mut self.chain, contract, &shield)
            .map_err(|e| format!("deploy failed: {e}"))?;
        self.contracts.insert(kind.to_string(), deployed.address);
        Ok(format!(
            "deployed {kind} at {} (shielded)",
            deployed.address.to_hex()
        ))
    }

    fn mint(
        &mut self,
        ttype: TokenType,
        wallet: &str,
        contract: &str,
        method: Option<String>,
        once: bool,
    ) -> Result<String, String> {
        let sender = self.wallet(wallet)?.address();
        let target = self.contract(contract)?;
        let mut req = match ttype {
            TokenType::Super => TokenRequest::super_token(target, sender),
            TokenType::Method => TokenRequest::method_token(
                target,
                sender,
                method.ok_or("method tokens need a \"<sig>\"")?,
            ),
            TokenType::Argument => {
                return Err("argument tokens bind calldata; use call (auto-mints)".into())
            }
        };
        if once {
            req = req.one_time();
        }
        let token = self
            .backend
            .api()
            .issue(&req)
            .map_err(|e| format!("issue denied: {e:?}"))?;
        let id = self.tokens.len();
        let summary = format!(
            "{ttype:?} for {wallet} @ {contract} expire={} index={}",
            token.expire, token.index
        );
        self.tokens.push(Minted {
            token,
            contract: target,
            summary: summary.clone(),
        });
        Ok(format!("token #{id} {summary}"))
    }

    fn call(
        &mut self,
        wallet: &str,
        contract: &str,
        method: &str,
        args: &[CallArg],
        value: u128,
        using: &[usize],
    ) -> Result<String, String> {
        let target = self.contract(contract)?;
        let mut abi_args = Vec::new();
        for arg in args {
            abi_args.push(match arg {
                CallArg::Num(n) => AbiValue::Uint(U256::from_u64(*n)),
                CallArg::Name(name) => AbiValue::Address(
                    self.wallets
                        .get(name)
                        .map(|w| w.address())
                        .or_else(|| self.contracts.get(name).copied())
                        .ok_or_else(|| format!("unknown name '{name}'"))?,
                ),
                CallArg::Addr(addr) => AbiValue::Address(*addr),
            });
        }
        let payload = abi::encode_call(method, &abi_args);

        let receipt = if using.is_empty() {
            // Auto-mint an argument token binding this exact calldata; the
            // TS derives the arguments it judges from that calldata.
            let w = self
                .wallets
                .get(wallet)
                .ok_or_else(|| format!("unknown wallet '{wallet}'"))?;
            let req = TokenRequest::argument_token(
                target,
                w.address(),
                method,
                Vec::new(),
                payload.clone(),
            );
            let token = self
                .backend
                .api()
                .issue(&req)
                .map_err(|e| format!("issue denied: {e:?}"))?;
            w.call_with_token(&mut self.chain, target, value, &payload, token)
                .map_err(|e| format!("submit failed: {e:?}"))?
        } else {
            let mut pairs = Vec::new();
            for id in using {
                let m = self
                    .tokens
                    .get(*id)
                    .ok_or_else(|| format!("no token #{id}"))?;
                pairs.push((m.contract, m.token));
            }
            let w = self
                .wallets
                .get(wallet)
                .ok_or_else(|| format!("unknown wallet '{wallet}'"))?;
            w.call_with_tokens(&mut self.chain, target, value, &payload, &pairs)
                .map_err(|e| format!("submit failed: {e:?}"))?
        };

        let line = match receipt.revert_reason() {
            None if receipt.status.is_success() => {
                let ret = if receipt.return_data.is_empty() {
                    String::new()
                } else {
                    format!(" return={}", receipt.return_data.to_hex())
                };
                format!("ok gas={}{ret}", receipt.gas_used)
            }
            Some(reason) => format!("revert \"{reason}\" gas={}", receipt.gas_used),
            None => format!("failed {:?} gas={}", receipt.status, receipt.gas_used),
        };
        self.last_receipt = Some(receipt);
        Ok(line)
    }

    fn dump_receipt(&self) -> Result<String, String> {
        let r = self.last_receipt.as_ref().ok_or("no receipt yet")?;
        let mut out = format!(
            "tx={} block={} status={:?} gas={}\n",
            r.tx_hash.to_hex(),
            r.block_number,
            r.status,
            r.gas_used
        );
        for log in &r.logs {
            let _ = writeln!(
                out,
                "log {} topics={} data={}",
                log.address.to_hex(),
                log.topics.len(),
                log.data.to_hex()
            );
        }
        for frame in r.trace.frames() {
            let _ = writeln!(
                out,
                "{}{} -> {} {:?}",
                "  ".repeat(frame.depth),
                frame.caller.to_hex(),
                frame.callee.to_hex(),
                frame.status
            );
        }
        out.truncate(out.trim_end().len());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse("help").unwrap(), Some(Command::Help));
        assert_eq!(parse("tokens").unwrap(), Some(Command::Tokens));
        assert_eq!(parse("   // just a comment").unwrap(), None);
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(
            parse("scenario oracle").unwrap(),
            Some(Command::Scenario("oracle".into()))
        );
        assert_eq!(
            parse("deploy airdrop").unwrap(),
            Some(Command::Deploy("airdrop".into()))
        );
        assert_eq!(
            parse("allow method sender alice").unwrap(),
            Some(Command::AllowSender(TokenType::Method, "alice".into()))
        );
        assert_eq!(
            parse("allow method method \"postPrice(uint256)\" alice").unwrap(),
            Some(Command::AllowMethod(
                TokenType::Method,
                "postPrice(uint256)".into(),
                "alice".into()
            ))
        );
        assert_eq!(
            parse("deny argument arg \"arg1\" \"0\"").unwrap(),
            Some(Command::DenyArg(
                TokenType::Argument,
                "arg1".into(),
                "0".into()
            ))
        );
        assert_eq!(
            parse("mint method alice oracle \"postPrice(uint256)\" once").unwrap(),
            Some(Command::Mint {
                ttype: TokenType::Method,
                wallet: "alice".into(),
                contract: "oracle".into(),
                method: Some("postPrice(uint256)".into()),
                once: true,
            })
        );
        assert_eq!(
            parse("call alice amm \"swap(uint256,uint256)\" (100, 90) value 5 using 0, 1").unwrap(),
            Some(Command::Call {
                wallet: "alice".into(),
                contract: "amm".into(),
                method: "swap(uint256,uint256)".into(),
                args: vec![CallArg::Num(100), CallArg::Num(90)],
                value: 5,
                using: vec![0, 1],
            })
        );
        assert_eq!(
            parse("storage oracle 0x2").unwrap(),
            Some(Command::Storage("oracle".into(), 2))
        );
        assert_eq!(parse("advance 7200").unwrap(), Some(Command::Advance(7200)));
        assert_eq!(parse("cluster 3").unwrap(), Some(Command::Cluster(3)));
        assert_eq!(parse("kill 0").unwrap(), Some(Command::Kill(0)));
        assert_eq!(parse("recover 2").unwrap(), Some(Command::Recover(2)));
        assert_eq!(parse("quorum").unwrap(), Some(Command::Quorum));
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("mint wizard alice oracle").is_err());
        assert!(parse("allow method frobnicate alice").is_err());
        assert!(parse("fire the missiles").is_err());
        assert!(parse("call alice").is_err());
        assert!(parse("storage oracle notanumber").is_err());
    }

    /// The ISSUE acceptance path: deploy, set rules, mint via the TS,
    /// execute an authorized call, and reject an unauthorized one — all
    /// through the command surface.
    #[test]
    fn scripted_session_covers_the_acceptance_path() {
        let mut repl = Repl::new(42);
        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();

        assert!(run("deploy oracle").starts_with("deployed oracle at 0x"));
        run("wallet alice");
        run("wallet mallory");
        // Deny-all TS: nothing issuable yet.
        let err = repl.eval("mint method alice oracle \"postPrice(uint256)\"");
        assert!(err.is_err(), "mint should be denied before rules are set");

        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();
        run("allow method sender alice");
        run("allow method method \"postPrice(uint256)\" alice");
        let minted = run("mint method alice oracle \"postPrice(uint256)\"");
        assert!(minted.starts_with("token #0"), "{minted}");

        let ok = run("call alice oracle \"postPrice(uint256)\" (42000) using 0");
        assert!(ok.starts_with("ok gas="), "{ok}");

        // Mallory is not whitelisted: issuance is refused.
        let denied = repl.eval("mint method mallory oracle \"postPrice(uint256)\"");
        assert!(denied.is_err(), "mallory must not get a token");

        // A stolen token does not help: the shield binds it to alice.
        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();
        let reject = run("call mallory oracle \"postPrice(uint256)\" (1) using 0");
        assert!(reject.starts_with("revert"), "{reject}");
        assert!(run("receipt").contains("status="));
    }

    /// The replicated backend end to end: `cluster 3` swaps issuance onto
    /// a live wire-quorum set, a kill/recover round is transparent to the
    /// session, tokens minted over the wire still clear the on-chain
    /// shield, and `quorum` reports the counter group's state.
    #[test]
    fn cluster_kill_recover_round_keeps_the_session_working() {
        let mut repl = Repl::new(11);
        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();
        assert!(run("deploy oracle").starts_with("deployed"));
        run("wallet alice");
        run("allow method sender alice");
        run("allow method method \"postPrice(uint256)\" alice");

        let up = run("cluster 3");
        assert!(up.starts_with("cluster of 3 replicas up"), "{up}");
        assert!(run("quorum").contains("one-time issuance available"));

        // Mint through the failover client, over real TCP.
        assert!(run("mint method alice oracle \"postPrice(uint256)\" once").starts_with("token #0"));
        run("kill 0");
        // A dead minority is transparent: issuance and quorum hold.
        assert!(run("mint method alice oracle \"postPrice(uint256)\"").starts_with("token #1"));
        let q = run("quorum");
        assert!(q.contains("nodes answering: 2"), "{q}");
        let back = run("recover 0");
        assert!(back.contains("recovered from WAL"), "{back}");
        assert!(run("quorum").contains("nodes answering: 3"));

        // Wire-minted tokens clear the on-chain shield (same identity).
        let ok = run("call alice oracle \"postPrice(uint256)\" (42000) using 1");
        assert!(ok.starts_with("ok gas="), "{ok}");

        // Rule pushes go over the wire through the failover client, and
        // the one book they replace binds every replica.
        run("rules deny");
        let denied = repl.eval("mint method alice oracle \"postPrice(uint256)\"");
        assert!(denied.is_err(), "deny-all must bind the whole cluster");

        // Losing the majority fails one-time issuance closed.
        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();
        run("rules permissive");
        run("kill 1");
        run("kill 2");
        assert!(run("quorum").contains("FAIL-CLOSED"));
        let lost = repl.eval("mint super alice oracle once");
        assert!(lost.is_err(), "one-time issuance must fail closed");
    }

    #[test]
    fn scenario_load_and_session_expiry() {
        let mut repl = Repl::new(7);
        let mut run = |line: &str| repl.eval(line).unwrap().unwrap();
        let loaded = run("scenario game");
        assert!(loaded.contains("scenario game loaded"), "{loaded}");
        // Join (argument token auto-minted), then play inside the session.
        assert!(run("call w0 game \"join()\" ()").starts_with("ok"));
        run("mint method w0 game \"play(uint256)\"");
        assert!(run("call w0 game \"play(uint256)\" (30) using 0").starts_with("ok"));
        // After the 120 s session window the same token is expired.
        run("advance 7200");
        let expired = run("call w0 game \"play(uint256)\" (30) using 0");
        assert!(expired.starts_with("revert"), "{expired}");
    }
}
