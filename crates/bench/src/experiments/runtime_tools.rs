//! §VI-B(b) — TS throughput with runtime-verification tools.
//!
//! "For Hydra, we implement a simple contract in three different
//! programming languages and deploy it on a Hydra-supported testnet. For
//! ECFChecker, we deploy the vulnerable contract presented in §V. We send
//! 100 transactions each and measure the average time needed by a tool to
//! process a transaction." Paper: Hydra ≈ 120 ms/request (~8 req/s),
//! ECFChecker ≈ 10 ms/request (~100 req/s).

use smacs_chain::abi;
use smacs_chain::Chain;
use smacs_contracts::{AdderHead, Bank, HydraStyle};
use smacs_crypto::Keypair;
use smacs_token::TokenRequest;
use smacs_ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig, TsApi};
use smacs_verifiers::{EcfTool, HydraTool};
use std::sync::Arc;
use std::time::Instant;

/// One tool's measurement.
#[derive(Clone, Debug)]
pub struct ToolResult {
    /// Tool name.
    pub tool: &'static str,
    /// Requests processed.
    pub requests: usize,
    /// Simulations the tool ran per request.
    pub simulations_per_request: f64,
    /// Average milliseconds per request.
    pub avg_ms: f64,
    /// Requests per second.
    pub throughput: f64,
    /// Paper's reported ms per request.
    pub paper_ms: f64,
}

/// Measure the Hydra-backed TS over `n` argument-token requests.
pub fn measure_hydra(n: usize) -> ToolResult {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let mut heads = Vec::new();
    for style in [
        HydraStyle::Direct,
        HydraStyle::ShiftAdd,
        HydraStyle::TwosComplement,
    ] {
        let (d, _) = chain
            .deploy(&owner, Arc::new(AdderHead::new(style)))
            .expect("deploy head");
        heads.push(d.address);
    }
    let protected = heads[0];
    let tool = Arc::new(HydraTool::new(heads));
    let ts = TokenService::new(
        Keypair::from_seed(9_000),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    )
    .with_testnet(chain.fork())
    .with_tool(tool.clone());
    let ts = FrontEnd::new(ts, "tools-owner", 0);

    let client = owner.address();
    let start = Instant::now();
    for k in 0..n {
        let req = TokenRequest::argument_token(
            protected,
            client,
            AdderHead::ADD_SIG,
            vec![],
            AdderHead::add_payload(k as u64),
        );
        ts.set_time(k as u64);
        ts.issue(&req).expect("hydra issuance");
    }
    let elapsed = start.elapsed().as_secs_f64();
    ToolResult {
        tool: "Hydra (3 heads)",
        requests: n,
        simulations_per_request: tool.simulations() as f64 / n as f64,
        avg_ms: elapsed * 1e3 / n as f64,
        throughput: n as f64 / elapsed,
        paper_ms: 120.0,
    }
}

/// Measure the ECFChecker-backed TS over `n` argument-token requests
/// against the deployed vulnerable Bank.
pub fn measure_ecf(n: usize) -> ToolResult {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let user = chain.funded_keypair(2, 10u128.pow(24));
    let (bank, _) = chain.deploy(&owner, Arc::new(Bank)).expect("deploy bank");
    chain
        .call_contract(
            &user,
            bank.address,
            1_000,
            abi::encode_call("addBalance()", &[]),
        )
        .expect("fund balance");
    let tool = Arc::new(EcfTool::new(bank.address));
    let ts = TokenService::new(
        Keypair::from_seed(9_000),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    )
    .with_testnet(chain.fork())
    .with_tool(tool.clone());
    let ts = FrontEnd::new(ts, "tools-owner", 0);

    let client = user.address();
    let start = Instant::now();
    for k in 0..n {
        let req = TokenRequest::argument_token(
            bank.address,
            client,
            "withdraw()",
            vec![],
            abi::encode_call("withdraw()", &[]),
        );
        ts.set_time(k as u64);
        ts.issue(&req).expect("ecf issuance");
    }
    let elapsed = start.elapsed().as_secs_f64();
    ToolResult {
        tool: "ECFChecker",
        requests: n,
        simulations_per_request: tool.simulations() as f64 / n as f64,
        avg_ms: elapsed * 1e3 / n as f64,
        throughput: n as f64 / elapsed,
        paper_ms: 10.0,
    }
}

/// Run both tools at the paper's n = 100.
pub fn measure() -> Vec<ToolResult> {
    vec![measure_hydra(100), measure_ecf(100)]
}

/// Render the results.
pub fn report(results: &[ToolResult]) -> String {
    let mut out = String::new();
    out.push_str("§VI-B(b): TS throughput with runtime verification tools\n");
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>12} {:>12} | {:>12} {:>12}\n",
        "tool", "requests", "sims/req", "ms/request", "req/s", "paper ms", "paper req/s"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<18} {:>9} {:>9.1} {:>12.3} {:>12.0} | {:>12.0} {:>12.0}\n",
            r.tool,
            r.requests,
            r.simulations_per_request,
            r.avg_ms,
            r.throughput,
            r.paper_ms,
            1_000.0 / r.paper_ms
        ));
    }
    out.push_str("shape check: Hydra runs one simulation per head per request (N), ECF one\n");
    out
}
