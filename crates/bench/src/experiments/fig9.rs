//! Fig. 9 — Token Service throughput.
//!
//! "For each token type, we send 10^i (0 ≤ i ≤ 5) token requests to the
//! TS, record the total time needed by the TS, and compute the average
//! time required per token request. The rules used are composed of
//! blacklists and whitelists as presented in Fig. 6."
//!
//! The paper's Node.js TS plateaus around 200–300 req/s; the shape to
//! reproduce is throughput *rising with batch size then flattening*. The
//! Rust TS is faster in absolute terms; the `fig9` binary prints the
//! measured numbers (`cargo run --release -p smacs-bench --bin fig9`).

use smacs_contracts::BenchTarget;
use smacs_crypto::Keypair;
use smacs_primitives::Address;
use smacs_token::{TokenRequest, TokenType};
use smacs_ts::{FrontEnd, ListPolicy, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::time::Instant;

/// One measured point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Batch size (number of requests).
    pub requests: usize,
    /// Requests processed per second.
    pub throughput: f64,
    /// Average per-request latency in microseconds.
    pub avg_latency_us: f64,
}

/// One series (token type; the fourth series is argument + one-time).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: &'static str,
    /// Points for batch sizes 10^0 … 10^max.
    pub points: Vec<Point>,
}

/// The arguments of the argument requests: `ping(7, 8)`.
const PING_ARGS: (u64, u64) = (7, 8);

/// Build the Fig. 6-style rule book: a sender whitelist containing the
/// client among `list_size − 1` other addresses; a blacklist of
/// `list_size / 2` other senders for `ping(uint256,uint256)`, the method
/// the requests name; and a whitelist of `list_size / 2` values for its
/// first argument (`arg0`) that admits the requests' value. Every request
/// is granted, after checks that could have refused it.
pub fn fig6_rules(client: Address, list_size: usize) -> RuleBook {
    let mut book = RuleBook::deny_all();
    for ttype in TokenType::ALL {
        let mut whitelist = ListPolicy::deny_all();
        for i in 0..list_size.saturating_sub(1) {
            whitelist.insert(Address::from_low_u64(0x1_0000 + i as u64).to_hex());
        }
        whitelist.insert(client.to_hex());
        let rules = book.rules_mut(ttype);
        rules.sender = Some(whitelist);
        rules.method.insert(
            BenchTarget::PING_SIG.into(),
            ListPolicy::Blacklist(
                (0..list_size / 2)
                    .map(|i| Address::from_low_u64(0x2_0000 + i as u64).to_hex())
                    .collect(),
            ),
        );
        let mut values = ListPolicy::Whitelist(
            (1..list_size / 2)
                .map(|i| (0x3_0000 + i).to_string())
                .collect(),
        );
        values.insert(PING_ARGS.0.to_string());
        rules.argument.insert("arg0".into(), values);
    }
    book
}

fn request_for(
    ttype: TokenType,
    one_time: bool,
    client: Address,
    contract: Address,
) -> TokenRequest {
    let mut req = match ttype {
        TokenType::Super => TokenRequest::super_token(contract, client),
        TokenType::Method => TokenRequest::method_token(contract, client, BenchTarget::PING_SIG),
        TokenType::Argument => TokenRequest::argument_token(
            contract,
            client,
            BenchTarget::PING_SIG,
            vec![],
            BenchTarget::ping_payload(PING_ARGS.0, PING_ARGS.1),
        ),
    };
    if one_time {
        req = req.one_time();
    }
    req
}

/// Run the sweep. `max_exponent` 5 reproduces the paper exactly; smaller
/// values keep CI fast.
pub fn measure(max_exponent: u32) -> Vec<Series> {
    let client = Keypair::from_seed(77).address();
    let contract = Address::from_low_u64(0xC0);
    let ts = FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(9_000),
            fig6_rules(client, 1_000),
            TokenServiceConfig::default(),
        ),
        "fig9-owner",
        0,
    );
    let configs: [(&'static str, TokenType, bool); 4] = [
        ("Super", TokenType::Super, false),
        ("Method", TokenType::Method, false),
        ("Argument", TokenType::Argument, false),
        ("Arg. (one-time)", TokenType::Argument, true),
    ];
    configs
        .into_iter()
        .map(|(label, ttype, one_time)| {
            let req = request_for(ttype, one_time, client, contract);
            let points = (0..=max_exponent)
                .map(|i| {
                    let n = 10usize.pow(i);
                    let start = Instant::now();
                    for k in 0..n {
                        ts.set_time(k as u64);
                        let token = ts.issue(&req).expect("issuance");
                        std::hint::black_box(token);
                    }
                    let elapsed = start.elapsed().as_secs_f64();
                    Point {
                        requests: n,
                        throughput: n as f64 / elapsed,
                        avg_latency_us: elapsed * 1e6 / n as f64,
                    }
                })
                .collect();
            Series { label, points }
        })
        .collect()
}

/// Render the figure's data.
pub fn report(series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 9: throughput of the TS (requests processed per second)\n");
    out.push_str(&format!("{:>10}", "requests"));
    for s in series {
        out.push_str(&format!(" {:>16}", s.label));
    }
    out.push('\n');
    let depth = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..depth {
        out.push_str(&format!("{:>10}", series[0].points[i].requests));
        for s in series {
            out.push_str(&format!(" {:>16.0}", s.points[i].throughput));
        }
        out.push('\n');
    }
    out.push_str(
        "paper: rises with batching, plateaus ≈200–300 req/s (Node.js); shape must match, absolute scale is substrate-dependent\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_ts::{IssueError, RuleViolation};

    /// The book grants every timed request, and its method blacklist and
    /// argument whitelist judge what those requests bind.
    #[test]
    fn the_book_judges_what_the_requests_bind() {
        let client = Keypair::from_seed(77).address();
        let contract = Address::from_low_u64(0xC0);
        let request = |ttype| request_for(ttype, false, client, contract);
        let ts = TokenService::new(
            Keypair::from_seed(1),
            fig6_rules(client, 10),
            TokenServiceConfig::default(),
        );
        for ttype in TokenType::ALL {
            assert!(ts.issue(&request(ttype), 0).is_ok(), "{ttype}");
        }

        let mut other_value = request(TokenType::Argument);
        other_value.calldata = Some(BenchTarget::ping_payload(PING_ARGS.1, PING_ARGS.1));
        let rejected = RuleViolation::ArgumentRejected {
            name: "arg0".into(),
            value: PING_ARGS.1.to_string(),
        };
        assert_eq!(
            ts.issue(&other_value, 0),
            Err(IssueError::RuleViolation(rejected))
        );

        let mut book = fig6_rules(client, 10);
        let rules = book.rules_mut(TokenType::Method);
        let blacklist = rules.method.get_mut(BenchTarget::PING_SIG).unwrap();
        blacklist.insert(client.to_hex());
        ts.set_rules(book);
        assert!(matches!(
            ts.issue(&request(TokenType::Method), 0),
            Err(IssueError::RuleViolation(
                RuleViolation::MethodRejected { .. }
            ))
        ));
    }
}
