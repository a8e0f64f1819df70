//! The outside-in layer trace: a single-threaded, count-bounded pass that
//! drives one request through successively shallower public entry points.
//!
//! The server side of a socket cannot be spanned from outside, so a layer's
//! self time is the difference between adjacent depths:
//!
//! ```text
//! TS:    HttpClient::issue → FrontEnd::handle_json → TokenService::issue
//!        → RuleBook::check / Keypair::sign_digest
//! chain: shielded call → unshielded call → cold SignedTransaction::sender()
//! ```
//!
//! Each probe iteration is one span named after its metric; the metric is
//! the median span. Counts are per probe, sized so the whole pass stays
//! inside the run budget: 2,000 for µs-scale calls, fewer where one call
//! costs a millisecond (fsync, quorum rounds, parked connections).

use crate::driver::{Driver, Lane, Stop};
use crate::host::Affinity;
use crate::trace::Tracer;
use crate::workloads::batch_rules_churn::{self, BATCH};
use crate::workloads::block_replay::{run_block, BlockWorld, BLOCK_TXS};
use crate::workloads::chain_call::{gas_experiment_params, FUNDING};
use crate::workloads::method_token_http;
use crate::workloads::onetime_quorum::{fresh_wal_dir, start_set};
use crate::world::{self, Env, Ts, TS_NOW};
use smacs_chain::{BlockMode, Chain, SignedTransaction, Transaction};
use smacs_contracts::BenchTarget;
use smacs_core::{build_call_data, OwnerToolkit};
use smacs_crypto::{keccak256, recover_address, Keypair};
use smacs_primitives::json::{FromJson, Json, ToJson};
use smacs_primitives::{Address, WorkerPool, H256};
use smacs_token::{
    append_tokens, signing_digest, split_tokens, PayloadContext, Token, TokenArray, TokenRequest,
    TokenType, NO_INDEX,
};
use smacs_ts::api::{
    BatchItem, BatchRequestBody, BatchResponseBody, IssueBody, RequestEnvelope, ResponseEnvelope,
    PROTOCOL_VERSION,
};
use smacs_ts::front::encode_token_hex;
use smacs_ts::{
    CounterCluster, FailoverClient, HttpClient, RuleBook, TokenService, TokenServiceConfig, TsApi,
    Wal,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shield gas of this repository's Table II reproduction (`smacs-bench`,
/// `experiments::table2`): method, argument and one-time method tokens on
/// a first `ping(3,4)`. The paper's fixed reference — they must not move.
pub const SHIELD_GAS_METHOD: u64 = 164_798;
pub const SHIELD_GAS_ARGUMENT: u64 = 380_370;
pub const SHIELD_GAS_ONETIME: u64 = 191_274;

/// A named per-layer value.
pub type Metric = (&'static str, f64, &'static str);

/// Run `f` in `spans` spans of `inner` calls each; the median span ÷
/// `inner`, in µs. `inner > 1` is for calls too short for two clock reads.
fn probe(
    t: &mut Tracer,
    name: &'static str,
    spans: usize,
    inner: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    for i in 0..spans {
        t.next_op();
        t.begin(name);
        for j in 0..inner {
            f(i * inner + j);
        }
        t.end();
    }
    t.median_us(name) / inner as f64
}

fn v2_request(op: &str, body: Json) -> String {
    RequestEnvelope {
        v: PROTOCOL_VERSION,
        op: op.into(),
        body: Some(body),
    }
    .to_json()
    .render()
}

fn v2_response(body: Json) -> String {
    ResponseEnvelope {
        v: PROTOCOL_VERSION,
        ok: true,
        body: Some(body),
        error: None,
    }
    .to_json()
    .render()
}

/// `crypto.*`, `primitives.*`, `token.*`: the leaves every path shares.
fn leaves(t: &mut Tracer, seed: u64, out: &mut Vec<Metric>) {
    let signer = world::ts_keypair(seed);
    let digests: Vec<H256> = (0..500u64).map(|i| keccak256(&i.to_be_bytes())).collect();
    let sign = probe(t, "crypto.sign_us", 2_000, 1, |i| {
        std::hint::black_box(signer.sign_digest(&digests[i % 500]));
    });
    let signatures: Vec<_> = digests.iter().map(|d| signer.sign_digest(d)).collect();
    let recover = probe(t, "crypto.recover_us", 2_000, 1, |i| {
        std::hint::black_box(recover_address(&digests[i % 500], &signatures[i % 500]));
    });
    let kilobyte = [0x5Au8; 1024];
    let keccak = probe(t, "crypto.keccak_1k_us", 2_000, 10, |_| {
        std::hint::black_box(keccak256(std::hint::black_box(&kilobyte)));
    });
    out.extend([
        ("crypto.sign_us", sign, "us"),
        ("crypto.recover_us", recover, "us"),
        ("crypto.keccak_1k_us", keccak, "us"),
    ]);

    let contract = Address::from_low_u64(0xC0DE);
    let request = TokenRequest::method_token(contract, signer.address(), BenchTarget::PING_SIG);
    let token = Token {
        ttype: TokenType::Method,
        expire: (TS_NOW + 3_600) as u32,
        index: NO_INDEX,
        signature: signatures[0],
    };
    let issue_text = v2_request("issue", request.to_json());
    let decode = probe(t, "primitives.json_issue_decode_us", 2_000, 1, |_| {
        let json = Json::parse(&issue_text).expect("own envelope");
        let envelope = RequestEnvelope::from_json(&json).expect("own envelope");
        let body = envelope.body.expect("issue body");
        std::hint::black_box(TokenRequest::from_json(&body).expect("own request"));
    });
    let encode = probe(t, "primitives.json_token_encode_us", 2_000, 1, |_| {
        let body = IssueBody {
            token_hex: encode_token_hex(&token),
        };
        std::hint::black_box(v2_response(body.to_json()));
    });
    let batch_text = v2_request(
        "issue_batch",
        BatchRequestBody {
            requests: vec![request.clone(); BATCH],
        }
        .to_json(),
    );
    let batch64 = probe(t, "primitives.json_batch64_us", 300, 1, |_| {
        let json = Json::parse(&batch_text).expect("own envelope");
        let envelope = RequestEnvelope::from_json(&json).expect("own envelope");
        let body = BatchRequestBody::from_json(&envelope.body.expect("batch body"));
        std::hint::black_box(body.expect("own batch"));
        let results = BatchResponseBody {
            results: (0..BATCH)
                .map(|_| BatchItem::from_result(&Ok(token)))
                .collect(),
        };
        std::hint::black_box(v2_response(results.to_json()));
    });
    out.extend([
        ("primitives.json_issue_decode_us", decode, "us"),
        ("primitives.json_token_encode_us", encode, "us"),
        ("primitives.json_batch64_us", batch64, "us"),
    ]);

    // execute → job start on an idle pool. The 2 ms gap lets the worker's
    // CPU stop polling and halt, as it has when a request arrives at a quiet
    // server; back to back, the hand-off reads a tenth of this.
    let pool = {
        let _cpus = Affinity::program();
        WorkerPool::new(2, 16)
    };
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    for _ in 0..300 {
        let started_tx = started_tx.clone();
        let submitted = Instant::now();
        pool.try_execute(move || {
            let _ = started_tx.send(Instant::now());
        })
        .expect("idle pool");
        let started = started_rx.recv().expect("job ran");
        t.record("primitives.pool_handoff_us", submitted, started);
        std::thread::sleep(Duration::from_millis(2));
    }
    pool.shutdown();
    out.push((
        "primitives.pool_handoff_us",
        t.median_us("primitives.pool_handoff_us"),
        "us",
    ));

    let ctx = PayloadContext {
        sender: request.sender,
        contract,
        selector: request.selector(),
        calldata: None,
    };
    let digest = probe(t, "token.digest_us", 2_000, 10, |_| {
        std::hint::black_box(signing_digest(token.ttype, token.expire, token.index, &ctx));
    });
    let payload = BenchTarget::ping_payload(3, 4);
    let codec = probe(t, "token.array_codec_us", 2_000, 10, |_| {
        let data = append_tokens(&payload, &TokenArray::new().with(contract, token));
        std::hint::black_box(split_tokens(&data).expect("own array"));
    });
    out.extend([
        ("token.digest_us", digest, "us"),
        ("token.array_codec_us", codec, "us"),
    ]);
}

/// `ts.rules_*` … `ts.http_*`: one issue request at every depth of the
/// Token Service, single client.
fn ts_ladder(t: &mut Tracer, seed: u64, out: &mut Vec<Metric>) -> f64 {
    let inputs = method_token_http::inputs(seed, 1);
    let book = world::method_whitelist(TokenType::Method, BenchTarget::PING_SIG, &inputs.senders);
    let requests = &inputs.requests;
    let n = requests.len();

    let check = probe(t, "ts.rules_check_us", 2_000, 100, |i| {
        std::hint::black_box(book.check(&requests[i % n]).expect("whitelisted"));
    });
    let service = TokenService::new(
        world::ts_keypair(seed),
        book.clone(),
        TokenServiceConfig::default(),
    );
    let mut spare: Vec<RuleBook> = (0..40).map(|_| book.clone()).collect();
    let store = probe(t, "ts.rules_store_us", 40, 1, |_| {
        service.set_rules(spare.pop().expect("one book per span"));
    });
    let issue = probe(t, "ts.service_issue_us", 2_000, 1, |i| {
        std::hint::black_box(service.issue(&requests[i % n], TS_NOW).expect("whitelisted"));
    });
    let batches = batch_rules_churn::inputs(seed, 1);
    let batch_service = TokenService::new(
        world::ts_keypair(seed),
        batches.books[0].clone(),
        TokenServiceConfig::default(),
    );
    let lane_batches = &batches.batches[0];
    let batch64 = probe(t, "ts.service_issue_batch64_us", 100, 1, |i| {
        let batch = &lane_batches[i % lane_batches.len()];
        std::hint::black_box(batch_service.issue_batch(&batch.requests, TS_NOW));
    });
    out.extend([
        ("ts.rules_check_us", check, "us"),
        ("ts.rules_store_us", store, "us"),
        ("ts.service_issue_us", issue, "us"),
        ("ts.service_issue_batch64_us", batch64, "us"),
    ]);

    let bringup = probe(t, "ts.endpoint_bringup_ms", 5, 1, |_| {
        // Shutdown falls inside the span as well; it is the smaller part.
        let ts = Ts::start(world::ts_keypair(seed), book.clone(), TS_NOW);
        HttpClient::connect(ts.endpoint.addr())
            .ping()
            .expect("first op");
        ts.endpoint.shutdown();
    });
    out.push(("ts.endpoint_bringup_ms", bringup / 1e3, "ms"));

    let ts = Ts::start(world::ts_keypair(seed), book, TS_NOW);
    let texts: Vec<String> = requests
        .iter()
        .take(500)
        .map(|r| v2_request("issue", r.to_json()))
        .collect();
    let handle_json = probe(t, "ts.front_handle_json_us", 2_000, 1, |i| {
        std::hint::black_box(ts.front.handle_json(&texts[i % 500]));
    });
    let client = HttpClient::connect(ts.endpoint.addr());
    client.ping().expect("listener up");
    let ping = probe(t, "ts.http_ping_us", 2_000, 1, |_| {
        client.ping().expect("ping");
    });
    let hot = probe(t, "ts.http_issue_hot_us", 2_000, 1, |i| {
        std::hint::black_box(client.issue(&requests[i % n]).expect("whitelisted"));
    });
    // A 5 ms gap outlasts `keepalive_grace`: the worker has parked the
    // connection on the reactor and gone back to sleep.
    for i in 0..200 {
        std::thread::sleep(Duration::from_millis(5));
        t.next_op();
        t.begin("ts.http_issue_parked_us");
        std::hint::black_box(client.issue(&requests[i % n]).expect("whitelisted"));
        t.end();
    }
    let parked = t.median_us("ts.http_issue_parked_us");
    let connect = probe(t, "ts.http_connect_us", 200, 1, |i| {
        let fresh = HttpClient::connect(ts.endpoint.addr());
        std::hint::black_box(fresh.issue(&requests[i % n]).expect("whitelisted"));
    });
    out.extend([
        ("ts.front_handle_json_us", handle_json, "us"),
        ("ts.http_ping_us", ping, "us"),
        ("ts.http_issue_hot_us", hot, "us"),
        ("ts.http_issue_parked_us", parked, "us"),
        ("ts.http_connect_us", connect, "us"),
    ]);
    drop(client);
    ts.endpoint.shutdown();
    issue
}

/// One lane of the contended one-time burst.
struct BurstLane<'a> {
    client: FailoverClient,
    request: &'a TokenRequest,
}

impl Lane for BurstLane<'_> {
    fn op(&mut self, _t: &mut Tracer) -> u32 {
        self.client.issue(self.request).is_ok() as u32
    }
}

/// `ts.wal_*`, `ts.counter_*`, `ts.onetime_*`, `ts.replicaset_*`: the
/// durable one-time path from the disk up.
fn quorum_ladder(
    t: &mut Tracer,
    seed: u64,
    env: &Env,
    service_issue_us: f64,
    out: &mut Vec<Metric>,
) {
    let dir = fresh_wal_dir(&env.out_dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (mut wal, _) = Wal::open(&dir.join("probe.wal")).expect("open a WAL");
    let append = probe(t, "ts.wal_append_us", 300, 1, |i| {
        wal.append(i as u64).expect("append and fsync");
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let local = CounterCluster::new(3);
    let local_next = probe(t, "ts.counter_local_next_us", 2_000, 10, |_| {
        std::hint::black_box(local.next_index().expect("quorum in memory"));
    });
    out.extend([
        ("ts.wal_append_us", append, "us"),
        ("ts.counter_local_next_us", local_next, "us"),
    ]);

    let senders = [world::ts_keypair(seed).address()];
    let request =
        TokenRequest::method_token(Address::from_low_u64(0xC0DE), senders[0], BenchTarget::PING_SIG)
            .one_time();
    let bringup = probe(t, "ts.replicaset_bringup_ms", 5, 1, |_| {
        let dir = fresh_wal_dir(&env.out_dir);
        let set = start_set(seed, &senders, &dir);
        FailoverClient::new(set.addrs())
            .issue(&request)
            .expect("first one-time token");
        set.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
    out.push(("ts.replicaset_bringup_ms", bringup / 1e3, "ms"));

    let dir = fresh_wal_dir(&env.out_dir);
    let set = start_set(seed, &senders, &dir);
    let mut tokens = 0u64;
    let client = FailoverClient::new(set.addrs());
    let http = probe(t, "ts.onetime_http_issue_us", 300, 1, |_| {
        std::hint::black_box(client.issue(&request).expect("quorum up"));
    });
    // Replica 0 as coordinator, called in process: rule check + sign + two
    // vote rounds over the wire to its peers, no client socket.
    let coordinator = set.front(0).service();
    let wire = probe(t, "ts.service_issue_onetime_wire", 300, 1, |_| {
        std::hint::black_box(coordinator.issue(&request, TS_NOW).expect("quorum up"));
    });
    tokens += 600;
    // Racing coordinators: every lane at once, each through its own
    // failover client, so different replicas propose concurrently.
    let mut lanes: Vec<BurstLane> = (0..env.lanes)
        .map(|_| BurstLane {
            client: FailoverClient::new(set.addrs()),
            request: &request,
        })
        .collect();
    let burst = Driver::new(&mut lanes, seed).closed(Stop::Ops(150));
    tokens += burst.units();
    drop(lanes);
    let committed = set.counter().committed();
    let wal_records: u64 = (0..set.len())
        .map(|id| {
            std::fs::metadata(dir.join(format!("counter-{id}.wal")))
                .map_or(0, |m| m.len() / 12)
        })
        .sum();
    set.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    out.extend([
        ("ts.onetime_http_issue_us", http, "us"),
        ("ts.counter_wire_next_us", wire - service_issue_us, "us"),
        (
            "ts.wal_records_per_token",
            wal_records as f64 / tokens as f64,
            "count",
        ),
        (
            "ts.counter_burned_share",
            1.0 - tokens as f64 / committed.max(1) as f64,
            "share",
        ),
    ]);
}

/// A fresh world laid out exactly as `smacs-bench`'s `World::new` (owner
/// seed 1, client seed 2, TS seed 9000), so shield gas is comparable with
/// the Table II reproduction whatever `--seed` says: calldata gas depends
/// on the zero bytes of keys and signatures.
struct GasWorld {
    chain: Chain,
    toolkit: OwnerToolkit,
    service: TokenService,
    client: Keypair,
    nonce: u64,
    target: Address,
}

impl GasWorld {
    fn new() -> GasWorld {
        let mut chain = Chain::default_chain();
        let owner = chain.funded_keypair(1, FUNDING);
        let client = chain.funded_keypair(2, FUNDING);
        let toolkit = OwnerToolkit::new(owner, Keypair::from_seed(9_000));
        let (target, _) = toolkit
            .deploy_shielded(&mut chain, Arc::new(BenchTarget), &gas_experiment_params())
            .expect("deploy");
        let service = TokenService::new(
            toolkit.ts_keypair().clone(),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        GasWorld {
            chain,
            toolkit,
            service,
            client,
            nonce: 0,
            target: target.address,
        }
    }

    fn request(&self, ttype: TokenType, one_time: bool, payload: &[u8]) -> TokenRequest {
        let sender = self.client.address();
        let request = match ttype {
            TokenType::Argument => TokenRequest::argument_token(
                self.target,
                sender,
                BenchTarget::PING_SIG,
                Vec::new(),
                payload.to_vec(),
            ),
            _ => TokenRequest::method_token(self.target, sender, BenchTarget::PING_SIG),
        };
        if one_time {
            request.one_time()
        } else {
            request
        }
    }

    /// A signed token-bearing `ping`, token issued at the chain's time.
    fn signed_call(&mut self, ttype: TokenType, one_time: bool, a: u64, b: u64) -> SignedTransaction {
        let payload = BenchTarget::ping_payload(a, b);
        let now = self.chain.pending_env().timestamp;
        let token = self
            .service
            .issue(&self.request(ttype, one_time, &payload), now)
            .expect("permissive rules");
        let data = build_call_data(&payload, self.target, token);
        let signed = Transaction::call(self.nonce, self.target, 0, data).sign(&self.client);
        self.nonce += 1;
        signed
    }

    /// Gas of the first `ping(3,4)` on a fresh world.
    fn first_call_gas(ttype: TokenType, one_time: bool) -> u64 {
        let mut world = GasWorld::new();
        let signed = world.signed_call(ttype, one_time, 3, 4);
        let receipt = world.chain.submit(signed).expect("submit");
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        receipt.breakdown.total
    }
}

/// `core.*`, `chain.*`: one call at every depth of the chain side.
fn chain_ladder(t: &mut Tracer, seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    for (name, pinned, ttype, one_time) in [
        ("core.shield_gas_method", SHIELD_GAS_METHOD, TokenType::Method, false),
        ("core.shield_gas_argument", SHIELD_GAS_ARGUMENT, TokenType::Argument, false),
        ("core.shield_gas_onetime", SHIELD_GAS_ONETIME, TokenType::Method, true),
    ] {
        let gas = GasWorld::first_call_gas(ttype, one_time);
        if gas != pinned {
            return Err(format!("{name}: measured {gas} gas, pinned {pinned}"));
        }
        out.push((name, gas as f64, "gas"));
    }

    let mut world = GasWorld::new();
    for (name, ttype, one_time) in [
        ("core.shield_call_method_us", TokenType::Method, false),
        ("core.shield_call_argument_us", TokenType::Argument, false),
        ("core.shield_call_onetime_us", TokenType::Method, true),
    ] {
        for i in 0..500u64 {
            let signed = world.signed_call(ttype, one_time, i, 7);
            t.next_op();
            t.begin(name);
            let receipt = world.chain.submit(signed);
            t.end();
            if !receipt.is_ok_and(|r| r.status.is_success()) {
                return Err(format!("{name}: call {i} did not succeed"));
            }
            if i % 100 == 99 {
                world.chain.seal_block();
            }
        }
        out.push((name, t.median_us(name), "us"));
    }

    let (plain, _) = world
        .toolkit
        .deploy_legacy(&mut world.chain, Arc::new(BenchTarget))
        .expect("deploy unshielded");
    let client = world.client.clone();
    let mut nonce = world.nonce;
    let mut wire = Vec::new();
    let sign = probe(t, "chain.tx_sign_us", 960, 1, |i| {
        let call = Transaction::call(
            nonce,
            plain.address,
            0,
            BenchTarget::ping_payload(i as u64, 7),
        );
        nonce += 1;
        wire.push(call.sign(&client));
    });
    let cold = probe(t, "chain.tx_sender_cold_us", 960, 1, |i| {
        let signed = &wire[i];
        let parsed = SignedTransaction::from_parts(signed.tx.clone(), signed.signature);
        std::hint::black_box(parsed.sender().expect("own signature"));
    });
    for (i, signed) in wire.into_iter().enumerate() {
        t.next_op();
        t.begin("chain.plain_call_us");
        let receipt = world.chain.submit(signed);
        t.end();
        if !receipt.is_ok_and(|r| r.status.is_success()) {
            return Err(format!("chain.plain_call_us: call {i} did not succeed"));
        }
        if i % BLOCK_TXS == BLOCK_TXS - 1 {
            t.begin("chain.seal_block_us");
            world.chain.seal_block();
            t.end();
        }
    }
    out.extend([
        ("chain.tx_sign_us", sign, "us"),
        ("chain.tx_sender_cold_us", cold, "us"),
        ("chain.plain_call_us", t.median_us("chain.plain_call_us"), "us"),
        ("chain.seal_block_us", t.median_us("chain.seal_block_us"), "us"),
    ]);

    // The same blocks, sequential then parallel: the measurement that
    // decides whether speculation earns its place.
    let blocks = BlockWorld::build(seed, 24);
    let pool = {
        let _cpus = Affinity::program();
        WorkerPool::new(crate::host::nproc(), 64)
    };
    for (name, span, parallel) in [
        ("chain.block_seq_us_per_tx", "chain.block_seq", false),
        ("chain.block_par_us_per_tx", "chain.block_par", true),
    ] {
        let mut chain = blocks.base.fork();
        for block in blocks.blocks.iter() {
            let mode = if parallel {
                BlockMode::Parallel(&pool)
            } else {
                BlockMode::Sequential
            };
            t.next_op();
            t.begin(span);
            let ran = run_block(&mut chain, block, mode, &mut Tracer::off());
            t.end();
            ran.map_err(|e| format!("{name}: {e}"))?;
        }
        out.push((name, t.median_us(span) / BLOCK_TXS as f64, "us"));
    }
    pool.shutdown();

    let state = blocks.base.state();
    let fork = probe(t, "chain.fork_ns", 1_000, 100, |_| {
        std::hint::black_box(state.fork());
    });
    let mut scratch = state.fork();
    let (slot_owner, key) = (Address::from_low_u64(0x51), H256::ZERO);
    let revert = probe(t, "chain.snapshot_revert_ns", 1_000, 100, |i| {
        let snapshot = scratch.snapshot();
        scratch.storage_set(slot_owner, key, keccak256(&i.to_be_bytes()));
        scratch.revert_to(snapshot);
    });
    out.extend([
        ("chain.fork_ns", fork * 1e3, "ns"),
        ("chain.snapshot_revert_ns", revert * 1e3, "ns"),
    ]);
    Ok(())
}

/// Every layer probe. `Err` names a correctness check that failed.
pub fn run(t: &mut Tracer, seed: u64, env: &Env) -> Result<Vec<Metric>, String> {
    // The probing thread is the generator here: it sits where lane 0 sits.
    let _pinned = Affinity::lane(0);
    let mut out = Vec::new();
    leaves(t, seed, &mut out);
    let service_issue_us = ts_ladder(t, seed, &mut out);
    quorum_ladder(t, seed, env, service_issue_us, &mut out);
    chain_ladder(t, seed, &mut out)?;
    Ok(out)
}
