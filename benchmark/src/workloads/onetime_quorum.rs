//! `onetime_quorum` — the durable write path. One op is a one-time method
//! token through a `FailoverClient` against a 3-replica `ReplicaSet` whose
//! counter votes travel the wire and whose WALs fsync on a real filesystem:
//! prepare/commit round trips and fsync dominate, the signature is a small
//! share of the op.

use super::method_token_http::inputs;
use super::Workload;
use crate::driver::Lane;
use crate::host::Affinity;
use crate::trace::Tracer;
use crate::world::{self, Env, OWNER_SECRET, TOKEN_LIFETIME, TS_NOW};
use smacs_contracts::BenchTarget;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{CounterMode, FailoverClient, ReplicaSet, ReplicaSetConfig, TsApi};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub const REPLICAS: usize = 3;

/// A fresh WAL directory under `out_dir`: a log left by an earlier set
/// would be replayed into this one's counter.
pub fn fresh_wal_dir(out_dir: &Path) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    out_dir.join(format!(
        "wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A 3-replica set with wire votes and WALs in `wal_dir`, on the program's
/// CPUs.
pub fn start_set(seed: u64, senders: &[Address], wal_dir: &Path) -> ReplicaSet {
    let _cpus = Affinity::program();
    ReplicaSet::start(
        world::ts_keypair(seed),
        world::method_whitelist(TokenType::Method, BenchTarget::PING_SIG, senders),
        ReplicaSetConfig {
            replicas: REPLICAS,
            owner_secret: OWNER_SECRET.into(),
            now: TS_NOW,
            counter_mode: CounterMode::Wire,
            wal_dir: Some(wal_dir.to_path_buf()),
            ..ReplicaSetConfig::default()
        },
    )
    .expect("start the replica set")
}

pub struct OnetimeLane {
    client: FailoverClient,
    requests: Arc<Vec<TokenRequest>>,
    order: Vec<u32>,
    cursor: usize,
    pub log: Vec<(u32, Token)>,
}

impl Lane for OnetimeLane {
    fn op(&mut self, t: &mut Tracer) -> u32 {
        let index = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        t.begin("ts.failover_issue");
        let issued = self.client.issue(&self.requests[index as usize]);
        t.end();
        match issued {
            Ok(token)
                if token.ttype == TokenType::Method
                    && token.expire as u64 == TS_NOW + TOKEN_LIFETIME
                    && token.is_one_time() =>
            {
                self.log.push((index, token));
                1
            }
            _ => 0,
        }
    }
}

pub struct OnetimeQuorum {
    set: ReplicaSet,
    wal_dir: PathBuf,
    requests: Arc<Vec<TokenRequest>>,
    lanes: Vec<OnetimeLane>,
}

impl Workload for OnetimeQuorum {
    type Lane = OnetimeLane;
    const NAME: &'static str = "onetime_quorum";
    const OPEN_RATE: f64 = 150.0;
    const TRACE_OPS: u64 = 300;
    const WARMUP_OPS: u64 = 500;

    fn setup(seed: u64, env: &Env) -> Self {
        let inputs = inputs(seed, env.lanes);
        let wal_dir = fresh_wal_dir(&env.out_dir);
        let set = start_set(seed, &inputs.senders, &wal_dir);
        let requests: Arc<Vec<TokenRequest>> = Arc::new(
            inputs
                .requests
                .iter()
                .map(|r| r.clone().one_time())
                .collect(),
        );
        let lanes = inputs
            .orders
            .into_iter()
            .map(|order| OnetimeLane {
                client: FailoverClient::new(set.addrs()),
                requests: requests.clone(),
                order,
                cursor: 0,
                log: Vec::with_capacity(1 << 16),
            })
            .collect();
        OnetimeQuorum {
            set,
            wal_dir,
            requests,
            lanes,
        }
    }

    fn lanes(&mut self) -> &mut [OnetimeLane] {
        &mut self.lanes
    }

    fn audit(&mut self, seed: u64, sample: usize) -> Result<String, String> {
        let issued: Vec<_> = self
            .lanes
            .iter()
            .flat_map(|lane| &lane.log)
            .map(|(index, token)| (&self.requests[*index as usize], token))
            .collect();
        let mut seen = HashSet::with_capacity(issued.len());
        for (_, token) in &issued {
            if !seen.insert(token.index) {
                return Err(format!("one-time index {} issued twice", token.index));
            }
        }
        let audited = world::audit_tokens(seed, self.set.ts_address(), &issued, sample)?;
        Ok(format!(
            "{} one-time indexes all unique; {audited} tokens recovered to the TS address; WALs on {}",
            issued.len(),
            crate::host::fs_type(&self.wal_dir)
        ))
    }

    fn shutdown(self) {
        drop(self.lanes);
        self.set.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}
