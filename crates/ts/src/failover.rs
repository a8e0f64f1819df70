//! A failover-aware [`TsApi`](crate::TsApi) client for replicated Token
//! Services (§VII-B availability, the client half).
//!
//! [`FailoverClient`] holds one [`HttpClient`] per replica (typically the
//! directory from [`crate::discovery::ContractMetadata::service_urls`])
//! and rotates through them:
//!
//! - **load balancing**: calls start from a round-robin cursor, so a fleet
//!   of wallets spreads across the replicas;
//! - **bounded retries**: this is the one layer that re-sends a request.
//!   A failed attempt is retried on the *next* replica (the same one,
//!   over a single URL) with exponential backoff plus deterministic
//!   jitter, up to [`RetryPolicy::attempts`] attempts and a per-call
//!   [`RetryPolicy::deadline`]. Each attempt is one [`HttpClient`] send,
//!   which never re-sends, so the two budgets bound the requests that
//!   actually go out;
//! - **at-most-once issuance**: whether a failure is retried depends on
//!   how far the round trip got (`CallError`) and whether the operation
//!   may burn a one-time counter index — the replay rule,
//!   `CallError::replayable`, defined here beside its one caller. A
//!   connect-phase failure transmitted nothing and is always safe to
//!   replay. After the request may have gone out, every op but one-time
//!   issuance is replayed: `ping`, `discover`, `set_rules` (replaying a
//!   whole-book replacement is a no-op), and issuance of tokens *without*
//!   the one-time property (a re-mint is byte-identical). A one-time
//!   issue whose answer was lost is surfaced as a transport error instead
//!   of blind-retried: replaying it could burn a second counter index,
//!   and the wallet (which knows whether the first token ever arrived
//!   on-chain) must decide;
//! - **circuit breaking**: [`BreakerConfig::failure_threshold`]
//!   consecutive transport/server failures open an endpoint's breaker for
//!   [`BreakerConfig::cooldown`] — calls skip it instead of paying its
//!   connect/read timeout every time. After the cooldown one trial call
//!   (half-open) probes whether the replica came back.
//!
//! Application-level errors (rule violations, `counter_unavailable`, bad
//! owner secret, …) mean the service *ran* the request and answered; they
//! are returned immediately, never failed over, and count as endpoint
//! successes for the breaker.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use smacs_primitives::json::{FromJson, ToJson};

use crate::api::{ApiError, ErrorCode};
use crate::http::{CallError, HttpClient, HttpClientConfig, WireCall};

impl CallError {
    /// The one replay rule: whether a request that failed this way may be
    /// sent again. `one_time`: the op may burn a one-time counter index (a
    /// one-time issue, a batch holding one).
    ///
    /// A request that never left (a connect failure) may always be resent.
    /// One that may have reached the server (a lost or cut answer, an HTTP
    /// 5xx) is resent unless it is `one_time`: a lost answer looks like a
    /// lost request, and a replay could burn a second index. Every other op
    /// is safe to run twice — reads, a whole-book `set_rules`, and
    /// expiry-token issuance (a re-mint is byte-identical: same expire,
    /// `NO_INDEX`, same payload, same signature). An application error is
    /// final: the service ran the request and said no.
    fn replayable(&self, one_time: bool) -> bool {
        match self {
            CallError::Transport { sent: false, .. } => true,
            CallError::Transport { sent: true, .. } | CallError::Server { .. } => !one_time,
            CallError::Api(_) => false,
        }
    }
}

/// Retry/backoff tuning for [`FailoverClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call across all replicas, one send each
    /// (1 = no retries).
    pub attempts: usize,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget for one call, attempts and backoffs included.
    /// Checked between attempts (each attempt is one send, bounded by the
    /// [`HttpClientConfig`] socket timeouts).
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_secs(15),
        }
    }
}

/// Circuit-breaker tuning (per endpoint).
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport/server failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker sheds load before a half-open trial.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Mutable breaker state for one endpoint.
#[derive(Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// `Some(t)`: open (shedding) until `t`, then half-open.
    open_until: Option<Instant>,
}

/// One replica endpoint: its client and breaker.
struct Endpoint {
    client: HttpClient,
    breaker: Mutex<BreakerState>,
}

impl Endpoint {
    /// Whether a call may be sent here now (closed, or open with the
    /// cooldown elapsed — the half-open trial).
    fn available(&self, now: Instant) -> bool {
        match self.breaker.lock().open_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    fn record_success(&self) {
        let mut state = self.breaker.lock();
        state.consecutive_failures = 0;
        state.open_until = None;
    }

    fn record_failure(&self, config: &BreakerConfig, now: Instant) {
        let mut state = self.breaker.lock();
        state.consecutive_failures += 1;
        if state.consecutive_failures >= config.failure_threshold {
            state.open_until = Some(now + config.cooldown);
        }
    }
}

/// A [`TsApi`](crate::TsApi) client that spreads calls across a replica set
/// and routes around dead members. See the module docs for the full policy.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    policy: RetryPolicy,
    breaker: BreakerConfig,
    /// Round-robin start index for load balancing.
    cursor: AtomicUsize,
    /// xorshift state for backoff jitter — deterministic per client, so
    /// tests are reproducible, yet distinct clients desynchronize.
    jitter: AtomicU64,
}

impl FailoverClient {
    /// A client over `addrs` with default timeouts, retries, and breakers.
    ///
    /// # Panics
    /// Panics if `addrs` is empty.
    pub fn new(addrs: Vec<SocketAddr>) -> FailoverClient {
        FailoverClient::with_config(
            addrs,
            HttpClientConfig::default(),
            RetryPolicy::default(),
            BreakerConfig::default(),
        )
    }

    /// A client with explicit socket, retry, and breaker tuning.
    ///
    /// # Panics
    /// Panics if `addrs` is empty.
    pub fn with_config(
        addrs: Vec<SocketAddr>,
        client: HttpClientConfig,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) -> FailoverClient {
        assert!(!addrs.is_empty(), "need at least one endpoint");
        let seed = addrs.iter().fold(0x9E37_79B9_7F4A_7C15u64, |acc, addr| {
            acc.wrapping_mul(31).wrapping_add(addr.port() as u64)
        }) | 1; // xorshift must not start at 0
        FailoverClient {
            endpoints: addrs
                .into_iter()
                .map(|addr| Endpoint {
                    client: HttpClient::connect_with(addr, client.clone()),
                    breaker: Mutex::new(BreakerState::default()),
                })
                .collect(),
            policy,
            breaker,
            cursor: AtomicUsize::new(0),
            jitter: AtomicU64::new(seed),
        }
    }

    /// A client from discovery URLs (`http://ip:port`, the
    /// [`crate::discovery::ContractMetadata::service_urls`] shape) — the
    /// one parser of that shape. Unparseable URLs are skipped; `None` iff
    /// none parse.
    pub fn from_urls<S: AsRef<str>>(urls: &[S]) -> Option<FailoverClient> {
        let addrs: Vec<SocketAddr> = urls
            .iter()
            .filter_map(|url| url.as_ref().strip_prefix("http://")?.parse().ok())
            .collect();
        if addrs.is_empty() {
            return None;
        }
        Some(FailoverClient::new(addrs))
    }

    /// Number of endpoints in the directory.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Endpoints whose breakers are currently open (shedding load).
    pub fn open_breakers(&self) -> usize {
        let now = Instant::now();
        self.endpoints.iter().filter(|e| !e.available(now)).count()
    }

    /// Pick the endpoint for attempt `attempt` of a call that started at
    /// cursor `start`: the first available (breaker-wise) endpoint at or
    /// after the rotating position; when every breaker is open, the one
    /// whose cooldown expires soonest (shortest wait for a half-open
    /// trial).
    fn pick(&self, start: usize, attempt: usize) -> &Endpoint {
        let n = self.endpoints.len();
        let now = Instant::now();
        let base = start + attempt;
        for i in 0..n {
            let endpoint = &self.endpoints[(base + i) % n];
            if endpoint.available(now) {
                return endpoint;
            }
        }
        self.endpoints
            .iter()
            .min_by_key(|e| e.breaker.lock().open_until.unwrap_or(now))
            .expect("at least one endpoint")
    }

    /// Backoff before attempt `attempt` (1-based): exponential from
    /// [`RetryPolicy::base_backoff`], capped, with xorshift jitter in
    /// `[50%, 100%]` so synchronized clients spread out.
    fn backoff(&self, attempt: usize) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
            .min(self.policy.max_backoff);
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let nanos = exp.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + (x % (nanos / 2 + 1)))
    }
}

impl WireCall for FailoverClient {
    /// One v2 op with failover: rotate through replicas until an attempt
    /// yields a definitive answer, the attempt/deadline budget runs out,
    /// or the replay rule (`CallError::replayable`) forbids another send.
    fn call<T>(&self, op: &str, body: Option<&dyn ToJson>, one_time: bool) -> Result<T, ApiError>
    where
        T: for<'a> FromJson<'a>,
    {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % self.endpoints.len();
        let deadline = Instant::now() + self.policy.deadline;
        let attempts = self.policy.attempts.max(1);
        let mut last: Option<CallError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let pause = self.backoff(attempt);
                if Instant::now() + pause >= deadline {
                    break;
                }
                std::thread::sleep(pause);
            }
            let endpoint = self.pick(start, attempt);
            match endpoint.client.send(op, body) {
                Ok(response) => {
                    endpoint.record_success();
                    return Ok(response);
                }
                Err(CallError::Api(error)) => {
                    endpoint.record_success();
                    return Err(error);
                }
                Err(error) => {
                    endpoint.record_failure(&self.breaker, Instant::now());
                    let replayable = error.replayable(one_time);
                    last = Some(error);
                    if !replayable {
                        break;
                    }
                }
            }
        }
        Err(last
            .map(CallError::into_api)
            .unwrap_or_else(|| ApiError::new(ErrorCode::Transport, "no attempt made")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TsApi;

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let client = FailoverClient::with_config(
            vec!["127.0.0.1:1".parse().unwrap()],
            HttpClientConfig::default(),
            RetryPolicy {
                attempts: 8,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(80),
                deadline: Duration::from_secs(1),
            },
            BreakerConfig::default(),
        );
        for attempt in 1..8 {
            let pause = client.backoff(attempt);
            assert!(
                pause <= Duration::from_millis(80),
                "attempt {attempt}: {pause:?}"
            );
            assert!(
                pause >= Duration::from_millis(5),
                "attempt {attempt}: {pause:?}"
            );
        }
    }

    #[test]
    fn retriability_gate() {
        let transport = |sent| CallError::Transport {
            sent,
            error: ApiError::new(ErrorCode::Transport, "x"),
        };
        // Connect-phase failures replay whatever the op.
        assert!(transport(false).replayable(true));
        assert!(transport(false).replayable(false));
        // Post-send failures replay all but ops that may burn an index.
        assert!(!transport(true).replayable(true));
        assert!(transport(true).replayable(false));
        let server = CallError::Server {
            status: 500,
            error: ApiError::new(ErrorCode::Internal, "x"),
        };
        assert!(!server.replayable(true));
        assert!(server.replayable(false));
        // Application errors are definitive.
        let api = CallError::Api(ApiError::new(ErrorCode::RuleViolation, "x"));
        assert!(!api.replayable(false));
    }

    #[test]
    fn each_attempt_is_one_send() {
        // `attempts: 1` is one request on the wire: an answer cut after
        // dispatch on the pooled connection is not resent behind the
        // budget's back, even for a replayable op.
        use crate::fault::FaultPlan;
        use crate::front::{EndpointScope, FrontEnd};
        use crate::http::{Endpoint, HttpServerConfig};
        use crate::rules::RuleBook;
        use crate::service::{TokenService, TokenServiceConfig};
        use std::sync::Arc;

        let service = TokenService::new(
            smacs_crypto::Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let faults = FaultPlan::new();
        let server = Endpoint::bind(
            Arc::new(FrontEnd::new(service, "secret", 0)),
            EndpointScope::Public,
            HttpServerConfig {
                faults: Some(faults.clone()),
                ..HttpServerConfig::default()
            },
        )
        .unwrap();
        let client = FailoverClient::with_config(
            vec![server.addr()],
            HttpClientConfig::default(),
            RetryPolicy {
                attempts: 1,
                ..RetryPolicy::default()
            },
            BreakerConfig::default(),
        );
        client.ping().unwrap();
        faults.truncate_responses(1);
        assert_eq!(client.ping().unwrap_err().code, ErrorCode::Transport);
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn expiry_issue_with_a_lost_answer_comes_back_on_the_next_attempt() {
        // An expiry issue burns no index and a re-mint is byte-identical,
        // so the replay rule re-sends it after its answer is lost — over a
        // single URL, to the same server.
        use crate::cluster::{ReplicaSet, ReplicaSetConfig};
        use crate::rules::RuleBook;
        use smacs_primitives::Address;

        let set = ReplicaSet::start(
            smacs_crypto::Keypair::from_seed(1),
            RuleBook::permissive(),
            ReplicaSetConfig::default(),
        )
        .unwrap();
        let client = FailoverClient::new(vec![set.addrs()[0]]);
        let request = smacs_token::TokenRequest::super_token(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
        );
        let unfaulted = client.issue(&request).unwrap();
        set.faults(0).truncate_responses(1);
        let resent = client.issue(&request).unwrap();
        assert_eq!(resent.to_bytes(), unfaulted.to_bytes());
        set.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one endpoint")]
    fn empty_directory_panics() {
        FailoverClient::new(Vec::new());
    }

    /// Drive one endpoint's breaker state machine directly (the unit
    /// under test here is the breaker, not the socket): threshold
    /// failures open it, the cooldown elapsing half-opens it.
    fn opened_endpoint(config: &BreakerConfig) -> Endpoint {
        let endpoint = Endpoint {
            client: HttpClient::connect("127.0.0.1:1".parse().unwrap()),
            breaker: Mutex::new(BreakerState::default()),
        };
        let t0 = Instant::now();
        for _ in 0..config.failure_threshold {
            endpoint.record_failure(config, t0);
        }
        assert!(!endpoint.available(t0), "breaker must be open");
        assert!(
            endpoint.available(t0 + config.cooldown),
            "cooldown elapsed must half-open the breaker for one trial"
        );
        endpoint
    }

    #[test]
    fn half_open_probe_success_closes_the_breaker() {
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        };
        let endpoint = opened_endpoint(&config);
        // The half-open trial succeeded: fully closed again — available
        // immediately (no residual cooldown) and with the failure count
        // reset, so one new failure must NOT re-open it.
        endpoint.record_success();
        let now = Instant::now();
        assert!(endpoint.available(now));
        endpoint.record_failure(&config, now);
        assert!(
            endpoint.available(now),
            "a closed breaker needs threshold consecutive failures again"
        );
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_full_cooldown() {
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        };
        let endpoint = opened_endpoint(&config);
        // The half-open trial failed: one failure is enough to slam the
        // breaker shut again for a whole fresh cooldown.
        let probe_time = Instant::now() + config.cooldown;
        endpoint.record_failure(&config, probe_time);
        assert!(!endpoint.available(probe_time));
        assert!(
            !endpoint.available(probe_time + config.cooldown - Duration::from_millis(1)),
            "re-opened breaker must shed for a full cooldown from the failed probe"
        );
        assert!(endpoint.available(probe_time + config.cooldown));
    }

    /// The same two probe paths over the real wire: a dead replica opens
    /// its breaker; after the cooldown, the half-open probe either finds
    /// it recovered (breaker closes, endpoint back in rotation) or still
    /// dead (breaker re-opens).
    #[test]
    fn half_open_probe_over_the_wire() {
        use crate::cluster::{ReplicaSet, ReplicaSetConfig};
        use crate::rules::RuleBook;

        let mut set = ReplicaSet::start(
            smacs_crypto::Keypair::from_seed(77),
            RuleBook::permissive(),
            ReplicaSetConfig::default(),
        )
        .unwrap();
        let cooldown = Duration::from_millis(200);
        let client = FailoverClient::with_config(
            set.addrs(),
            HttpClientConfig {
                connect_timeout: Duration::from_millis(300),
                io_timeout: Duration::from_millis(300),
            },
            RetryPolicy {
                attempts: 4,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(8),
                deadline: Duration::from_secs(5),
            },
            BreakerConfig {
                failure_threshold: 2,
                cooldown,
            },
        );
        client.ping().unwrap();
        set.kill(0);
        for _ in 0..8 {
            client.ping().unwrap();
        }
        assert_eq!(client.open_breakers(), 1, "dead replica must open");

        // Probe-fails path: cooldown passes, the corpse is probed again
        // and the breaker re-opens.
        std::thread::sleep(cooldown + Duration::from_millis(50));
        for _ in 0..8 {
            client.ping().unwrap();
        }
        assert_eq!(client.open_breakers(), 1, "failed probe must re-open");

        // Probe-succeeds path: the replica comes back; after the next
        // cooldown the probe lands, the breaker closes and stays closed.
        set.recover(0).unwrap();
        std::thread::sleep(cooldown + Duration::from_millis(50));
        for _ in 0..8 {
            client.ping().unwrap();
        }
        assert_eq!(client.open_breakers(), 0, "successful probe must close");
        set.shutdown();
    }

    #[test]
    fn from_urls_skips_garbage() {
        assert!(FailoverClient::from_urls(&["ftp://nope", "gibberish"]).is_none());
        let client =
            FailoverClient::from_urls(&["gibberish", "http://127.0.0.1:9", "http://127.0.0.1:10"])
                .unwrap();
        assert_eq!(client.endpoint_count(), 2);
    }
}
