//! The TS's one listener type, [`Endpoint`], and its keep-alive client,
//! [`HttpClient`]: protocol v2 ([`crate::front`]) over pooled HTTP/1.1 —
//! the prototype's stand-in for the paper's "HTTPS-enabled web interface".
//!
//! Every listener binds through [`Endpoint::bind`] under an
//! [`EndpointScope`]: the client-facing listener is
//! [`EndpointScope::Public`], each replica's vote endpoint
//! [`EndpointScope::Vote`] (see [`crate::cluster`]). The scope is a bind
//! argument, not a config field, so no config literal can downgrade a
//! vote endpoint or open a public one to the vote ops.
//!
//! # Threading model
//!
//! The server is **readiness-driven**: one reactor thread
//! (`reactor.rs`, epoll via the in-repo `libc` shim) multiplexes
//! the accept listener and *every* parked keep-alive socket, and a
//! **fixed worker pool** ([`smacs_primitives::pool`]) does all the actual
//! serving — so concurrent keep-alive clients cost `O(workers)` threads
//! and an *idle* connection costs zero CPU (one registered fd, no sweep):
//!
//! - the **reactor** (one thread) blocks in `epoll_wait` until a parked
//!   connection has bytes (or closed) or the listener has a pending
//!   accept burst. Readable connections are dispatched to the pool's
//!   **high-priority lane**; the accept burst becomes one **low-priority
//!   lane** drain job — under a connection storm, signing and request
//!   serving always cut ahead of new accepts, so `issue_batch` latency
//!   holds. A full high lane keeps the ready connection in the reactor's
//!   retry backlog (the bytes wait in the socket; nothing is dropped).
//! - **pool workers** serve a connection's requests back-to-back while
//!   data keeps arriving (a short `KEEPALIVE_GRACE` covers the client's
//!   turnaround), then *park* the idle connection in the reactor and move
//!   on — a worker is only ever occupied by a connection that is actually
//!   talking. The **lifecycle of a parked connection** is: park
//!   (epoll-register, one-shot) → readable event → high-lane job → served
//!   back-to-back → re-park; or reaped on peer
//!   close / [`HttpServerConfig::idle_timeout`] expiry, both detected by
//!   the same readiness event, never by polling.
//! - the **accept-drain job** (low lane) accepts until the backlog is
//!   empty, parking each new connection so its first request arrives as
//!   a readiness event; beyond [`HttpServerConfig::max_connections`] it
//!   answers a fast `503` with a v2 `internal` error instead of growing
//!   without bound, then re-arms the listener registration.
//!
//! Batch issuance fans its signing across the same pool (see
//! [`crate::service::TokenService::issue_batch`]); pass a shared pool via
//! [`HttpServerConfig::pool`] to run connections and signing on one set of
//! workers — the fan-out's caller-participation makes that safe even when
//! every worker is busy.
//!
//! [`Endpoint::shutdown`] is deterministic: it wakes the reactor
//! through its eventfd (no self-connect hack), which closes the listener
//! and every parked connection and exits; in-flight requests finish and
//! their workers observe the flag; every thread is joined.
//!
//! [`HttpClient`] is the wire implementation of [`TsApi`]: protocol-v2
//! envelopes over one persistent connection. Before reusing a pooled
//! connection it probes for staleness (server restart, idle-timeout
//! close) and transparently reconnects once, so non-idempotent calls
//! never burn a round on a connection the server already abandoned; a
//! failure *after* the request was sent is only retried for idempotent
//! ops.
//!
//! # Wire cost
//!
//! One HTTP message is one `write`: every request and response is
//! assembled in memory and handed to the socket in a single `write_all`
//! (`write_message` is the only place bytes reach a socket). Sockets run
//! `TCP_NODELAY`, so every `write` is a TCP segment and a peer wake-up —
//! and `write!` onto a bare stream issues one `write` per format fragment
//! (14 segments for a request, 10 for a response, where 1 + 1 suffice).
//! The read side makes no such assumption: requests that *arrive*
//! fragmented, or several to a segment, are served all the same.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use smacs_primitives::json::{self, FromJson, Json, ToJson};
use smacs_primitives::pool::Priority;
use smacs_primitives::{Address, WorkerPool};
use smacs_token::{Token, TokenRequest};

use crate::api::{
    ApiError, BatchRequestBody, BatchResponseBody, DiscoverBody, DiscoverResponseBody, ErrorCode,
    IssueBody, RequestEnvelope, ResponseEnvelope, SetRulesBody, TsApi, PROTOCOL_VERSION,
};
use crate::discovery::ContractMetadata;
use crate::fault::FaultPlan;
use crate::front::{decode_token_hex, EndpointScope, FrontEnd};
use crate::reactor::{Reactor, ReactorClient};
use crate::rules::RuleBook;

/// Request bodies above this size are refused (HTTP 413). Generous: a
/// full 256-request argument-token batch with kilobyte calldata fits.
const MAX_BODY_BYTES: usize = 8 << 20;

/// Ceiling on a message head (request/status line plus every header line,
/// which bounds the header count with it). Over it the server answers 431
/// and closes; the client fails the round trip with `InvalidData`.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Ceiling on requests one worker serves on a single connection before
/// parking it anyway — keeps one firehose client from starving the queue.
const TURN_QUOTA: usize = 128;

/// Socket timeout for reading a request once its first byte arrived and
/// for writing responses; a peer that stalls longer loses the connection
/// (bounds how long a worker can be pinned by one slow client).
const REQUEST_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The body answered when [`HttpServerConfig::max_connections`] is
/// reached: a protocol-v2 error envelope a [`HttpClient`] decodes into
/// [`ErrorCode::Internal`].
const OVERLOADED_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"internal","message":"server overloaded"}}"#;

/// The body answered for a fault-injected service failure ([`FaultPlan::
/// fail_requests`]): an HTTP 500 whose envelope decodes to `internal`.
const FAULTED_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"internal","message":"injected service fault"}}"#;

/// The server's own refusals, each answered with `Connection: close`
/// because the stream cannot be framed any further: v2 error envelopes,
/// so a [`HttpClient`] decodes them into [`ErrorCode::BadEnvelope`].
const HEAD_TOO_LARGE_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"request head too large"}}"#;
const NOT_POST_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"POST only"}}"#;
const NO_LENGTH_BODY: &str = r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"missing or invalid Content-Length"}}"#;
const BODY_TOO_LARGE_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"body too large"}}"#;

/// How long a worker waits for the next pipelined request before parking
/// a connection. Loopback turnarounds are microseconds, so a short grace
/// keeps hot connections on their worker.
const KEEPALIVE_GRACE: Duration = Duration::from_millis(1);

/// Kernel listen backlog. A connection storm queues here (absorbed at
/// kernel cost, drained at low priority) instead of seeing resets.
const ACCEPT_BACKLOG: libc::c_int = 1_024;

/// Bound on the pool's **low-priority lane** (accept-drain jobs) of a
/// server-owned pool.
const ACCEPT_QUEUE_CAPACITY: usize = 64;

/// Tuning knobs for [`Endpoint::bind`]: public fields over
/// [`Default`].
#[derive(Clone)]
pub struct HttpServerConfig {
    /// Connection/signing worker threads. Defaults to
    /// `2 × available_parallelism` (min 2): connection turns block on
    /// socket I/O, so running more workers than cores keeps the CPU busy.
    /// Ignored when [`HttpServerConfig::pool`] supplies a pool.
    pub workers: usize,
    /// Bound on the pool's **high-priority lane** (request-serving and
    /// signing jobs). When full, ready connections wait in the reactor's
    /// retry backlog — their bytes sit in the socket; nothing is lost.
    /// Ignored when [`HttpServerConfig::pool`] supplies a pool.
    pub queue_capacity: usize,
    /// Parked connections idle longer than this are closed (`None`: kept
    /// forever). Enforced by the reactor on a coarse timer (a quarter of
    /// the limit), not per-connection polling.
    pub idle_timeout: Option<Duration>,
    /// Share an existing pool (e.g. the one the wrapped `TokenService`
    /// fans batch signing across) instead of creating a server-owned one.
    /// A shared pool is *not* shut down when the server stops.
    pub pool: Option<Arc<WorkerPool>>,
    /// Bind to this exact address instead of an OS-assigned loopback port.
    /// [`crate::cluster::ReplicaSet`] uses it to restart a recovered
    /// replica on the address clients already know.
    pub bind: Option<SocketAddr>,
    /// Transport/service fault injection for availability tests. `None`
    /// (the default) serves faithfully.
    pub faults: Option<Arc<FaultPlan>>,
    /// Ceiling on concurrently open (parked + in-flight) connections.
    /// Beyond it, new accepts are answered with a fast 503 and closed —
    /// bounding fds and memory instead of growing without limit.
    pub max_connections: usize,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        HttpServerConfig {
            workers: (2 * cores).max(2),
            queue_capacity: 1024,
            idle_timeout: None,
            pool: None,
            bind: None,
            faults: None,
            max_connections: 65_536,
        }
    }
}

/// Decrements the server's open-connection count when the connection
/// drops (however it drops: served close, reaped idle, shutdown).
struct ConnCount {
    open: Arc<AtomicUsize>,
    total_after_increment: usize,
}

impl ConnCount {
    fn track(open: Arc<AtomicUsize>) -> ConnCount {
        let total_after_increment = open.fetch_add(1, Ordering::SeqCst) + 1;
        ConnCount {
            open,
            total_after_increment,
        }
    }
}

impl Drop for ConnCount {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One keep-alive connection: the buffered reader owns the stream (writes
/// go through `reader.get_mut()`), so buffered-but-unserved pipelined
/// bytes travel with the connection when it parks.
struct Conn {
    reader: BufReader<TcpStream>,
    _count: ConnCount,
}

impl Conn {
    fn new(stream: TcpStream, count: ConnCount) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(REQUEST_IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            _count: count,
        })
    }

    fn stream(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        self.reader.get_ref().as_raw_fd()
    }
}

/// State shared by the reactor thread and connection jobs.
struct ServerShared {
    front: Arc<FrontEnd>,
    pool: Arc<WorkerPool>,
    reactor: Arc<Reactor<Conn>>,
    shutdown: AtomicBool,
    faults: Option<Arc<FaultPlan>>,
    scope: EndpointScope,
    max_connections: usize,
    open_connections: Arc<AtomicUsize>,
    /// Self-reference so reactor callbacks can hand `Arc` clones to jobs.
    me: Weak<ServerShared>,
}

impl ReactorClient<Conn> for ServerShared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A parked connection became readable (or closed): dispatch a serve
    /// turn on the pool's high-priority lane. On a full lane the
    /// connection goes back to the reactor's retry backlog — data waits
    /// in the socket, no request is dropped.
    fn on_ready(&self, conn: Conn) -> Result<(), Conn> {
        if self.shutting_down() {
            return Ok(()); // drop: shutdown closes keep-alive connections
        }
        let Some(me) = self.me.upgrade() else {
            return Ok(());
        };
        // The connection rides in a shared slot so a refused submission
        // can reclaim it (a consumed closure can't give it back).
        let slot = Arc::new(Mutex::new(Some(conn)));
        let job_slot = slot.clone();
        let submitted = self.pool.try_execute(move || {
            let conn = job_slot.lock().expect("conn slot").take();
            if let Some(conn) = conn {
                serve_turn(&me, conn);
            }
        });
        match submitted {
            Ok(()) => Ok(()),
            Err(_) => match slot.lock().expect("conn slot").take() {
                Some(conn) => Err(conn),
                None => Ok(()),
            },
        }
    }

    /// The listener has a pending burst: queue one low-priority drain job.
    fn on_accept_ready(&self) -> bool {
        let Some(me) = self.me.upgrade() else {
            return true;
        };
        self.pool
            .try_execute_prio(Priority::Low, move || accept_drain(&me))
            .is_ok()
    }
}

/// A bound, serving listener: `front` behind the reactor, the worker
/// pool and the [`FaultPlan`] injection points. Dropping an `Endpoint`
/// shuts it down; prefer [`Endpoint::shutdown`] for a deterministic join.
pub struct Endpoint {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    owns_pool: bool,
    reactor_handle: Option<JoinHandle<()>>,
}

impl Endpoint {
    /// Serve `front` under `scope` on `config.bind` (or an OS-assigned
    /// loopback port).
    pub fn bind(
        front: Arc<FrontEnd>,
        scope: EndpointScope,
        config: HttpServerConfig,
    ) -> std::io::Result<Endpoint> {
        let listener = match config.bind {
            Some(addr) => TcpListener::bind(addr)?,
            None => TcpListener::bind("127.0.0.1:0")?,
        };
        let addr = listener.local_addr()?;
        // Deepen the kernel accept backlog past std's default so a
        // connection storm queues (drained at low priority) instead of
        // seeing resets. Re-calling listen(2) on a listening socket only
        // updates the backlog.
        // SAFETY: a plain syscall on a descriptor `listener` owns and keeps
        // open across the call; no memory is passed.
        unsafe {
            libc::listen(listener.as_raw_fd(), ACCEPT_BACKLOG);
        }
        let owns_pool = config.pool.is_none();
        let pool = config.pool.unwrap_or_else(|| {
            WorkerPool::with_lanes(config.workers, config.queue_capacity, ACCEPT_QUEUE_CAPACITY)
        });
        let reactor = Arc::new(Reactor::new(listener, config.idle_timeout)?);
        let shared = Arc::new_cyclic(|me| ServerShared {
            front,
            pool,
            reactor,
            shutdown: AtomicBool::new(false),
            faults: config.faults,
            scope,
            max_connections: config.max_connections.max(1),
            open_connections: Arc::new(AtomicUsize::new(0)),
            me: me.clone(),
        });

        let run_shared = shared.clone();
        let reactor_handle = std::thread::Builder::new()
            .name("smacs-http-reactor".into())
            .spawn(move || run_shared.reactor.run(&*run_shared))?;

        Ok(Endpoint {
            addr,
            shared,
            owns_pool,
            reactor_handle: Some(reactor_handle),
        })
    }

    /// [`Endpoint::bind`], retrying briefly on failure — the recovery
    /// path rebinds an address the kernel may be slow to release after
    /// the previous listener closed.
    pub fn bind_retry(
        front: Arc<FrontEnd>,
        scope: EndpointScope,
        config: HttpServerConfig,
    ) -> std::io::Result<Endpoint> {
        let mut last_err = None;
        for _ in 0..50 {
            match Endpoint::bind(front.clone(), scope, config.clone()) {
                Ok(endpoint) => return Ok(endpoint),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        Err(last_err.expect("retry loop ran"))
    }

    /// The bound address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service URL for [`crate::discovery`] metadata.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Connections currently parked idle (diagnostics for probes/tests).
    pub fn parked_connections(&self) -> usize {
        self.shared.reactor.parked_len()
    }

    /// Connections currently open — parked plus in-flight (diagnostics).
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the (possibly indefinitely blocked) epoll wait through the
        // reactor's eventfd; it closes the listener and every parked
        // connection, then exits.
        self.shared.reactor.wake();
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
        if self.owns_pool {
            // In-flight connection turns finish their current request and
            // observe the shutdown flag; queued-but-unstarted ones are
            // dropped (their connections close).
            self.shared.pool.shutdown();
        }
    }

    /// Graceful shutdown, deterministic: wake the reactor (eventfd), which
    /// closes the listener and parked (idle) keep-alive connections and
    /// exits; finish in-flight requests; join the reactor thread and
    /// (when server-owned) the worker pool.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One low-priority pool job: drain the kernel accept backlog, parking
/// each new connection in the reactor (its first request then arrives as
/// a readiness event), and re-arm the listener registration when empty.
/// Running at low priority is the storm defence: queued request/signing
/// jobs always cut ahead of taking on new connections.
fn accept_drain(shared: &Arc<ServerShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match shared.reactor.try_accept() {
            Ok((stream, _)) => {
                let count = ConnCount::track(shared.open_connections.clone());
                if count.total_after_increment > shared.max_connections {
                    // Fast, decodable refusal; dropping `count` (with the
                    // stream) keeps the book balanced.
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(REQUEST_IO_TIMEOUT));
                    let _ = write_response(&mut stream, 503, true, OVERLOADED_BODY);
                    continue;
                }
                let Ok(conn) = Conn::new(stream, count) else {
                    continue;
                };
                let _ = shared.reactor.park(conn); // failure drops (closes)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                // Listener closed (shutdown) or transient failure (EMFILE
                // etc.): back off briefly so the level-triggered re-arm
                // below cannot spin a worker hot on a persistent error.
                std::thread::sleep(Duration::from_millis(10));
                break;
            }
        }
    }
    shared.reactor.rearm_accept();
}

/// What a readiness probe on an idle connection found.
enum Readiness {
    /// Bytes are waiting to be read.
    Ready,
    /// Still connected, nothing pending.
    Idle,
    /// Peer closed (or the socket errored).
    Closed,
}

/// Blocking peek bounded by `grace`: catches the next pipelined request
/// without a park/poll round trip when the client is actively talking.
fn await_data(conn: &mut Conn, grace: Duration) -> Readiness {
    if !conn.reader.buffer().is_empty() {
        return Readiness::Ready;
    }
    let stream = conn.stream();
    if stream
        .set_read_timeout(Some(grace.max(Duration::from_micros(1))))
        .is_err()
    {
        return Readiness::Closed;
    }
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => Readiness::Closed,
        Ok(_) => Readiness::Ready,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Readiness::Idle
        }
        Err(_) => Readiness::Closed,
    }
}

/// One pool job: serve requests on `conn` while data keeps arriving, then
/// park it in the reactor (or drop it on close/error/shutdown).
fn serve_turn(shared: &Arc<ServerShared>, mut conn: Conn) {
    for _ in 0..TURN_QUOTA {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // drop: shutdown closes keep-alive connections
        }
        match await_data(&mut conn, KEEPALIVE_GRACE) {
            Readiness::Ready => {}
            Readiness::Idle => {
                park(shared, conn);
                return;
            }
            Readiness::Closed => return,
        }
        match serve_one_request(&mut conn, shared) {
            Ok(false) => continue,
            Ok(true) | Err(_) => return, // explicit close or broken pipe
        }
    }
    // Quota exhausted: hand the still-hot connection back through the
    // reactor (re-queued behind whoever else is waiting) so one firehose
    // client cannot starve everyone else.
    shared.reactor.hand_back(conn);
}

fn park(shared: &ServerShared, conn: Conn) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return; // drop: shutdown closes keep-alive connections
    }
    // Buffered pipelined bytes never hit the socket again, so epoll would
    // sleep through them: such a connection must re-queue, not park.
    // (`await_data` returning `Idle` implies an empty buffer; this guards
    // the invariant regardless of the call path.)
    if !conn.reader.buffer().is_empty() {
        shared.reactor.hand_back(conn);
        return;
    }
    // Registration failure (or post-shutdown park) drops the connection,
    // closing its socket.
    let _ = shared.reactor.park(conn);
}

/// Headers both ends care about: body length (`None` when absent *or*
/// unparseable — callers must reject rather than guess, or the keep-alive
/// stream desynchronizes) and connection intent.
struct Headers {
    content_length: Option<usize>,
    close: bool,
}

/// Read one message head — the request/status line and the header lines
/// up to the blank separator — or `None` on a clean EOF before its first
/// byte. One parser for the server and the client so the two ends can
/// never disagree on framing. The whole head is read through one
/// [`MAX_HEAD_BYTES`] budget: a peer streaming bytes with no `\n` gets
/// `InvalidData`, not server memory.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<Option<(String, Headers)>> {
    let mut head = reader.take(MAX_HEAD_BYTES as u64);
    let mut start_line = None;
    let mut headers = Headers {
        content_length: None,
        close: false,
    };
    loop {
        let mut line = String::new();
        if head.read_line(&mut line)? == 0 && start_line.is_none() {
            return Ok(None);
        }
        if !line.ends_with('\n') {
            return Err(if head.limit() == 0 {
                std::io::Error::new(ErrorKind::InvalidData, "message head too large")
            } else {
                std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-head")
            });
        }
        if start_line.is_none() {
            start_line = Some(line);
            continue;
        }
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            return Ok(start_line.map(|start_line| (start_line, headers)));
        }
        if let Some(value) = line.strip_prefix("content-length:") {
            headers.content_length = value.trim().parse().ok();
        }
        if let Some(value) = line.strip_prefix("connection:") {
            headers.close = value.trim() == "close";
        }
    }
}

/// Read a `content_length`-byte body (already checked against
/// [`MAX_BODY_BYTES`]). The buffer grows with the bytes that actually
/// arrive, not with what the peer declared — a declaration costs nothing.
fn read_body(reader: &mut impl Read, content_length: usize) -> std::io::Result<String> {
    let mut body = Vec::with_capacity(content_length.min(64 << 10));
    if reader.take(content_length as u64).read_to_end(&mut body)? < content_length {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    Ok(String::from_utf8(body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// Serve exactly one `POST` request off `conn`. `Ok(close)` reports
/// whether the connection must close afterwards; any `Err` poisons the
/// stream (framing is unrecoverable) and the caller drops it.
fn serve_one_request(conn: &mut Conn, shared: &ServerShared) -> std::io::Result<bool> {
    let front = &*shared.front;
    // The first byte is known to be pending; the rest of the request gets
    // a bounded window so a stalling client can't pin this worker.
    conn.stream().set_read_timeout(Some(REQUEST_IO_TIMEOUT))?;

    let (request_line, headers) = match read_head(&mut conn.reader) {
        Ok(Some(head)) => head,
        Ok(None) => return Ok(true), // client closed the connection
        // Over the head cap (or not UTF-8): the stream cannot be framed
        // any further, so refuse and close.
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            return refuse(conn, 431, HEAD_TOO_LARGE_BODY)
        }
        Err(e) => return Err(e),
    };
    let method = request_line.split_whitespace().next().unwrap_or("");
    let client_close = headers.close;

    if method != "POST" {
        return refuse(conn, 405, NOT_POST_BODY);
    }
    // A POST without a parseable Content-Length cannot be framed: refuse
    // and close rather than guess (guessing would leave body bytes in the
    // stream and desynchronize later keep-alive requests).
    let Some(content_length) = headers.content_length else {
        return refuse(conn, 400, NO_LENGTH_BODY);
    };
    // Oversized bodies are refused with the connection closed, for the
    // same framing reason.
    if content_length > MAX_BODY_BYTES {
        return refuse(conn, 413, BODY_TOO_LARGE_BODY);
    }
    let body = read_body(&mut conn.reader, content_length)?;

    // Pre-dispatch faults: the request is fully read but *never* reaches
    // the service — what a crash between receive and dispatch looks like.
    if let Some(faults) = &shared.faults {
        if faults.take_drop() {
            return Ok(true); // close silently, no response
        }
        if faults.take_fail() {
            write_response(conn.stream(), 500, true, FAULTED_BODY)?;
            return Ok(true);
        }
    }

    let response = front.handle_json_scoped(&body, shared.scope);

    // Post-dispatch faults: the service's effects (minted tokens, burned
    // one-time indexes) are real; only the answer is delayed or lost.
    if let Some(faults) = &shared.faults {
        if let Some(delay) = faults.response_delay() {
            std::thread::sleep(delay);
        }
        if faults.take_truncate() {
            write_truncated_response(conn.stream(), &response)?;
            return Ok(true);
        }
    }

    write_response(conn.stream(), 200, client_close, &response)?;
    Ok(client_close)
}

/// Answer `code` with `body` and close: the connection cannot be framed
/// any further.
fn refuse(conn: &mut Conn, code: u16, body: &str) -> std::io::Result<bool> {
    write_response(conn.stream(), code, true, body)?;
    Ok(true)
}

/// The only place bytes reach a socket (see "Wire cost" in the module
/// doc): `head` and `body` leave in exactly one `write_all`.
fn write_message(out: &mut impl Write, head: String, body: &[u8]) -> std::io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    out.write_all(&message)
}

fn write_request(out: &mut impl Write, head_prefix: &str, body: &str) -> std::io::Result<()> {
    let head = format!("{head_prefix}{}\r\n\r\n", body.len());
    write_message(out, head, body.as_bytes())
}

fn response_head(code: u16, close: bool, content_length: usize) -> String {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Method Not Allowed",
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {content_length}\r\nConnection: {connection}\r\n\r\n"
    )
}

fn write_response(out: &mut impl Write, code: u16, close: bool, body: &str) -> std::io::Result<()> {
    write_message(out, response_head(code, close, body.len()), body.as_bytes())
}

/// A response truncated mid-body, connection closed: the client's body
/// read hits EOF and must treat the whole exchange as a transport failure
/// *after* the request was dispatched. Still a single write — the fault is
/// "response cut mid-body", not "response dribbled".
fn write_truncated_response(out: &mut impl Write, body: &str) -> std::io::Result<()> {
    let sent = &body.as_bytes()[..body.len() / 2];
    write_message(out, response_head(200, true, body.len()), sent)
}

/// Read one HTTP response (status line, headers, content-length body) off
/// `reader`, returning the status code and body.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(u16, String)> {
    let (status, headers) = read_head(reader)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        )
    })?;
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable status line {status:?}"),
            )
        })?;
    // An unframeable response poisons the whole persistent connection, so
    // surface it as an io::Error — round_trip drops the connection on any
    // io::Error, forcing a clean reconnect.
    let Some(content_length) = headers.content_length else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response missing a parseable Content-Length",
        ));
    };
    if content_length > MAX_BODY_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response body too large",
        ));
    }
    Ok((code, read_body(reader, content_length)?))
}

/// Socket tuning for [`HttpClient`]: every phase of a round trip is
/// bounded, so a hung or partitioned server costs a finite, configurable
/// wait instead of blocking the caller forever.
#[derive(Clone, Debug)]
pub struct HttpClientConfig {
    /// Ceiling on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Ceiling on each blocking read while awaiting the response.
    pub read_timeout: Duration,
    /// Ceiling on each blocking write while sending the request.
    pub write_timeout: Duration,
}

impl Default for HttpClientConfig {
    fn default() -> Self {
        HttpClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// How far a failed round trip got — the fact a failover layer needs to
/// decide whether a retry is safe.
#[derive(Debug)]
pub(crate) enum CallError {
    /// The transport failed. `sent` reports whether any request bytes may
    /// have reached the server: `false` means the failure happened while
    /// connecting (nothing transmitted — always safe to retry), `true`
    /// means the request may have been received and even executed.
    Transport {
        /// Whether request bytes may have gone out.
        sent: bool,
        /// The decoded failure.
        error: ApiError,
    },
    /// The server answered an HTTP 5xx (overload or injected fault). The
    /// request reached the server; whether it was dispatched is unknown.
    Server {
        /// The HTTP status code.
        status: u16,
        /// The decoded (or synthesized) error body.
        error: ApiError,
    },
    /// A well-formed application-level error envelope (rule violation,
    /// `counter_unavailable`, …). The operation definitively ran; there
    /// is nothing for a transport-level retry to fix.
    Api(ApiError),
}

impl CallError {
    /// Collapse to the plain [`ApiError`] a single-endpoint caller sees,
    /// preserving the HTTP status of a server-level failure in the message.
    pub(crate) fn into_api(self) -> ApiError {
        match self {
            CallError::Transport { error, .. } | CallError::Api(error) => error,
            CallError::Server { status, error } => {
                ApiError::new(error.code, format!("http {status}: {}", error.message))
            }
        }
    }
}

/// Where in the round trip an I/O error struck.
enum IoFailure {
    /// While establishing the connection: nothing was transmitted.
    Connect(std::io::Error),
    /// While writing the request or reading the response: the request may
    /// have reached (and been executed by) the server.
    AfterSend(std::io::Error),
}

/// Render an I/O error as a transport [`ApiError`], naming timeouts
/// distinguishably (`set_read_timeout`/`set_write_timeout` expirations
/// surface as `WouldBlock`/`TimedOut` depending on platform).
fn transport_error(phase: &str, e: &std::io::Error) -> ApiError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        ApiError::new(ErrorCode::Transport, format!("{phase} timed out: {e}"))
    } else {
        ApiError::new(ErrorCode::Transport, format!("{phase} failed: {e}"))
    }
}

impl IoFailure {
    fn sent(&self) -> bool {
        matches!(self, IoFailure::AfterSend(_))
    }

    fn into_call_error(self) -> CallError {
        let (sent, error) = match &self {
            IoFailure::Connect(e) => (false, transport_error("connect", e)),
            IoFailure::AfterSend(e) => (true, transport_error("round trip", e)),
        };
        CallError::Transport { sent, error }
    }
}

/// The wire implementation of [`TsApi`]: protocol-v2 envelopes over one
/// keep-alive HTTP connection.
///
/// The connection is lazy (opened on first use) and persistent. Before
/// each reuse the client probes the pooled connection with a non-blocking
/// peek: a connection the server has since closed (restart, idle timeout)
/// is detected *before* the request is sent and replaced transparently —
/// safe for every op, because nothing was transmitted yet. Failures after
/// the request went out are retried on a fresh connection only for
/// idempotent ops. Every socket phase is bounded by [`HttpClientConfig`]
/// timeouts, so a hung server surfaces as a distinguishable "timed out"
/// [`ErrorCode::Transport`] error instead of blocking forever.
pub struct HttpClient {
    addr: SocketAddr,
    /// Everything of a request head that precedes the body length,
    /// formatted once (`SocketAddr`'s `Display` alone is 9 fragments).
    request_head: String,
    config: HttpClientConfig,
    conn: parking_lot::Mutex<Option<BufReader<TcpStream>>>,
}

impl HttpClient {
    /// A client for the server at `addr` with default timeouts. No I/O
    /// happens until the first call.
    pub fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient::connect_with(addr, HttpClientConfig::default())
    }

    /// A client with explicit socket timeouts.
    pub fn connect_with(addr: SocketAddr, config: HttpClientConfig) -> HttpClient {
        HttpClient {
            addr,
            request_head: format!(
                "POST / HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: "
            ),
            config,
            conn: parking_lot::Mutex::new(None),
        }
    }

    /// A client from a discovery URL (`http://ip:port`, as published in
    /// [`ContractMetadata::token_service_url`]).
    pub fn from_url(url: &str) -> Option<HttpClient> {
        let addr = url.strip_prefix("http://")?.parse().ok()?;
        Some(HttpClient::connect(addr))
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn round_trip_once(
        &self,
        conn: &mut Option<BufReader<TcpStream>>,
        body: &str,
    ) -> Result<(u16, String), IoFailure> {
        if conn.is_none() {
            let stream = (|| {
                let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(self.config.read_timeout))?;
                stream.set_write_timeout(Some(self.config.write_timeout))?;
                Ok(stream)
            })()
            .map_err(IoFailure::Connect)?;
            *conn = Some(BufReader::new(stream));
        }
        let reader = conn.as_mut().expect("connection just ensured");
        write_request(reader.get_mut(), &self.request_head, body).map_err(IoFailure::AfterSend)?;
        read_response(reader).map_err(IoFailure::AfterSend)
    }

    /// One keep-alive round trip.
    ///
    /// A pooled connection is preflighted first: if the server already
    /// closed it (restart, idle timeout) it is replaced before anything is
    /// sent — a transparent reconnect that is safe for *all* ops. After
    /// the request has been written, a failure is retried on a fresh
    /// connection only for `idempotent` operations: a lost *response* is
    /// indistinguishable from a lost *request*, and replaying an issuance
    /// could mint twice (burning one-time counter indexes).
    fn round_trip(&self, body: &str, idempotent: bool) -> Result<(u16, String), CallError> {
        let mut conn = self.conn.lock();
        if conn.as_mut().is_some_and(connection_is_stale) {
            *conn = None;
        }
        let had_connection = conn.is_some();
        match self.round_trip_once(&mut conn, body) {
            Ok(response) => Ok(response),
            Err(first) => {
                *conn = None;
                if !had_connection || (first.sent() && !idempotent) {
                    // Fresh connection already failed (retry won't help),
                    // or replay is unsafe for this op.
                    return Err(first.into_call_error());
                }
                self.round_trip_once(&mut conn, body).map_err(|e| {
                    *conn = None;
                    e.into_call_error()
                })
            }
        }
    }

    /// Send one v2 op, reporting failures with enough detail for a
    /// failover layer to decide whether retrying elsewhere is safe.
    pub(crate) fn call_detailed(
        &self,
        op: &str,
        body: Option<Json>,
        idempotent: bool,
    ) -> Result<Json, CallError> {
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            op: op.into(),
            body,
        };
        let (status, text) = self.round_trip(&json::to_string(&envelope), idempotent)?;
        let decoded = Json::parse(&text)
            .ok()
            .and_then(|json| ResponseEnvelope::from_json(&json).ok());
        if status >= 500 {
            // Overload (503) or injected fault (500): surface the decoded
            // envelope error when one came along, but tagged as a server
            // failure so failover can route around it.
            let error = decoded
                .and_then(|r| r.error)
                .map(ApiError::from)
                .unwrap_or_else(|| {
                    ApiError::new(ErrorCode::Internal, format!("server error {status}"))
                });
            return Err(CallError::Server { status, error });
        }
        let response = decoded.ok_or_else(|| {
            CallError::Api(ApiError::new(
                ErrorCode::Internal,
                "undecodable response envelope",
            ))
        })?;
        if response.ok {
            Ok(response.body.unwrap_or(Json::Null))
        } else {
            Err(CallError::Api(
                response
                    .error
                    .map(ApiError::from)
                    .unwrap_or_else(|| ApiError::new(ErrorCode::Internal, "error without detail")),
            ))
        }
    }

    /// Send one v2 op and return the success body (or the decoded error).
    fn call(&self, op: &str, body: Option<Json>) -> Result<Json, ApiError> {
        // Replaying `set_rules` re-applies the same whole-book replacement;
        // `discover`/`ping` are reads. Issuance is the non-idempotent pair.
        let idempotent = matches!(op, "ping" | "discover" | "set_rules");
        self.call_detailed(op, body, idempotent)
            .map_err(CallError::into_api)
    }
}

/// Whether a pooled client connection can no longer carry a request:
/// orderly FIN or error from the peer, or (never expected) stray unread
/// bytes that would desynchronize the response framing.
fn connection_is_stale(reader: &mut BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return true; // leftover response bytes: framing is already lost
    }
    let stream = reader.get_mut();
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let stale = match stream.peek(&mut probe) {
        Ok(0) => true, // server closed while we were idle
        Ok(_) => true, // unsolicited data: desynchronized
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    stale
}

impl TsApi for HttpClient {
    fn issue(&self, request: &TokenRequest) -> Result<Token, ApiError> {
        let body = IssueBody::from_json(&self.call("issue", Some(request.to_json()))?)
            .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad issue body: {e}")))?;
        decode_token_hex(&body.token_hex)
            .ok_or_else(|| ApiError::new(ErrorCode::Internal, "undecodable token_hex"))
    }

    fn issue_batch(
        &self,
        requests: &[TokenRequest],
    ) -> Result<Vec<Result<Token, ApiError>>, ApiError> {
        let body = BatchRequestBody {
            requests: requests.to_vec(),
        };
        let response =
            BatchResponseBody::from_json(&self.call("issue_batch", Some(body.to_json()))?)
                .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad batch body: {e}")))?;
        Ok(response
            .results
            .into_iter()
            .map(|item| item.into_result())
            .collect())
    }

    fn set_rules(&self, owner_secret: &str, rules: RuleBook) -> Result<(), ApiError> {
        let body = SetRulesBody {
            owner_secret: owner_secret.into(),
            rules,
        };
        self.call("set_rules", Some(body.to_json())).map(|_| ())
    }

    fn discover(&self, contract: Address) -> Result<Option<ContractMetadata>, ApiError> {
        let body = DiscoverResponseBody::from_json(
            &self.call("discover", Some(DiscoverBody { contract }.to_json()))?,
        )
        .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad discover body: {e}")))?;
        Ok(body.metadata)
    }

    fn ping(&self) -> Result<(), ApiError> {
        self.call("ping", None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleBook;
    use crate::service::{TokenService, TokenServiceConfig};
    use smacs_crypto::Keypair;
    use smacs_primitives::Address;
    use smacs_token::TokenRequest;
    use std::time::Instant;

    fn front() -> Arc<FrontEnd> {
        let service = TokenService::new(
            Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        Arc::new(FrontEnd::new(service, "secret", 0))
    }

    fn serve(config: HttpServerConfig) -> Endpoint {
        Endpoint::bind(front(), EndpointScope::Public, config).unwrap()
    }

    fn running_server() -> Endpoint {
        serve(HttpServerConfig::default())
    }

    fn request(low: u64) -> TokenRequest {
        TokenRequest::super_token(Address::from_low_u64(1), Address::from_low_u64(low))
    }

    /// Accepts everything, counts `write` calls, keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn v2(op: &str, body: Option<Json>) -> String {
        json::to_string(&RequestEnvelope {
            v: PROTOCOL_VERSION,
            op: op.into(),
            body,
        })
    }

    /// A raw keep-alive connection to `server`: the write half and a
    /// buffered read half, reads bounded so a hung server fails the test.
    fn raw_connection(server: &Endpoint) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn assert_bad_envelope(body: &str) {
        let envelope: ResponseEnvelope = json::from_str(body).expect("a v2 envelope");
        assert!(!envelope.ok, "{body}");
        assert_eq!(envelope.error.unwrap().code, "bad_envelope", "{body}");
    }

    /// Send `raw` on a fresh connection; the server must refuse it with a
    /// v2 `bad_envelope` body and hang up. Returns the status code.
    fn refusal(server: &Endpoint, raw: &[u8]) -> u16 {
        let (mut stream, mut reader) = raw_connection(server);
        stream.write_all(raw).unwrap();
        let (status, headers) = read_head(&mut reader).unwrap().unwrap();
        assert!(headers.close, "the refusal must announce the close");
        assert_bad_envelope(&read_body(&mut reader, headers.content_length.unwrap()).unwrap());
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap(); // EOF, not a read timeout
        status.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn every_message_leaves_in_exactly_one_write() {
        let client = HttpClient::connect("127.0.0.1:8080".parse().unwrap());
        for size in [0, 200, 64 << 10] {
            let body = "x".repeat(size);

            let mut request = CountingWriter::default();
            write_request(&mut request, &client.request_head, &body).unwrap();
            assert_eq!(request.writes, 1, "request, {size} B body");
            let mut wire = &request.bytes[..];
            let (request_line, headers) = read_head(&mut wire).unwrap().unwrap();
            assert_eq!(request_line, "POST / HTTP/1.1\r\n");
            assert_eq!(headers.content_length, Some(size));
            assert_eq!(read_body(&mut wire, size).unwrap(), body);

            let mut ok = CountingWriter::default();
            write_response(&mut ok, 200, false, &body).unwrap();
            assert_eq!(ok.writes, 1, "200, {size} B body");
            let (code, echoed) = read_response(&mut &ok.bytes[..]).unwrap();
            assert_eq!((code, echoed), (200, body.clone()));

            // Cut mid-body, but still one write: the full length is
            // declared, half the body follows, the reader hits EOF.
            let mut cut = CountingWriter::default();
            write_truncated_response(&mut cut, &body).unwrap();
            assert_eq!(cut.writes, 1, "truncated response, {size} B body");
            assert_eq!(
                cut.bytes.len(),
                response_head(200, true, size).len() + size / 2
            );
            if size > 0 {
                let err = read_response(&mut &cut.bytes[..]).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
            }
        }

        let mut overloaded = CountingWriter::default();
        write_response(&mut overloaded, 503, true, OVERLOADED_BODY).unwrap();
        assert_eq!(overloaded.writes, 1, "503");
        let (code, body) = read_response(&mut &overloaded.bytes[..]).unwrap();
        assert_eq!((code, body.as_str()), (503, OVERLOADED_BODY));

        // Every body the server writes on its own is a v2 error envelope.
        for body in [OVERLOADED_BODY, FAULTED_BODY] {
            let envelope: ResponseEnvelope = json::from_str(body).unwrap();
            assert_eq!(envelope.error.unwrap().code, "internal");
        }
        let refusals = [
            HEAD_TOO_LARGE_BODY,
            NOT_POST_BODY,
            NO_LENGTH_BODY,
            BODY_TOO_LARGE_BODY,
        ];
        refusals.into_iter().for_each(assert_bad_envelope);
    }

    #[test]
    fn oversized_or_unterminated_heads_are_invalid_data_not_memory() {
        // The client side of the head cap: a status line that never ends
        // and a header section that never ends both stop at the cap.
        let endless_line = vec![b'a'; 1 << 20];
        let err = read_response(&mut &endless_line[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let endless_headers = format!("HTTP/1.1 200 OK\r\n{}", "x: y\r\n".repeat(1 << 16));
        let err = read_response(&mut endless_headers.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // A head that fits the cap exactly is still served.
        let mut fits = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n".to_string();
        fits.push_str(&format!(
            "x: {}\r\n",
            "y".repeat(MAX_HEAD_BYTES - fits.len() - 7)
        ));
        fits.push_str("\r\nok");
        assert_eq!(fits.len(), MAX_HEAD_BYTES + 2);
        let (code, body) = read_response(&mut fits.as_bytes()).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok"));
    }

    #[test]
    fn body_shorter_than_declared_is_eof_without_the_declared_allocation() {
        let mut wire = &b"only ten b"[..];
        let err = read_body(&mut wire, MAX_BODY_BYTES).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_dribbled_one_byte_per_write_is_served_and_kept_alive() {
        let server = running_server();
        let (mut stream, mut reader) = raw_connection(&server);
        let mut request = Vec::new();
        write_request(
            &mut request,
            "POST / HTTP/1.1\r\nContent-Length: ",
            &v2("ping", None),
        )
        .unwrap();
        for byte in &request {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
        }
        let (status, headers) = read_head(&mut reader).unwrap().unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(!headers.close, "server must keep the connection alive");
        let body = read_body(&mut reader, headers.content_length.unwrap()).unwrap();
        assert!(body.contains(r#""ok":true"#), "{body}");
        // …and the same connection serves the next, unfragmented, request.
        stream.write_all(&request).unwrap();
        let (code, body) = read_response(&mut reader).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains(r#""ok":true"#), "{body}");
        server.shutdown();
    }

    #[test]
    fn requests_sharing_a_segment_are_answered_in_order() {
        // One write carries an issue followed by more pings than a serve
        // turn's quota: the worker must serve the buffered requests without
        // waiting on the (silent) socket, and the quota hand-back through
        // the reactor must carry the still-buffered tail with it.
        let server = running_server();
        let (mut stream, mut reader) = raw_connection(&server);
        let head_prefix = "POST / HTTP/1.1\r\nContent-Length: ";
        let mut segment = Vec::new();
        write_request(
            &mut segment,
            head_prefix,
            &v2("issue", Some(request(2).to_json())),
        )
        .unwrap();
        for _ in 0..=TURN_QUOTA {
            write_request(&mut segment, head_prefix, &v2("ping", None)).unwrap();
        }
        stream.write_all(&segment).unwrap();
        let (code, first) = read_response(&mut reader).unwrap();
        assert_eq!(code, 200);
        assert!(first.contains("token_hex"), "issue answered first: {first}");
        for _ in 0..=TURN_QUOTA {
            let (code, body) = read_response(&mut reader).unwrap();
            assert_eq!(code, 200);
            assert!(
                body.contains(r#""ok":true"#) && !body.contains("token_hex"),
                "{body}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn newline_free_head_is_refused_at_the_cap_and_the_socket_closed() {
        let server = running_server();
        let bystander = HttpClient::connect(server.addr());
        bystander.ping().unwrap();

        // Exactly the cap, no newline: the server has read every byte sent,
        // so the close is an orderly FIN and the refusal is readable.
        assert_eq!(refusal(&server, &vec![b'a'; MAX_HEAD_BYTES]), 431);
        bystander.ping().unwrap();

        // A 1 MiB newline-free head: the server stops reading at the cap
        // and hangs up on the unread rest, so the peer sees the refusal or
        // a reset — never a server that keeps buffering.
        let (mut stream, mut reader) = raw_connection(&server);
        let _ = stream.write_all(&vec![b'a'; 1 << 20]);
        let mut response = Vec::new();
        match reader.read_to_end(&mut response) {
            Ok(_) => {}
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "server kept the connection open: {e}"
            ),
        }
        assert!(
            response.is_empty() || response.starts_with(b"HTTP/1.1 431"),
            "{}",
            String::from_utf8_lossy(&response)
        );
        bystander.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn deeply_nested_body_is_a_bad_envelope_not_a_crash() {
        let server = running_server();
        let bystander = HttpClient::connect(server.addr());
        for depth in [100_000, 1 << 20] {
            let (mut stream, mut reader) = raw_connection(&server);
            let body = "[".repeat(depth);
            write_request(&mut stream, "POST / HTTP/1.1\r\nContent-Length: ", &body).unwrap();
            let (code, body) = read_response(&mut reader).unwrap();
            assert_eq!(code, 200);
            assert_bad_envelope(&body);
            bystander.ping().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn token_issuance_over_http_v2_client() {
        let server = running_server();
        let client = HttpClient::connect(server.addr());
        client.ping().unwrap();
        let token = client.issue(&request(2)).unwrap();
        assert_eq!(token.expire, 3_600);
        // Batch over the same kept-alive connection.
        let results = client.issue_batch(&[request(3), request(4)]).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        server.shutdown();
    }

    #[test]
    fn http_client_surfaces_transport_errors_after_shutdown() {
        let server = running_server();
        let established = HttpClient::connect(server.addr());
        established.ping().unwrap();
        let addr = server.addr();
        server.shutdown();
        // Graceful shutdown closes parked keep-alive connections and the
        // listener: both the established client (whose reconnect attempt
        // finds the listener gone) and a fresh one must surface a
        // transport error, not hang.
        let err = established.ping().unwrap_err();
        assert_eq!(err.code, ErrorCode::Transport);
        let fresh = HttpClient::connect(addr);
        let err = fresh.issue(&request(2)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Transport);
    }

    #[test]
    fn client_transparently_reconnects_after_server_idle_timeout() {
        // The server reaps connections idle > 40 ms; the client's pooled
        // connection goes stale, and the next call — *including* the
        // non-idempotent issue — must succeed via the preflight reconnect
        // instead of surfacing a transport error.
        let server = serve(HttpServerConfig {
            idle_timeout: Some(Duration::from_millis(40)),
            ..HttpServerConfig::default()
        });
        let client = HttpClient::connect(server.addr());
        client.ping().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            client.issue(&request(2)).is_ok(),
            "stale pooled connection must be replaced transparently"
        );
        server.shutdown();
    }

    #[test]
    fn connections_beyond_max_are_refused_with_fast_503() {
        // Two established keep-alive connections saturate a
        // max_connections(2) server: the third accept must be answered
        // with a fast, decodable 503 and closed — the bounded-overload
        // path — while the established two keep being served.
        let server = serve(HttpServerConfig {
            max_connections: 2,
            ..HttpServerConfig::default()
        });
        let held: Vec<HttpClient> = (0..2).map(|_| HttpClient::connect(server.addr())).collect();
        for client in &held {
            client.ping().unwrap(); // establish (and count) both
        }
        assert_eq!(server.open_connections(), 2);
        let refused = HttpClient::connect(server.addr());
        let start = Instant::now();
        let err = refused.ping().unwrap_err();
        assert!(
            matches!(err.code, ErrorCode::Internal | ErrorCode::Transport),
            "unexpected overload surface: {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "503 path must be fast, took {:?}",
            start.elapsed()
        );
        // The held connections are unaffected by the refusal…
        for client in &held {
            client.ping().unwrap();
        }
        // …and capacity freed by a closing client is reusable.
        drop(held);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            if HttpClient::connect(server.addr()).ping().is_ok() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "freed capacity never became accept-able"
            );
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = running_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = HttpClient::connect(addr);
                    client.issue(&request(100 + i)).is_ok()
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn non_post_is_rejected() {
        let server = running_server();
        assert_eq!(refusal(&server, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"), 405);
        server.shutdown();
    }

    #[test]
    fn oversized_content_length_is_refused_with_413_and_close() {
        // Head only: the declared 9 MiB never arrives, and is never
        // waited for.
        let server = running_server();
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 9 << 20);
        assert_eq!(refusal(&server, head.as_bytes()), 413);
        HttpClient::connect(server.addr()).ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_the_accept_loop_promptly() {
        let server = running_server();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn idle_connections_park_instead_of_pinning_workers() {
        let server = serve(HttpServerConfig {
            workers: 2,
            ..HttpServerConfig::default()
        });
        // More idle keep-alive clients than workers: all must get served
        // (so none is starved by a pinned worker) and then sit parked.
        let clients: Vec<HttpClient> = (0..6).map(|_| HttpClient::connect(server.addr())).collect();
        for client in &clients {
            client.ping().unwrap();
        }
        // Give the grace periods a moment to lapse.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.parked_connections() < clients.len() {
            assert!(
                Instant::now() < deadline,
                "only {} of {} connections parked",
                server.parked_connections(),
                clients.len()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Parked connections still answer when spoken to.
        for client in &clients {
            client.ping().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn bind_retry_recovers_a_just_freed_address() {
        let first = running_server();
        let addr = first.addr();
        first.shutdown();
        let again = Endpoint::bind_retry(
            front(),
            EndpointScope::Public,
            HttpServerConfig {
                bind: Some(addr),
                ..HttpServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(again.addr(), addr);
        HttpClient::connect(again.addr()).ping().unwrap();
        again.shutdown();
    }
}
