//! The readiness reactor behind [`crate::http::Endpoint`]: one thread
//! multiplexing *all* parked keep-alive sockets and the accept listener
//! through epoll (via the in-repo `libc` shim), so an idle connection
//! costs one registered fd and **zero CPU** until its next byte arrives —
//! replacing the poller-era 1 ms sweep whose cost grew O(n) with parked
//! connections.
//!
//! Mechanics:
//!
//! - Parked items are registered level-triggered with `EPOLLONESHOT`:
//!   the kernel reports each readiness exactly once, and the reactor
//!   removes the item from its table (plus `EPOLL_CTL_DEL`, so a later
//!   re-park can `ADD` again) before handing it to the client.
//! - The listener is also one-shot: an accept burst is a single event,
//!   answered by queueing one *low-priority* drain job; the job re-arms
//!   the registration when the backlog is empty. Level-triggered re-arm
//!   means connections that raced in meanwhile re-fire immediately.
//! - An `eventfd` wakes the loop for shutdown and for items workers hand
//!   back (hot connections re-entering the queue after their turn quota)
//!   — no self-connect hack, no polling.
//! - When the client's queue refuses a dispatch ([`ReactorClient::
//!   on_ready`] returns the item), the reactor parks it in a retry
//!   backlog and polls with a short timeout instead of blocking forever;
//!   the bytes wait in the socket, nothing is dropped.
//!
//! The reactor is generic over the parked item (anything `AsRawFd`) so
//! its register/re-arm/close races are unit-testable on bare
//! `TcpStream`s below, independent of HTTP.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token values 0/1 are reserved; parked items get 2+.
const TOKEN_WAKE: u64 = 0;
const TOKEN_ACCEPT: u64 = 1;

/// Poll timeout while dispatches await queue space (retry backlog).
const RETRY_DELAY_MS: libc::c_int = 5;

/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// How the reactor's owner reacts to readiness.
pub(crate) trait ReactorClient<T>: Send + Sync {
    /// The loop exits (closing everything it owns) once this is true.
    fn shutting_down(&self) -> bool;
    /// A parked item became readable (or closed — the client discovers
    /// which by reading). Return it to have the reactor retry shortly
    /// (dispatch queue full); the reactor never drops a ready item.
    fn on_ready(&self, item: T) -> Result<(), T>;
    /// The listener has pending connections: queue an accept-drain job.
    /// `false` means the queue refused and the reactor should retry.
    fn on_accept_ready(&self) -> bool;
}

struct ParkedItem<T> {
    item: T,
    since: Instant,
}

/// The readiness core: epoll fd + wake eventfd + listener + parked table.
pub(crate) struct Reactor<T> {
    epfd: libc::c_int,
    wake_fd: libc::c_int,
    listener: Mutex<Option<TcpListener>>,
    listener_fd: libc::c_int,
    parked: Mutex<HashMap<u64, ParkedItem<T>>>,
    /// Items workers hand back for immediate re-dispatch (quota-exhausted
    /// hot connections, or parked ones whose buffer still holds bytes).
    handback: Mutex<Vec<T>>,
    next_token: AtomicU64,
    /// Set by `close_all`: late `park` calls fail instead of leaking
    /// items into a table nobody will ever poll again.
    closed: AtomicBool,
    idle_timeout: Option<Duration>,
}

fn cvt(ret: libc::c_int) -> io::Result<libc::c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl<T: AsRawFd + Send> Reactor<T> {
    /// Build a reactor owning `listener` (switched to non-blocking and
    /// registered one-shot) plus a fresh epoll instance and wake eventfd.
    pub(crate) fn new(listener: TcpListener, idle_timeout: Option<Duration>) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let listener_fd = listener.as_raw_fd();
        let epfd = cvt(unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) })?;
        let wake_fd = match cvt(unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) })
        {
            Ok(fd) => fd,
            Err(e) => {
                unsafe { libc::close(epfd) };
                return Err(e);
            }
        };
        let reactor = Reactor {
            epfd,
            wake_fd,
            listener: Mutex::new(Some(listener)),
            listener_fd,
            parked: Mutex::new(HashMap::new()),
            handback: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(2),
            closed: AtomicBool::new(false),
            idle_timeout,
        };
        reactor.ctl(libc::EPOLL_CTL_ADD, wake_fd, libc::EPOLLIN, TOKEN_WAKE)?;
        reactor.ctl(
            libc::EPOLL_CTL_ADD,
            listener_fd,
            libc::EPOLLIN | libc::EPOLLONESHOT,
            TOKEN_ACCEPT,
        )?;
        Ok(reactor)
    }

    fn ctl(&self, op: libc::c_int, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        cvt(unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Park an idle item: it costs nothing until its fd becomes readable
    /// (or the peer closes), at which point it is dispatched exactly once.
    /// Fails after `close_all` (the caller should drop the item).
    pub(crate) fn park(&self, item: T) -> io::Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "reactor closed",
            ));
        }
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        let fd = item.as_raw_fd();
        // Insert before ADD so the event (which can fire on another
        // thread's epoll_wait immediately) always finds its item.
        self.parked.lock().expect("parked lock").insert(
            token,
            ParkedItem {
                item,
                since: Instant::now(),
            },
        );
        let armed = self.ctl(
            libc::EPOLL_CTL_ADD,
            fd,
            libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLONESHOT,
            token,
        );
        if armed.is_err() {
            self.parked.lock().expect("parked lock").remove(&token);
        }
        armed
    }

    /// Queue an item for immediate re-dispatch (no readiness wait) and
    /// wake the loop. Used by workers for quota-exhausted hot connections.
    pub(crate) fn hand_back(&self, item: T) {
        self.handback.lock().expect("handback lock").push(item);
        self.wake();
    }

    /// Wake a (possibly indefinitely) blocked `epoll_wait`.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { libc::write(self.wake_fd, (&one as *const u64).cast(), 8) };
    }

    /// Non-blocking accept off the owned listener.
    pub(crate) fn try_accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        match &*self.listener.lock().expect("listener lock") {
            Some(listener) => listener.accept(),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener closed",
            )),
        }
    }

    /// Re-enable the one-shot listener registration after an accept
    /// drain. Level-triggered: pending connections re-fire immediately.
    pub(crate) fn rearm_accept(&self) {
        if self.listener.lock().expect("listener lock").is_some() {
            let _ = self.ctl(
                libc::EPOLL_CTL_MOD,
                self.listener_fd,
                libc::EPOLLIN | libc::EPOLLONESHOT,
                TOKEN_ACCEPT,
            );
        }
    }

    /// Items currently parked (diagnostics).
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.lock().expect("parked lock").len()
    }

    /// Close the listener and drop every parked / handed-back item
    /// (dropping closes their sockets). Idempotent; later `park`s fail.
    pub(crate) fn close_all(&self) {
        self.closed.store(true, Ordering::SeqCst);
        *self.listener.lock().expect("listener lock") = None;
        self.parked.lock().expect("parked lock").clear();
        self.handback.lock().expect("handback lock").clear();
    }

    /// The reactor loop. Blocks in `epoll_wait` (indefinitely when
    /// nothing needs a timer) until shutdown; returns after `close_all`.
    pub(crate) fn run<C: ReactorClient<T>>(&self, client: &C) {
        let mut ready: VecDeque<T> = VecDeque::new();
        let mut accept_pending = false;
        let mut events = [libc::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        loop {
            if client.shutting_down() {
                self.close_all();
                return;
            }
            let timeout_ms: libc::c_int = if !ready.is_empty() || accept_pending {
                RETRY_DELAY_MS
            } else if self.idle_timeout.is_some() && self.parked_len() > 0 {
                // Reap expired idlers at a quarter of the limit's
                // granularity; without a timeout, block indefinitely —
                // that's the "idle connections cost zero CPU" property.
                let limit = self.idle_timeout.expect("checked above");
                (limit.as_millis() / 4).clamp(1, 500) as libc::c_int
            } else {
                -1
            };
            let n = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as libc::c_int,
                    timeout_ms,
                )
            };
            if client.shutting_down() {
                self.close_all();
                return;
            }
            for ev in events.iter().take(n.max(0) as usize) {
                let token = ev.u64;
                match token {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_ACCEPT => accept_pending = true,
                    token => {
                        let taken = self.parked.lock().expect("parked lock").remove(&token);
                        if let Some(parked) = taken {
                            // Fully deregister (one-shot only disarms) so
                            // a later re-park can ADD the fd again.
                            let _ = unsafe {
                                libc::epoll_ctl(
                                    self.epfd,
                                    libc::EPOLL_CTL_DEL,
                                    parked.item.as_raw_fd(),
                                    std::ptr::null_mut(),
                                )
                            };
                            ready.push_back(parked.item);
                        }
                    }
                }
            }
            ready.extend(self.handback.lock().expect("handback lock").drain(..));
            // Readable connections dispatch ahead of accepts — the
            // priority inversion the two-lane pool exists to prevent.
            while let Some(item) = ready.pop_front() {
                if let Err(item) = client.on_ready(item) {
                    ready.push_front(item);
                    break;
                }
            }
            if accept_pending && client.on_accept_ready() {
                accept_pending = false;
            }
            if let Some(limit) = self.idle_timeout {
                self.reap_idle(limit);
            }
        }
    }

    fn drain_wake(&self) {
        let mut buf: u64 = 0;
        // Nonblocking eventfd: one read collects all pending wakes.
        let _ = unsafe { libc::read(self.wake_fd, (&mut buf as *mut u64).cast(), 8) };
    }

    fn reap_idle(&self, limit: Duration) {
        let mut parked = self.parked.lock().expect("parked lock");
        let expired: Vec<u64> = parked
            .iter()
            .filter(|(_, p)| p.since.elapsed() >= limit)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if let Some(p) = parked.remove(&token) {
                let _ = unsafe {
                    libc::epoll_ctl(
                        self.epfd,
                        libc::EPOLL_CTL_DEL,
                        p.item.as_raw_fd(),
                        std::ptr::null_mut(),
                    )
                };
                // Dropping the item closes its socket.
            }
        }
    }
}

impl<T> Drop for Reactor<T> {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.wake_fd);
            libc::close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, OnceLock};

    /// Test client: parks every accepted stream, forwards every ready
    /// stream through a channel.
    struct EchoClient {
        shutdown: AtomicBool,
        ready_tx: Mutex<Sender<TcpStream>>,
        reactor: OnceLock<Arc<Reactor<TcpStream>>>,
        accept_events: AtomicUsize,
    }

    impl ReactorClient<TcpStream> for EchoClient {
        fn shutting_down(&self) -> bool {
            self.shutdown.load(Ordering::SeqCst)
        }
        fn on_ready(&self, item: TcpStream) -> Result<(), TcpStream> {
            let _ = self.ready_tx.lock().unwrap().send(item);
            Ok(())
        }
        fn on_accept_ready(&self) -> bool {
            self.accept_events.fetch_add(1, Ordering::SeqCst);
            let reactor = self.reactor.get().expect("reactor set");
            while let Ok((stream, _)) = reactor.try_accept() {
                reactor.park(stream).unwrap();
            }
            reactor.rearm_accept();
            true
        }
    }

    struct Rig {
        reactor: Arc<Reactor<TcpStream>>,
        client: Arc<EchoClient>,
        addr: SocketAddr,
        rx: std::sync::mpsc::Receiver<TcpStream>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    fn rig(idle_timeout: Option<Duration>) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Arc::new(Reactor::new(listener, idle_timeout).unwrap());
        let (tx, rx) = channel();
        let client = Arc::new(EchoClient {
            shutdown: AtomicBool::new(false),
            ready_tx: Mutex::new(tx),
            reactor: OnceLock::new(),
            accept_events: AtomicUsize::new(0),
        });
        client.reactor.set(reactor.clone()).ok().unwrap();
        let (r, c) = (reactor.clone(), client.clone());
        let thread = std::thread::spawn(move || r.run(&*c));
        Rig {
            reactor,
            client,
            addr,
            rx,
            thread: Some(thread),
        }
    }

    impl Rig {
        fn stop(mut self) {
            self.client.shutdown.store(true, Ordering::SeqCst);
            self.reactor.wake();
            self.thread.take().unwrap().join().unwrap();
        }
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn parked_stream_dispatches_once_per_readiness_and_rearms() {
        let rig = rig(None);
        let mut peer = TcpStream::connect(rig.addr).unwrap();
        peer.write_all(b"a").unwrap();
        // Accept → park → data already pending → immediate dispatch
        // (level-triggered ADD after the byte arrived still fires).
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        let mut byte = [0u8; 1];
        served.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"a");
        // Nothing further pending: re-parking must NOT re-dispatch…
        rig.reactor.park(served).unwrap();
        assert!(rig.rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(rig.reactor.parked_len(), 1);
        // …until the next byte arrives (the re-arm race).
        peer.write_all(b"b").unwrap();
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        served.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"b");
        assert_eq!(rig.reactor.parked_len(), 0);
        rig.stop();
    }

    #[test]
    fn peer_close_dispatches_the_parked_stream_for_reaping() {
        let rig = rig(None);
        let peer = TcpStream::connect(rig.addr).unwrap();
        // Quietly parked (no data): wait for the accept to land.
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(peer); // FIN
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        let mut byte = [0u8; 1];
        // The dispatched stream reads EOF — the client discovers the
        // close exactly the way a worker would.
        assert_eq!(served.read(&mut byte).unwrap(), 0);
        rig.stop();
    }

    #[test]
    fn handback_dispatches_without_a_readiness_event() {
        let rig = rig(None);
        let _peer = TcpStream::connect(rig.addr).unwrap();
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Steal the parked stream (simulating a worker turn), then hand
        // it back: it must come around as ready with no bytes pending.
        let stream = {
            let mut parked = rig.reactor.parked.lock().unwrap();
            let token = *parked.keys().next().unwrap();
            parked.remove(&token).unwrap().item
        };
        rig.reactor.hand_back(stream);
        assert!(rig.rx.recv_timeout(WAIT).is_ok());
        rig.stop();
    }

    #[test]
    fn idle_timeout_reaps_parked_streams() {
        let rig = rig(Some(Duration::from_millis(30)));
        let peer = TcpStream::connect(rig.addr).unwrap();
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Reaped without ever being dispatched: the peer sees the close.
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() > 0 {
            assert!(Instant::now() < deadline, "never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rig.rx.try_recv().is_err());
        let mut peer = peer;
        peer.set_read_timeout(Some(WAIT)).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(peer.read(&mut byte).unwrap_or(0), 0, "expected FIN");
        rig.stop();
    }

    #[test]
    fn shutdown_wake_exits_promptly_and_closes_parked_streams() {
        let rig = rig(None);
        let peer = TcpStream::connect(rig.addr).unwrap();
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let reactor = rig.reactor.clone();
        let start = Instant::now();
        rig.stop(); // blocks in epoll_wait(-1) until the eventfd wake
        assert!(start.elapsed() < Duration::from_secs(2), "wake was slow");
        assert_eq!(reactor.parked_len(), 0);
        // Late parks fail instead of leaking into a dead table.
        assert!(reactor.park(peer.try_clone().unwrap()).is_err());
    }
}
