//! The readiness reactor behind [`crate::http::Endpoint`]: one thread
//! multiplexing the accept listener and *all* parked keep-alive sockets
//! through epoll (via the in-repo `libc` shim), so an idle connection
//! costs one registered fd and **zero CPU** until its next byte arrives.
//!
//! Mechanics:
//!
//! - Parked items are registered level-triggered with `EPOLLONESHOT`:
//!   the kernel reports each readiness exactly once, and the reactor
//!   removes the item from its table (plus `EPOLL_CTL_DEL`, so a later
//!   re-park can `ADD` again) before handing it to the client.
//! - The listener is also one-shot. The reactor thread accepts the whole
//!   burst itself, hands each connection to [`ReactorClient::on_accept`]
//!   and parks what it returns, then re-arms the registration;
//!   level-triggered re-arm means connections that raced in meanwhile
//!   re-fire immediately. An accept error other than "would block"
//!   (EMFILE, …) re-arms only after [`ACCEPT_BACKOFF`], so a persistent
//!   error cannot spin the loop.
//! - An `eventfd` wakes the loop for shutdown and for items workers hand
//!   back (hot connections re-entering the queue after their turn quota)
//!   — no self-connect hack, no polling.
//!
//! The reactor is generic over the parked item (anything `AsRawFd`) so
//! its register/re-arm/close races are unit-testable on bare
//! `TcpStream`s below, independent of HTTP.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token values 0/1 are reserved; parked items get 2+.
const TOKEN_WAKE: u64 = 0;
const TOKEN_ACCEPT: u64 = 1;

/// How long the listener stays disarmed after a failed accept.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// How the reactor's owner reacts to readiness.
pub(crate) trait ReactorClient<T>: Send + Sync {
    /// The loop exits (closing everything it owns) once this is true.
    fn shutting_down(&self) -> bool;
    /// A parked item became readable (or closed — the client discovers
    /// which by reading), or a worker handed it back: serve it.
    fn on_ready(&self, item: T);
    /// A new connection: the item to park, or `None` to refuse it (the
    /// client has answered or dropped the stream).
    fn on_accept(&self, stream: TcpStream) -> Option<T>;
}

/// The readiness core: epoll fd + wake eventfd + listener + parked table.
pub(crate) struct Reactor<T> {
    epfd: libc::c_int,
    wake_fd: libc::c_int,
    /// Accepted from only by the reactor thread; closes when the reactor
    /// drops.
    listener: TcpListener,
    parked: Mutex<HashMap<u64, T>>,
    /// Items workers hand back for immediate re-dispatch (quota-exhausted
    /// hot connections, or parked ones whose buffer still holds bytes).
    handback: Mutex<Vec<T>>,
    next_token: AtomicU64,
    /// Set by `close_all`: late `park` calls fail instead of leaking
    /// items into a table nobody will ever poll again.
    closed: AtomicBool,
}

fn cvt(ret: libc::c_int) -> io::Result<libc::c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Milliseconds until `deadline`, rounded up so the wait never returns
/// early and spins; `-1` (block indefinitely) without a deadline.
fn timeout_ms(deadline: Option<Instant>) -> libc::c_int {
    match deadline {
        None => -1,
        Some(deadline) => {
            let micros = deadline
                .saturating_duration_since(Instant::now())
                .as_micros();
            micros.div_ceil(1_000).min(libc::c_int::MAX as u128) as libc::c_int
        }
    }
}

impl<T: AsRawFd + Send> Reactor<T> {
    /// Build a reactor owning `listener` (switched to non-blocking and
    /// registered one-shot) plus a fresh epoll instance and wake eventfd.
    pub(crate) fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
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
            listener,
            parked: Mutex::new(HashMap::new()),
            handback: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(2),
            closed: AtomicBool::new(false),
        };
        reactor.ctl(libc::EPOLL_CTL_ADD, wake_fd, libc::EPOLLIN, TOKEN_WAKE)?;
        reactor.arm_listener(libc::EPOLL_CTL_ADD)?;
        Ok(reactor)
    }

    fn ctl(&self, op: libc::c_int, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        cvt(unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    fn arm_listener(&self, op: libc::c_int) -> io::Result<()> {
        self.ctl(
            op,
            self.listener.as_raw_fd(),
            libc::EPOLLIN | libc::EPOLLONESHOT,
            TOKEN_ACCEPT,
        )
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
        self.parked.lock().expect("parked lock").insert(token, item);
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

    /// Items currently parked (diagnostics).
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.lock().expect("parked lock").len()
    }

    /// Drop every parked / handed-back item (dropping closes their
    /// sockets). Idempotent; later `park`s fail.
    pub(crate) fn close_all(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.parked.lock().expect("parked lock").clear();
        self.handback.lock().expect("handback lock").clear();
    }

    /// The reactor loop. Blocks in `epoll_wait` (indefinitely unless an
    /// accept backoff is pending — that's the "idle connections cost zero
    /// CPU" property) until shutdown; returns after `close_all`.
    pub(crate) fn run<C: ReactorClient<T>>(&self, client: &C) {
        let mut accept_paused_until: Option<Instant> = None;
        let mut events = [libc::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        loop {
            if client.shutting_down() {
                self.close_all();
                return;
            }
            let n = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as libc::c_int,
                    timeout_ms(accept_paused_until),
                )
            };
            if client.shutting_down() {
                self.close_all();
                return;
            }
            for ev in events.iter().take(n.max(0) as usize) {
                match ev.u64 {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_ACCEPT => {
                        if !self.accept_burst(client) {
                            accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        }
                    }
                    token => {
                        let taken = self.parked.lock().expect("parked lock").remove(&token);
                        if let Some(item) = taken {
                            // Fully deregister (one-shot only disarms) so
                            // a later re-park can ADD the fd again.
                            let _ = unsafe {
                                libc::epoll_ctl(
                                    self.epfd,
                                    libc::EPOLL_CTL_DEL,
                                    item.as_raw_fd(),
                                    std::ptr::null_mut(),
                                )
                            };
                            client.on_ready(item);
                        }
                    }
                }
            }
            let handed_back = std::mem::take(&mut *self.handback.lock().expect("handback lock"));
            for item in handed_back {
                client.on_ready(item);
            }
            if accept_paused_until.is_some_and(|until| Instant::now() >= until) {
                accept_paused_until = None;
                let _ = self.arm_listener(libc::EPOLL_CTL_MOD);
            }
        }
    }

    /// Accept until the kernel backlog is empty, parking every connection
    /// the client keeps, then re-arm the listener. `false`: an accept
    /// failed for another reason and the listener stays disarmed.
    fn accept_burst<C: ReactorClient<T>>(&self, client: &C) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Some(item) = client.on_accept(stream) {
                        let _ = self.park(item); // failure drops (closes)
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let _ = self.arm_listener(libc::EPOLL_CTL_MOD);
                    return true;
                }
                Err(_) => return false,
            }
        }
    }

    fn drain_wake(&self) {
        let mut buf: u64 = 0;
        // Nonblocking eventfd: one read collects all pending wakes.
        let _ = unsafe { libc::read(self.wake_fd, (&mut buf as *mut u64).cast(), 8) };
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
    use std::net::SocketAddr;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Arc;

    /// Test client: parks every accepted stream, forwards every ready
    /// stream through a channel.
    struct EchoClient {
        shutdown: AtomicBool,
        ready_tx: Mutex<Sender<TcpStream>>,
    }

    impl ReactorClient<TcpStream> for EchoClient {
        fn shutting_down(&self) -> bool {
            self.shutdown.load(Ordering::SeqCst)
        }
        fn on_ready(&self, item: TcpStream) {
            let _ = self.ready_tx.lock().unwrap().send(item);
        }
        fn on_accept(&self, stream: TcpStream) -> Option<TcpStream> {
            Some(stream)
        }
    }

    struct Rig {
        reactor: Arc<Reactor<TcpStream>>,
        client: Arc<EchoClient>,
        addr: SocketAddr,
        rx: std::sync::mpsc::Receiver<TcpStream>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    fn rig() -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Arc::new(Reactor::new(listener).unwrap());
        let (tx, rx) = channel();
        let client = Arc::new(EchoClient {
            shutdown: AtomicBool::new(false),
            ready_tx: Mutex::new(tx),
        });
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
        let rig = rig();
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
        let rig = rig();
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
        let rig = rig();
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
            parked.remove(&token).unwrap()
        };
        rig.reactor.hand_back(stream);
        assert!(rig.rx.recv_timeout(WAIT).is_ok());
        rig.stop();
    }

    #[test]
    fn shutdown_wake_exits_promptly_and_closes_parked_streams() {
        let rig = rig();
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
