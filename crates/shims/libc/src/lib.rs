//! In-repo shim for the `libc` crate: the build environment has no
//! registry access, and SMACS only needs a sliver of the real crate —
//! the readiness syscalls behind the HTTP reactor (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait`, `eventfd` for wakeups). Declarations are
//! plain `extern "C"` against the system libc that `std` already links,
//! so no build script or registry dependency is required.
//!
//! Linux-only by design (CI runs ubuntu; ROADMAP direction 2 names
//! epoll explicitly). On other targets the functions are compiled as
//! stubs that fail with `ENOSYS`-style `-1` so the workspace still
//! builds; the reactor surfaces that as an `io::Error` at bind time.
#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type c_void = core::ffi::c_void;
pub type size_t = usize;
pub type ssize_t = isize;

/// `EPOLL_EVENTS` bits and `epoll_ctl` ops (values from the Linux ABI).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLPRI: u32 = 0x002;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

/// One epoll registration/notification. The kernel ABI packs this
/// struct on x86 so the 64-bit user datum straddles the usual
/// alignment — mirror the real crate's layout exactly.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
    pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

// Non-Linux stubs: every call fails, callers see it as an io::Error.
#[cfg(not(target_os = "linux"))]
mod stubs {
    use super::*;
    pub unsafe fn epoll_create1(_flags: c_int) -> c_int {
        -1
    }
    pub unsafe fn epoll_ctl(_e: c_int, _op: c_int, _fd: c_int, _ev: *mut epoll_event) -> c_int {
        -1
    }
    pub unsafe fn epoll_wait(_e: c_int, _evs: *mut epoll_event, _max: c_int, _t: c_int) -> c_int {
        -1
    }
    pub unsafe fn eventfd(_initval: c_uint, _flags: c_int) -> c_int {
        -1
    }
    pub unsafe fn read(_fd: c_int, _buf: *mut c_void, _count: size_t) -> ssize_t {
        -1
    }
    pub unsafe fn write(_fd: c_int, _buf: *const c_void, _count: size_t) -> ssize_t {
        -1
    }
    pub unsafe fn close(_fd: c_int) -> c_int {
        -1
    }
    pub unsafe fn listen(_sockfd: c_int, _backlog: c_int) -> c_int {
        -1
    }
}
#[cfg(not(target_os = "linux"))]
pub use stubs::*;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn epoll_round_trip_on_an_eventfd() {
        unsafe {
            let ep = epoll_create1(EPOLL_CLOEXEC);
            assert!(ep >= 0, "epoll_create1 failed");
            let efd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
            assert!(efd >= 0, "eventfd failed");

            let mut ev = epoll_event {
                events: EPOLLIN,
                u64: 42,
            };
            assert_eq!(epoll_ctl(ep, EPOLL_CTL_ADD, efd, &mut ev), 0);

            // Nothing written yet: a zero-timeout wait sees no events.
            let mut out = [epoll_event { events: 0, u64: 0 }; 4];
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 0), 0);

            // Bump the counter: the eventfd becomes readable.
            let one: u64 = 1;
            assert_eq!(
                write(efd, (&one as *const u64).cast(), 8),
                8,
                "eventfd write"
            );
            let n = epoll_wait(ep, out.as_mut_ptr(), 4, 1000);
            assert_eq!(n, 1, "expected exactly one readiness event");
            let got = out[0].u64;
            assert_eq!(got, 42);

            // Drain and confirm it goes quiet again.
            let mut val: u64 = 0;
            assert_eq!(read(efd, (&mut val as *mut u64).cast(), 8), 8);
            assert_eq!(val, 1);
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 0), 0);

            close(efd);
            close(ep);
        }
    }
}
