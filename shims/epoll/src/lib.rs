//! Offline stand-in for an epoll binding, covering exactly what
//! vine-runtime needs: an epoll instance (`epoll_create1` / `epoll_ctl` /
//! `epoll_wait`), readiness constants, and `listen(2)` to widen a bound
//! listener's accept queue.
//!
//! There is no `libc` crate in this container, so the syscall surface is
//! declared directly as `extern "C"` bindings against the C library the
//! Rust standard library already links on Linux. The surface is five
//! symbols — `epoll_create1`, `epoll_ctl`, `epoll_wait`, `listen` and
//! `close` — all stable POSIX/Linux ABI for decades.
//!
//! Divergences from real epoll bindings, deliberately accepted: interest
//! is level-triggered, optionally one-shot ([`EPOLLONESHOT`], which the
//! worker's thread pool uses so that one readiness wakes one thread);
//! `EPOLLET` is not exposed. The `data` field is always a `u64` token
//! (callers index a slab or name an fd with it; nobody stores pointers).
//! [`Epoll::wait`] takes `&self` and fills a buffer its caller owns, so
//! several threads can wait on one instance at once.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};

// ---------------------------------------------------------------- syscalls

#[allow(non_camel_case_types)]
type c_int = i32;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

// ------------------------------------------------------- readiness flags

/// The socket is readable (or a peer closed: EOF reads as readable).
pub const EPOLLIN: u32 = 0x001;
/// The socket has write space again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (delivered regardless of requested interest).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (delivered regardless of requested interest).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Report the fd once, then disarm it until [`Epoll::modify`] re-arms it:
/// of the threads waiting on one instance, one readiness wakes one.
pub const EPOLLONESHOT: u32 = 1 << 30;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ----------------------------------------------------------------- listen

/// Call `listen(2)` again on an already listening socket, which on Linux
/// resizes its accept queue to `backlog` (capped by
/// `net.core.somaxconn`). std listens with a backlog of 128.
pub fn set_listen_backlog(listener: &impl AsRawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: `listen` takes two integers and touches no memory of ours;
    // the borrow keeps the fd open for the call.
    cvt(unsafe { listen(listener.as_raw_fd(), backlog) }).map(|_| ())
}

// ------------------------------------------------------------------ epoll

/// One readiness notification out of [`Epoll::wait`]: the kernel's
/// `epoll_event`, so `wait` fills its caller's buffer directly. On x86-64
/// the glibc/kernel ABI packs it (a 32-bit event mask immediately
/// followed by the 64-bit user datum, 12 bytes in all); other
/// architectures use natural alignment, so the fields are read through
/// methods, which copy them: a packed field cannot be borrowed.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug)]
pub struct Event {
    readiness: u32,
    token: u64,
}

impl Event {
    /// Bitwise OR of `EPOLL*` readiness flags.
    pub fn readiness(&self) -> u32 {
        self.readiness
    }

    /// The token registered with the fd.
    pub fn token(&self) -> u64 {
        self.token
    }
}

/// An epoll instance. Registration is keyed by fd; each fd carries a
/// caller-chosen `u64` token that comes back in its events.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = Event {
            readiness: interest,
            token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Start watching `fd` for `interest` (level-triggered).
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest set (and/or token) of a watched fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Stop watching `fd`. Closing an fd deregisters it implicitly, but an
    /// explicit delete keeps the interest list in sync with the slab.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // the event argument must be non-null on pre-2.6.9 kernels; pass
        // a dummy unconditionally, it is ignored on delete
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one watched fd is ready or `timeout_ms`
    /// elapses (`None` blocks indefinitely). Puts up to
    /// `events.capacity()` events into `events` (cleared first) and
    /// returns how many arrived; zero means the timeout fired. A buffer
    /// without capacity is an error (`EINVAL`). Any number of threads may
    /// wait on one instance at once, each with its own buffer.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: Option<u32>) -> io::Result<usize> {
        events.clear();
        let timeout = match timeout_ms {
            None => -1,
            Some(ms) => ms.min(i32::MAX as u32) as c_int,
        };
        let max = events.capacity().min(i32::MAX as usize) as c_int;
        let n = loop {
            // SAFETY: the kernel writes at most `max` events, which is
            // within the vector's allocation, and `set_len` below covers
            // only the ones it wrote.
            match cvt(unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout) }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        // SAFETY: the kernel initialized the first `n` entries.
        unsafe { events.set_len(n) };
        Ok(n)
    }
}

impl AsRawFd for Epoll {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn waits_time_out_with_no_events() {
        let ep = Epoll::new().unwrap();
        let mut events = Vec::with_capacity(8);
        let started = Instant::now();
        let n = ep.wait(&mut events, Some(30)).unwrap();
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn socket_readability_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = Vec::with_capacity(8);
        // nothing to read yet
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        assert_eq!(events[0].token(), 42);
        assert!(events[0].readiness() & EPOLLIN != 0);

        // level-triggered: still readable until drained
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        let mut srv = &server;
        let mut buf = [0u8; 8];
        let n = srv.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
    }

    #[test]
    fn modify_switches_interest_and_delete_removes_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let ep = Epoll::new().unwrap();
        // a fresh socket has write space: EPOLLOUT fires immediately
        ep.add(server.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let mut events = Vec::with_capacity(8);
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        assert!(events[0].readiness() & EPOLLOUT != 0);

        // switch to read interest only: quiescent until the peer writes
        ep.modify(server.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
        client.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);

        ep.delete(server.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
    }

    #[test]
    fn a_one_shot_fd_reports_once_until_re_armed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 3)
            .unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::with_capacity(8);
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        assert_eq!(events[0].token(), 3);
        // unread bytes, but the fd is disarmed
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
        ep.modify(server.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 3)
            .unwrap();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
    }

    #[test]
    fn a_buffer_without_capacity_is_refused() {
        let ep = Epoll::new().unwrap();
        assert!(ep.wait(&mut Vec::new(), Some(0)).is_err());
    }
}
