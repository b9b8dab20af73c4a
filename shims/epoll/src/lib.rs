//! Offline stand-in for an epoll binding, covering exactly what the
//! vine-runtime reactor needs: an epoll instance (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait`), readiness constants, and `listen(2)` to
//! widen a bound listener's accept queue.
//!
//! There is no `libc` crate in this container, so the syscall surface is
//! declared directly as `extern "C"` bindings against the C library the
//! Rust standard library already links on Linux. The surface is five
//! symbols — `epoll_create1`, `epoll_ctl`, `epoll_wait`, `listen` and
//! `close` — all stable POSIX/Linux ABI for decades.
//!
//! Divergences from real epoll bindings, deliberately accepted: only
//! level-triggered mode is exposed (the reactor re-arms interest
//! explicitly and never uses `EPOLLET`), and the `data` field is always a
//! `u64` token (the reactor indexes a slab with it; nobody stores
//! pointers).

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};

// ---------------------------------------------------------------- syscalls

#[allow(non_camel_case_types)]
type c_int = i32;

/// The kernel's epoll_event. On x86-64 the glibc/kernel ABI packs this
/// struct (a 32-bit event mask immediately followed by the 64-bit user
/// datum, 12 bytes total); other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct epoll_event {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut epoll_event, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Events one [`Epoll::wait`] returns at most; level-triggered epoll
/// reports the rest on the next call.
const MAX_EVENTS: usize = 256;

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

/// One readiness notification out of [`Epoll::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Bitwise OR of `EPOLL*` readiness flags.
    pub readiness: u32,
    /// The token registered with the fd.
    pub token: u64,
}

/// An epoll instance. Registration is keyed by fd; each fd carries a
/// caller-chosen `u64` token that comes back in its events.
pub struct Epoll {
    fd: RawFd,
    /// The kernel-side event buffer, reused by every [`Epoll::wait`].
    raw: Vec<epoll_event>,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd,
            raw: vec![epoll_event { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_event {
            events: interest,
            data: token,
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
        let mut ev = epoll_event { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Block until at least one watched fd is ready or `timeout_ms`
    /// elapses (`None` blocks indefinitely). Puts up to 256 events into
    /// `out` (cleared first) and returns how many arrived; zero means the
    /// timeout fired.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: Option<u32>) -> io::Result<usize> {
        out.clear();
        let timeout = match timeout_ms {
            None => -1,
            Some(ms) => ms.min(i32::MAX as u32) as c_int,
        };
        let n = loop {
            // SAFETY: `raw` holds `MAX_EVENTS` initialized entries that
            // this call borrows mutably, and the kernel writes at most
            // `MAX_EVENTS` of them.
            match cvt(unsafe {
                epoll_wait(self.fd, self.raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        out.extend(self.raw[..n].iter().map(|ev| Event {
            readiness: ev.events,
            // a packed field cannot be borrowed; copy it out
            token: { ev.data },
        }));
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
        let mut ep = Epoll::new().unwrap();
        let mut events = Vec::new();
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

        let mut ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = Vec::new();
        // nothing to read yet
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readiness & EPOLLIN != 0);

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

        let mut ep = Epoll::new().unwrap();
        // a fresh socket has write space: EPOLLOUT fires immediately
        ep.add(server.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);
        assert!(events[0].readiness & EPOLLOUT != 0);

        // switch to read interest only: quiescent until the peer writes
        ep.modify(server.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
        client.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, Some(2000)).unwrap(), 1);

        ep.delete(server.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, Some(20)).unwrap(), 0);
    }
}
