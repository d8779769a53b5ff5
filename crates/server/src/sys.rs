//! The one `unsafe` corner of the workspace: raw Linux syscall
//! bindings for the evented transport core (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `listen`, `accept4`, `pipe2`).
//!
//! Everything outside this file is safe Rust. This module wraps each
//! syscall in a narrow, owned-resource API — [`Epoll`], [`Waker`],
//! [`listen_at_max_backlog`], [`accept_nonblocking`] — so callers
//! never touch a raw fd they do not own. The policy is enforced by hyperline-lint:
//! HL003 confines `unsafe` to this file, and HL010 requires every
//! `unsafe` block to carry an adjacent `// safety:` justification.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

// Raw Linux syscall bindings, resolved from libc (which std already
// links). Signatures mirror the man pages; every call site below checks
// the return value and surfaces `io::Error::last_os_error()`.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn listen(sockfd: i32, backlog: i32) -> i32;
    fn accept4(sockfd: i32, addr: *mut u8, addrlen: *mut u32, flags: i32) -> i32;
    fn pipe2(pipefd: *mut i32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Readable (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never subscribed.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`) — always reported, never subscribed.
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const O_NONBLOCK: i32 = 0x800;
const O_CLOEXEC: i32 = 0x80000;

/// One `struct epoll_event`: an interest/readiness mask plus the u64
/// token the loop uses to find the connection. Packed on x86_64 to
/// match the kernel ABI (the one architecture where the kernel struct
/// is unaligned).
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct EpollEvent {
    /// `EPOLL*` bit mask.
    pub(crate) events: u32,
    /// Caller-chosen token, returned verbatim on readiness.
    pub(crate) data: u64,
}

impl EpollEvent {
    /// An empty slot for the wait buffer.
    pub(crate) fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

/// An owned epoll instance. Dropping it closes the fd; registered fds
/// are not touched (their owners close them, which also removes them
/// from the set).
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // safety: epoll_create1 takes no pointers; a negative return is
        // checked and surfaced as the OS error before use.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // safety: `event` is a live stack value for the duration of the
        // call and the kernel only reads it; both fds are open — self.fd for self's lifetime, `fd` owned
        // by the caller.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with interest `events`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replaces `fd`'s interest mask.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Blocks for readiness, filling `events`; returns how many fired.
    /// `None` waits forever. `EINTR` retries with the full timeout —
    /// callers re-derive their deadlines every iteration anyway.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a sub-millisecond deadline does not spin.
            Some(t) => t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
        };
        loop {
            // safety: `events` points at `len` writable EpollEvent
            // slots owned by the caller for the whole call; the kernel
            // writes at most `maxevents` of them and the (checked,
            // non-negative) return bounds how many we read back.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // safety: self.fd is open and exclusively owned by this value;
        // nothing uses it after drop.
        let _ = unsafe { close(self.fd) };
    }
}

/// Re-listens `listener` with the largest accept backlog the kernel
/// allows. `TcpListener::bind` listens with a backlog of 128; once that
/// many connections wait unaccepted the kernel drops the next SYN, and
/// the client retries a second later. The kernel truncates a larger
/// backlog to `net.core.somaxconn`, so `i32::MAX` asks for the maximum.
pub(crate) fn listen_at_max_backlog(listener: &TcpListener) -> io::Result<()> {
    // safety: listen takes no pointers; the listener fd is open for the
    // duration of the call, and listening again only resizes the queue.
    let rc = unsafe { listen(listener.as_raw_fd(), i32::MAX) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Accepts one pending connection without blocking: `Ok(None)` when the
/// backlog is empty. The returned stream is already nonblocking and
/// close-on-exec (`accept4` flags), so there is no racy post-accept
/// window before the flags are set.
pub(crate) fn accept_nonblocking(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    // safety: null addr/addrlen asks the kernel not to report the peer
    // address (documented accept4 contract), so no out-pointers are
    // written; the listener fd is open for the duration of the call.
    let fd = unsafe {
        accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            SOCK_NONBLOCK | SOCK_CLOEXEC,
        )
    };
    if fd >= 0 {
        // safety: `fd` was just returned by accept4 and checked valid;
        // it is owned by no other value, so from_raw_fd takes true
        // (sole) ownership.
        return Ok(Some(unsafe { TcpStream::from_raw_fd(fd) }));
    }
    let err = io::Error::last_os_error();
    match err.kind() {
        // Empty backlog, or the pending connection was reset before we
        // got to it — both mean "nothing to accept right now".
        io::ErrorKind::WouldBlock
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted => Ok(None),
        _ => Err(err),
    }
}

/// A self-pipe that makes `epoll_wait` return on demand: worker threads
/// (and [`crate::server::ServerHandle::shutdown`]) call [`Waker::wake`]
/// after posting a completion, the loop registers [`Waker::read_fd`]
/// for `EPOLLIN` and [`Waker::drain`]s it on wakeup. Both ends are
/// nonblocking, so a full pipe never blocks a waker — the loop is
/// already due to wake in that case.
pub(crate) struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// A fresh nonblocking, close-on-exec self-pipe.
    pub(crate) fn new() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        // safety: pipe2 writes exactly two fds into the provided
        // 2-element array; the (checked) return says whether it did.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The readable end, for epoll registration.
    pub(crate) fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Nudges the event loop awake. Never blocks: a full pipe (EAGAIN)
    /// already guarantees a pending wakeup.
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        // safety: writes one byte from a live stack variable to our own
        // open write end; errors (EAGAIN on a full pipe) are ignored by
        // design.
        let _ = unsafe { write(self.write_fd, &byte, 1) };
    }

    /// Swallows every buffered wakeup byte (level-triggered hygiene).
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            // safety: reads into a live stack buffer of the stated
            // length from our own open read end; the return value is
            // checked before any of the buffer is trusted.
            let n = unsafe { read(self.read_fd, sink.as_mut_ptr(), sink.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // safety: both fds are open and exclusively owned by this
        // value; nothing uses them after drop.
        let _ = unsafe { close(self.read_fd) };
        // safety: see above — the write end is equally ours.
        let _ = unsafe { close(self.write_fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    #[test]
    fn waker_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll.add(waker.read_fd(), 7, EPOLLIN).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: a zero timeout returns empty-handed.
        let n = epoll.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
        waker.wake();
        waker.wake();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        // Copy packed fields to locals: a reference into the packed
        // struct would be unaligned.
        let (data, mask) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(mask & EPOLLIN, 0);
        waker.drain();
        // Drained: readable no more.
        let n = epoll.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn accept_nonblocking_accepts_and_reports_empty_backlog() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(accept_nonblocking(&listener).unwrap().is_none());
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // The handshake completes in the kernel; poll briefly for it.
        let mut accepted = None;
        for _ in 0..200 {
            if let Some(stream) = accept_nonblocking(&listener).unwrap() {
                accepted = Some(stream);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let accepted = accepted.expect("connection never surfaced");
        client.write_all(b"ping").unwrap();
        // The accepted socket is nonblocking and readable once bytes land.
        let epoll = Epoll::new().unwrap();
        epoll.add(accepted.as_raw_fd(), 1, EPOLLIN).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
    }
}
