//! Readiness polling over raw fds: one level-triggered epoll instance.
//!
//! The vendored dependency set has no `libc` crate, so the syscalls are
//! declared directly; std already links libc, which makes the symbols
//! available without adding a dependency. Register/modify/deregister an
//! fd under a `u64` token, and wait for `(token, readable)` events. The
//! caller keeps each fd's current interest: epoll holds the only copy
//! of the registrations.

#![deny(clippy::arithmetic_side_effects)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// One readiness event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub(crate) token: u64,
    /// Readable (or peer-closed / error — a read will report it).
    pub(crate) readable: bool,
}

/// Interest set for a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake on readable.
    pub(crate) readable: bool,
    /// Wake on writable.
    pub(crate) writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

// x86_64 epoll_event is packed to match the 32-bit layout; other
// architectures use natural alignment.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn mask(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.readable {
        m |= EPOLLIN;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// A readiness poller: an owned epoll fd plus its event buffer.
pub(crate) struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates an epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel rejects an fd that
        // is not open (or not registered, for MOD/DEL) with an error.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (`EEXIST` for an fd already
    /// registered).
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, mask(interest))
    }

    /// Replaces the interest set of `fd`, registered under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (`ENOENT` for an fd not
    /// registered).
    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, mask(interest))
    }

    /// Removes `fd`'s registration. Best-effort: closing an fd also
    /// removes it from the interest list.
    pub(crate) fn deregister(&mut self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks up to `timeout_ms` for readiness, appending events to
    /// `events` (cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure (EINTR returns zero events
    /// instead).
    pub(crate) fn wait(&mut self, events: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        // SAFETY: buf is a live array of `buf.len()` EpollEvents.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            // Copy fields out: the struct is packed on x86_64.
            let bits = ev.events;
            let token = ev.data;
            events.push(PollEvent {
                token,
                // Error/hangup surfaces as readable so the read path
                // observes EOF/ECONNRESET and cleans up.
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is owned by this struct.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires() {
        let (mut a, b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet.
        p.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| !e.readable));
        a.write_all(b"hi").unwrap();
        a.flush().unwrap();
        // Give the loopback a moment.
        p.wait(&mut events, 1000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );
        let mut buf = [0u8; 2];
        let mut b2 = &b;
        b2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn modify_and_deregister() {
        let (_a, b) = pair();
        let fd = b.as_raw_fd();
        let mut p = Poller::new().unwrap();
        p.register(fd, 1, Interest::READ).unwrap();
        // Sockets are almost always writable: flipping interest on must
        // surface a writable event.
        let write = Interest {
            readable: false,
            writable: true,
        };
        p.modify(fd, 1, write).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && !e.readable));
        let none = Interest {
            readable: false,
            writable: false,
        };
        p.modify(fd, 1, none).unwrap();
        p.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "{events:?}");
        p.deregister(fd);
        assert!(p.modify(fd, 1, Interest::READ).is_err());
    }
}
