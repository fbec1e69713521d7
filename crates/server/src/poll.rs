//! Readiness polling over raw fds: epoll on Linux, POSIX `poll(2)`
//! elsewhere. Tests drive the `poll(2)` backend on Linux too.
//!
//! The vendored dependency set has no `libc` crate, so the two syscall
//! surfaces are declared directly; std already links libc on every unix
//! target, which makes the symbols available without adding a
//! dependency. Both backends present the same level-triggered
//! interface: register/modify/deregister an fd under a `u64` token, and
//! wait for `(token, readable)` events.

use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;

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

/// A readiness poller over registered fds.
pub(crate) struct Poller {
    #[cfg(target_os = "linux")]
    epoll: epoll::Epoll,
    // token → (fd, interest). The poll backend builds its pollfd array
    // from this; with epoll it catches duplicate and unknown tokens.
    registered: HashMap<u64, (RawFd, Interest)>,
}

impl Poller {
    /// Creates a poller with the best backend for the platform.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            #[cfg(target_os = "linux")]
            epoll: epoll::Epoll::new()?,
            registered: HashMap::new(),
        })
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure; rejects duplicate tokens.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.registered.contains_key(&token) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        #[cfg(target_os = "linux")]
        self.epoll.add(fd, token, interest)?;
        self.registered.insert(token, (fd, interest));
        Ok(())
    }

    /// Updates the interest set of an existing registration. No-op if
    /// the interest is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure; errors on unknown tokens.
    pub(crate) fn modify(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        let Some((fd, cur)) = self.registered.get_mut(&token) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "unknown token"));
        };
        if *cur == interest {
            return Ok(());
        }
        #[cfg(target_os = "linux")]
        self.epoll.modify(*fd, token, interest)?;
        let _ = fd;
        *cur = interest;
        Ok(())
    }

    /// Removes a registration (the fd may already be closed).
    pub(crate) fn deregister(&mut self, token: u64) {
        if let Some((_fd, _)) = self.registered.remove(&token) {
            #[cfg(target_os = "linux")]
            self.epoll.delete(_fd);
        }
    }

    /// Blocks up to `timeout_ms` for readiness, appending events to
    /// `events` (cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait`/`poll` failure (EINTR is retried once by
    /// returning zero events instead).
    pub(crate) fn wait(&mut self, events: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        #[cfg(target_os = "linux")]
        {
            self.epoll.wait(events, timeout_ms)
        }
        #[cfg(not(target_os = "linux"))]
        {
            poll_backend::wait(&self.registered, events, timeout_ms)
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Interest, PollEvent};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

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
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
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

    pub(super) struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, ev: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = ev.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: epfd/fd are live descriptors; ptr is null only for
            // DEL, where the kernel ignores it.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut ev))
        }

        pub(super) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut ev))
        }

        pub(super) fn delete(&self, fd: RawFd) {
            // Best-effort: the fd may already be closed (close removes
            // it from the interest list automatically).
            let _ = self.ctl(EPOLL_CTL_DEL, fd, None);
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout_ms: i32,
        ) -> io::Result<()> {
            // SAFETY: buf is a live, properly-sized array of EpollEvent.
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

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this struct.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
mod poll_backend {
    use super::{Interest, PollEvent};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: c_int) -> c_int;
    }

    pub(super) fn wait(
        registered: &HashMap<u64, (RawFd, Interest)>,
        events: &mut Vec<PollEvent>,
        timeout_ms: i32,
    ) -> io::Result<()> {
        let mut fds = Vec::with_capacity(registered.len());
        let mut tokens = Vec::with_capacity(registered.len());
        for (&token, &(fd, interest)) in registered {
            let mut mask = 0;
            if interest.readable {
                mask |= POLLIN;
            }
            if interest.writable {
                mask |= POLLOUT;
            }
            fds.push(PollFd {
                fd,
                events: mask,
                revents: 0,
            });
            tokens.push(token);
        }
        // SAFETY: fds is a live array of PollFd sized fds.len().
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
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
        for (pf, &token) in fds.iter().zip(&tokens) {
            let r = pf.revents;
            if r == 0 {
                continue;
            }
            events.push(PollEvent {
                token,
                readable: r & (POLLIN | POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
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
    fn poll_backend_reports_readable_and_writable() {
        let (mut a, b) = pair();
        let read = HashMap::from([(7, (b.as_raw_fd(), Interest::READ))]);
        let mut events = Vec::new();
        poll_backend::wait(&read, &mut events, 0).unwrap();
        assert!(events.is_empty(), "{events:?}");
        a.write_all(b"hi").unwrap();
        poll_backend::wait(&read, &mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let write = Interest {
            readable: false,
            writable: true,
        };
        let writable = HashMap::from([(1, (a.as_raw_fd(), write))]);
        events.clear();
        poll_backend::wait(&writable, &mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && !e.readable));
    }

    #[test]
    fn modify_and_deregister() {
        let (_a, b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        // Sockets are almost always writable: flipping interest on must
        // surface a writable event.
        let write = Interest {
            readable: false,
            writable: true,
        };
        p.modify(1, write).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && !e.readable));
        let none = Interest {
            readable: false,
            writable: false,
        };
        p.modify(1, none).unwrap();
        p.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "{events:?}");
        p.deregister(1);
        assert!(p.modify(1, Interest::READ).is_err());
    }
}
