//! Cross-thread wakeup fd: one non-blocking `eventfd(2)`.
//!
//! Each event loop registers one [`WakeFd`] in its poller; any other
//! thread (a committing loop handing off a wake, the acceptor handing
//! off a connection) calls [`WakeFd::kick`] to make the target loop's
//! `epoll_wait` return immediately. The fd carries no data — the
//! actual payload travels through the [`crate::shared::NetShared`]
//! mailboxes / intake queues — so a kick is idempotent and coalescing
//! (the eventfd counter adds) is harmless.
//!
//! As in [`crate::poll`], the syscalls are declared directly: the
//! vendored dependency set has no `libc` crate, and std already links
//! libc.

#![deny(clippy::arithmetic_side_effects)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// A level-ish wakeup primitive: readable after any un-drained kick.
#[derive(Debug)]
pub(crate) struct WakeFd {
    fd: RawFd,
}

// Raw fds are just integers; kick() is the whole point of sharing.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

impl WakeFd {
    /// Creates the eventfd.
    ///
    /// # Errors
    ///
    /// `eventfd` failure.
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// The fd to register for read interest in a poller.
    pub(crate) fn poll_fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the owning loop. Callable from any thread; never blocks
    /// (a saturated eventfd already guarantees a pending wake, so
    /// `EAGAIN` is success).
    pub(crate) fn kick(&self) {
        let one: [u8; 8] = 1u64.to_ne_bytes();
        // SAFETY: `one` is a live 8-byte buffer; `fd` is owned by self.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Drains pending kicks so the fd stops polling readable: one 8-byte
    /// read takes the whole counter.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is a live 8-byte buffer; `fd` is owned by self.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this struct.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kick_makes_fd_readable_and_drain_clears_it() {
        let wf = WakeFd::new().unwrap();
        // Nothing pending: drain returns without blocking.
        wf.drain();
        wf.kick();
        wf.kick();
        let mut buf = [0u8; 8];
        // Readable now: a direct read of the eventfd sees the counter.
        let n = unsafe { read(wf.poll_fd(), buf.as_mut_ptr(), buf.len()) };
        assert!(n > 0, "kicked fd must be readable");
        wf.kick();
        wf.drain();
        let n = unsafe { read(wf.poll_fd(), buf.as_mut_ptr(), buf.len()) };
        assert!(n <= 0, "drained fd must not be readable");
    }

    #[test]
    fn kick_from_another_thread_wakes_a_poller() {
        use crate::poll::{Interest, Poller};
        let wf = std::sync::Arc::new(WakeFd::new().unwrap());
        let mut poller = Poller::new().unwrap();
        poller.register(wf.poll_fd(), 9, Interest::READ).unwrap();
        let wf2 = std::sync::Arc::clone(&wf);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            wf2.kick();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, 2000).unwrap();
        h.join().unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "poller must wake on the kick: {events:?}"
        );
        wf.drain();
    }
}
