//! A dependency-light readiness poller: raw `epoll_*` syscalls on
//! Linux, POSIX `poll(2)` on other unix flavours (the kqueue-capable
//! platforms fall back to it too); the crate needs a unix. This is the
//! transport's only window onto readiness — no mio, no tokio, just the
//! handful of FFI prototypes the reactor and the client sessions need,
//! declared against the libc every Rust binary already links.
//!
//! The API is deliberately tiny: register a file descriptor with a
//! [`Token`] and an [`Interest`], adjust it with `modify`, harvest
//! ready `(Token, Readiness)` pairs with `wait`. Level-triggered
//! semantics everywhere, so a handler that cannot finish its work this
//! tick simply gets woken again on the next one.

use std::io;
use std::os::unix::io::RawFd;

/// Caller-chosen identifier attached to a registered descriptor and
/// handed back by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Token(pub(crate) u64);

/// Which readiness edges a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// What a descriptor is ready for. `error` folds in hangup — the owner
/// should try the pending I/O once (draining whatever the kernel still
/// holds) and then tear the connection down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Readiness {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) error: bool,
}

/// One ready descriptor from a [`Poller::wait`] harvest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    pub(crate) token: Token,
    pub(crate) readiness: Readiness,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll. Prototypes only — the symbols live in the libc the
    //! binary links anyway.

    use super::{Interest, PollEvent, Readiness, Token};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors the kernel's `struct epoll_event`, which is packed on
    /// x86-64 (the kernel ABI predates natural alignment there).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

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

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    pub(crate) struct Poller {
        epfd: RawFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                events: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        /// The epoll descriptor, for nesting this poller in another.
        pub(crate) fn fd(&self) -> Option<RawFd> {
            Some(self.epfd)
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token.0,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token.0,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<PollEvent>) -> io::Result<()> {
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(
                        self.epfd,
                        self.events.as_mut_ptr(),
                        self.events.len() as c_int,
                        timeout_ms,
                    )
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.events[..n] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: Token(ev.data),
                    readiness: Readiness {
                        readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                        writable: bits & EPOLLOUT != 0,
                        error: bits & (EPOLLERR | EPOLLHUP) != 0,
                    },
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! POSIX `poll(2)` fallback for the non-Linux unixes (macOS and the
    //! BSDs would prefer kqueue; `poll` is correct there too, just less
    //! scalable, and keeps this module free of per-OS syscall tables).

    use super::{Interest, PollEvent, Readiness, Token};
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    fn mask_of(interest: Interest) -> c_short {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    pub(crate) struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<Token>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        /// `poll(2)` keeps no descriptor to nest in another poller.
        pub(crate) fn fd(&self) -> Option<RawFd> {
            None
        }

        fn index_of(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            if self.index_of(fd).is_some() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            self.fds.push(PollFd {
                fd,
                events: mask_of(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let i = self.index_of(fd).ok_or(io::ErrorKind::NotFound)?;
            self.fds[i].events = mask_of(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.index_of(fd).ok_or(io::ErrorKind::NotFound)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<PollEvent>) -> io::Result<()> {
            if self.fds.is_empty() {
                if timeout_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
                }
                return Ok(());
            }
            let n = loop {
                let ret = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
                if ret >= 0 {
                    break ret;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (p, tok) in self.fds.iter().zip(&self.tokens) {
                if p.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token: *tok,
                    readiness: Readiness {
                        readable: p.revents & POLLIN != 0,
                        writable: p.revents & POLLOUT != 0,
                        error: p.revents & (POLLERR | POLLHUP) != 0,
                    },
                });
            }
            Ok(())
        }
    }
}

pub(crate) use sys::Poller;

/// Cross-thread wakeup for a [`Poller`]: one end registered with the
/// reactor, the other poked by whoever wants a waiting turn to return
/// now (`NetServer::shutdown`; nothing on the data path).
pub(crate) struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The descriptor the reactor registers for readability.
    pub(crate) fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Swallows pending wake bytes so level-triggered polling settles.
    pub(crate) fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// A clone of the poke side, for handing to another thread.
    pub(crate) fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            tx: self.tx.try_clone()?,
        })
    }
}

/// The poke side of a [`Waker`], for the thread that does not own it.
pub(crate) struct WakeHandle {
    tx: std::os::unix::net::UnixStream,
}

impl WakeHandle {
    /// Pokes the poller. A full pipe means a wake is already pending,
    /// which is all we need — the write is fire-and-forget.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_wakes_a_sleeping_poller() {
        let mut poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        poller
            .register(waker.fd(), Token(7), Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        poller.wait(10, &mut events).expect("wait");
        assert!(events.is_empty());
        // Poked the way `NetServer::shutdown` does: through the handle.
        waker.handle().expect("handle").wake();
        poller.wait(1000, &mut events).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readiness.readable);
        waker.drain();
        events.clear();
        poller.wait(10, &mut events).expect("wait");
        assert!(events.is_empty(), "drained waker is quiet");
    }

    #[test]
    fn readiness_tracks_socket_data_and_interest_changes() {
        let mut poller = Poller::new().expect("poller");
        let (mut a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), Token(1), Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        poller.wait(10, &mut events).expect("wait");
        assert!(events.is_empty(), "no data yet");
        a.write_all(b"hi").expect("write");
        poller.wait(1000, &mut events).expect("wait");
        assert!(events
            .iter()
            .any(|e| e.token == Token(1) && e.readiness.readable));
        // Read it out, switch to write interest: sockets are writable.
        let mut buf = [0u8; 8];
        let _ = (&b).read(&mut buf);
        poller
            .modify(
                b.as_raw_fd(),
                Token(1),
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .expect("modify");
        events.clear();
        poller.wait(1000, &mut events).expect("wait");
        assert!(events
            .iter()
            .any(|e| e.token == Token(1) && e.readiness.writable));
        poller.deregister(b.as_raw_fd()).expect("deregister");
        events.clear();
        poller.wait(10, &mut events).expect("wait");
        assert!(events.is_empty());
    }
}
