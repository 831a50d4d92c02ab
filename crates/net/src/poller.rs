//! OS readiness polling via direct FFI: epoll on Linux, kqueue on the
//! BSDs/macOS. No external crates — the same vendoring posture as
//! `dln-rand`/`dln-rayon`, and the same FFI discipline as the mmap story
//! in `dln-org::store`: one tiny `extern "C"` block per OS, every unsafe
//! call wrapped in a typed, errno-checked method.
//!
//! The abstraction is deliberately minimal — exactly what the reactor
//! needs and nothing more:
//!
//! * register/modify/deregister a file descriptor with an interest set
//!   ([`Interest::READ`] / [`Interest::WRITE`], level-triggered),
//! * block for readiness with a timeout, yielding `(token, readable,
//!   writable)` events,
//! * a self-pipe [`Waker`] so another thread (the server's shutdown) can
//!   interrupt a blocked `wait`.
//!
//! Level-triggered is a deliberate choice over edge-triggered: the
//! conn state machine reads/writes until `WouldBlock` anyway, and
//! level semantics make a missed wakeup structurally impossible — the
//! poller re-reports readiness until the buffer is drained. The ISSUE's
//! "edge-level readiness loop" is exactly this: a readiness *loop* over
//! level-triggered events.

use std::io;
use std::os::unix::io::RawFd;

use dln_fault::{DlnError, DlnResult};

/// Readiness interests for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the descriptor is readable (or a peer hung up).
    pub const READ: Interest = Interest(0b01);
    /// Wake when the descriptor is writable.
    pub const WRITE: Interest = Interest(0b10);
    /// Wake on both.
    pub const BOTH: Interest = Interest(0b11);

    fn readable(self) -> bool {
        self.0 & 0b01 != 0
    }
    fn writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable now (includes EOF/hangup — a read will not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

fn last_os_error(context: &str) -> DlnError {
    DlnError::io(context, io::Error::last_os_error())
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Create the epoll instance.
        pub fn new() -> DlnResult<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return is
            // the only failure mode and is checked below.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error("net poller: epoll_create1"));
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = EPOLLRDHUP;
            if interest.readable() {
                m |= EPOLLIN;
            }
            if interest.writable() {
                m |= EPOLLOUT;
            }
            m
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> DlnResult<()> {
            let mut ev = EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `ev` is a valid, live EpollEvent for the duration of
            // the call; the kernel copies it and keeps no reference.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(last_os_error("net poller: epoll_ctl"));
            }
            Ok(())
        }

        /// Register `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> DlnResult<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Change the interest set of an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> DlnResult<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Remove `fd` from the poll set (idempotent enough for teardown:
        /// the caller closes the fd right after, which deregisters too).
        pub fn deregister(&self, fd: RawFd) -> DlnResult<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; pre-2.6.9 kernels demanded a non-null
            // event pointer for DEL, so we pass one unconditionally.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(last_os_error("net poller: epoll_ctl(DEL)"));
            }
            Ok(())
        }

        /// Block up to `timeout_ms` (negative = forever) for readiness,
        /// appending decoded events to `out`.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> DlnResult<()> {
            // SAFETY: `buf` is a live, correctly-sized allocation; the
            // kernel writes at most `buf.len()` events into it.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: spurious wake, caller re-loops
                }
                return Err(DlnError::io("net poller: epoll_wait", e));
            }
            for ev in &self.buf[..n as usize] {
                let events = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is a descriptor this struct owns exclusively.
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// BSD / macOS: kqueue
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux"),))]
mod sys {
    use super::*;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Kevent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut std::ffi::c_void,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_ERROR: u16 = 0x4000;
    const EV_EOF: u16 = 0x8000;

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const Kevent,
            nchanges: i32,
            eventlist: *mut Kevent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered kqueue instance (kqueue filters are level-triggered
    /// by default, matching the epoll configuration above).
    pub struct Poller {
        kq: i32,
        buf: Vec<Kevent>,
    }

    impl Poller {
        /// Create the kqueue instance.
        pub fn new() -> DlnResult<Poller> {
            // SAFETY: no pointers; negative return checked below.
            let kq = unsafe { kqueue() };
            if kq < 0 {
                return Err(last_os_error("net poller: kqueue"));
            }
            Ok(Poller {
                kq,
                buf: vec![
                    Kevent {
                        ident: 0,
                        filter: 0,
                        flags: 0,
                        fflags: 0,
                        data: 0,
                        udata: std::ptr::null_mut(),
                    };
                    1024
                ],
            })
        }

        fn change(&self, fd: RawFd, filter: i16, flags: u16, token: u64) -> DlnResult<()> {
            let ch = Kevent {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: token as *mut std::ffi::c_void,
            };
            // SAFETY: `ch` is a valid changelist of length 1; the kernel
            // copies it during the call.
            let rc = unsafe { kevent(self.kq, &ch, 1, std::ptr::null_mut(), 0, std::ptr::null()) };
            if rc < 0 {
                return Err(last_os_error("net poller: kevent(change)"));
            }
            Ok(())
        }

        /// Register `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> DlnResult<()> {
            if interest.readable() {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
            }
            if interest.writable() {
                self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
            }
            Ok(())
        }

        /// Change the interest set of an already-registered `fd`. kqueue
        /// filters are independent, so this adds the wanted ones and
        /// removes the unwanted ones (deletion of an absent filter is
        /// tolerated).
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> DlnResult<()> {
            if interest.readable() {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
            } else {
                let _ = self.change(fd, EVFILT_READ, EV_DELETE, token);
            }
            if interest.writable() {
                self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
            } else {
                let _ = self.change(fd, EVFILT_WRITE, EV_DELETE, token);
            }
            Ok(())
        }

        /// Remove `fd` from the poll set.
        pub fn deregister(&self, fd: RawFd) -> DlnResult<()> {
            let _ = self.change(fd, EVFILT_READ, EV_DELETE, 0);
            let _ = self.change(fd, EVFILT_WRITE, EV_DELETE, 0);
            Ok(())
        }

        /// Block up to `timeout_ms` (negative = forever) for readiness,
        /// appending decoded events to `out`.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> DlnResult<()> {
            let ts;
            let ts_ptr = if timeout_ms < 0 {
                std::ptr::null()
            } else {
                ts = Timespec {
                    tv_sec: (timeout_ms / 1000) as i64,
                    tv_nsec: (timeout_ms % 1000) as i64 * 1_000_000,
                };
                &ts as *const Timespec
            };
            // SAFETY: `buf` is a live allocation; the kernel writes at most
            // `buf.len()` events; `ts_ptr` is null or points at a live
            // Timespec for the duration of the call.
            let n = unsafe {
                kevent(
                    self.kq,
                    std::ptr::null(),
                    0,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    ts_ptr,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(DlnError::io("net poller: kevent(wait)", e));
            }
            for ev in &self.buf[..n as usize] {
                out.push(Event {
                    token: ev.udata as u64,
                    readable: ev.filter == EVFILT_READ || ev.flags & (EV_EOF | EV_ERROR) != 0,
                    writable: ev.filter == EVFILT_WRITE,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: kq is a descriptor this struct owns exclusively.
            unsafe { close(self.kq) };
        }
    }
}

pub use sys::Poller;

// ---------------------------------------------------------------------------
// Self-pipe waker
// ---------------------------------------------------------------------------

mod pipe_ffi {
    extern "C" {
        pub(super) fn pipe(fds: *mut i32) -> i32;
        pub(super) fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        pub(super) fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub(super) fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub(super) fn close(fd: i32) -> i32;
    }
    pub const F_SETFL: i32 = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: i32 = 0x0004;
}

/// The classic self-pipe trick: the reactor registers the read end with
/// its [`Poller`]; any thread writes one byte to the write end to
/// interrupt a blocked `wait`. Both ends are nonblocking, so a full pipe
/// (already-pending wake) is a no-op, never a stall.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY: the fds are plain integers; read/write on pipe ends from
// multiple threads is what pipes are for.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Create the pipe pair, both ends nonblocking.
    pub fn new() -> DlnResult<Waker> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element array the kernel fills.
        if unsafe { pipe_ffi::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error("net waker: pipe"));
        }
        for fd in fds {
            // SAFETY: fd is a freshly created pipe end we own.
            if unsafe { pipe_ffi::fcntl(fd, pipe_ffi::F_SETFL, pipe_ffi::O_NONBLOCK) } < 0 {
                let err = last_os_error("net waker: fcntl(O_NONBLOCK)");
                // SAFETY: closing our own fds on the error path.
                unsafe {
                    pipe_ffi::close(fds[0]);
                    pipe_ffi::close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd the reactor registers for READ interest.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Interrupt a blocked `wait`. Callable from any thread; a full pipe
    /// means a wake is already pending, which is success.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: write_fd is a live nonblocking pipe end; a short or
        // failed write (EAGAIN) only means a wake is already queued.
        unsafe { pipe_ffi::write(self.write_fd, &byte, 1) };
    }

    /// Drain all pending wake bytes (called by the reactor when the read
    /// end reports readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: buf is a live 64-byte buffer; read_fd is nonblocking,
            // so this returns -1/EAGAIN instead of blocking when drained.
            let n = unsafe { pipe_ffi::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: both fds are pipe ends this struct owns exclusively.
        unsafe {
            pipe_ffi::close(self.read_fd);
            pipe_ffi::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_sees_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");

        let mut poller = Poller::new().expect("poller");
        poller
            .register(server.as_raw_fd(), 7, Interest::BOTH)
            .expect("register");

        // A fresh socket with empty send buffer is writable immediately.
        let mut events = Vec::new();
        poller.wait(1000, &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Not readable until the peer sends.
        assert!(!events.iter().any(|e| e.token == 7 && e.readable));
        client.write_all(b"ping").expect("send");
        let mut events = Vec::new();
        // Level-triggered: readiness persists until drained, so one wait
        // suffices even if the bytes landed before it started.
        poller.wait(1000, &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");

        // Hangup reports as readable (read returns 0 = EOF).
        drop(client);
        let mut events = Vec::new();
        poller.wait(1000, &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(server.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().expect("poller");
        let waker = std::sync::Arc::new(Waker::new().expect("waker"));
        poller
            .register(waker.read_fd(), u64::MAX, Interest::READ)
            .expect("register");

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            w.wake();
            w.wake(); // double-wake coalesces, never blocks
        });
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        while events.is_empty() {
            poller.wait(5000, &mut events).expect("wait");
            assert!(start.elapsed().as_secs() < 5, "waker never fired");
        }
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        waker.drain();
        // Drained: a short wait now times out with no events.
        let mut events = Vec::new();
        poller.wait(10, &mut events).expect("wait");
        assert!(!events.iter().any(|e| e.token == u64::MAX));
        t.join().expect("join");
    }
}
