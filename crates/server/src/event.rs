//! Readiness backends for the evented server core.
//!
//! The reactor never blocks in socket I/O; it blocks in exactly one
//! place — [`EventBackend::poll`] — and acts on whatever file
//! descriptors the kernel reports ready. The backend is a trait, the
//! same move the spill tier made with `SpillMedium`: the reactor is
//! written once against readiness semantics and the mechanism is
//! swappable underneath it.
//!
//! Two implementations ship:
//!
//! - [`EpollBackend`] (Linux): one `epoll` instance, level-triggered.
//!   O(ready) wake-ups, the right default for thousands of mostly-idle
//!   connections.
//! - [`PollBackend`] (portable Unix): `poll(2)` over the registered fd
//!   set. O(registered) per wake-up, but dependency-free and available
//!   everywhere; it is also the reference implementation the epoll path
//!   is tested against.
//!
//! Neither pulls in a crate: the workspace builds offline, so the five
//! syscall wrappers used (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `close`, `poll`) are declared `extern "C"` directly — std already
//! links libc on every Unix target. Each call site's `// SAFETY:`
//! comment says why it is sound.
//!
//! The [`Waker`] is a connected UDP socket pair: any thread can make
//! the reactor's poll return by sending one byte, with no
//! platform-specific pipe or eventfd plumbing.

#![allow(clippy::useless_conversion)] // c_int vs i32 across targets

use std::io;
use std::net::UdpSocket;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

use crate::ServerBackend;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report. `token` is whatever the registration supplied
/// — the reactor uses slab keys plus two reserved values for the
/// listener and the waker.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Registration token.
    pub token: usize,
    /// Readable (includes EOF/peer-hup: a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error condition on the fd; the connection should be torn down.
    pub error: bool,
}

/// A pluggable readiness mechanism. All methods take `&mut self`: the
/// backend is owned by the single reactor thread.
pub trait EventBackend: Send {
    /// Stable name for telemetry and logs (`"epoll"`, `"poll"`).
    fn name(&self) -> &'static str;
    /// Start watching `fd` with `token` and `interest`.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Replace the interest set of an already-registered `fd`.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Stop watching `fd`. Must be called before the fd is closed.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Block until something is ready or `timeout` elapses, appending
    /// reports to `out` (cleared first). A timeout is not an error —
    /// `out` is simply left empty.
    fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

/// Build the backend `kind` names.
pub fn new_backend(kind: ServerBackend) -> io::Result<Box<dyn EventBackend>> {
    match kind {
        ServerBackend::EventedPoll => Ok(Box::new(PollBackend::new())),
        ServerBackend::Evented => {
            #[cfg(target_os = "linux")]
            {
                Ok(Box::new(EpollBackend::new()?))
            }
            #[cfg(not(target_os = "linux"))]
            {
                Ok(Box::new(PollBackend::new()))
            }
        }
    }
}

/// Cross-thread wake-up for a blocked [`EventBackend::poll`]: a
/// connected UDP socket pair on loopback. [`WakeHandle::wake`] sends one
/// byte; the reactor registers [`Waker::reader_fd`] for readability and
/// [`Waker::drain`]s on wake. Pure std, works under every backend.
pub struct Waker {
    reader: UdpSocket,
    writer: UdpSocket,
}

impl Waker {
    /// Build the socket pair.
    pub fn new() -> io::Result<Waker> {
        let reader = UdpSocket::bind("127.0.0.1:0")?;
        let writer = UdpSocket::bind("127.0.0.1:0")?;
        // Connect both ways so stray datagrams from other sockets are
        // filtered by the kernel.
        writer.connect(reader.local_addr()?)?;
        reader.connect(writer.local_addr()?)?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(Waker { reader, writer })
    }

    /// A send handle that can leave the reactor thread.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            writer: self.writer.try_clone()?,
        })
    }

    /// The fd the reactor registers for readability.
    pub fn reader_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Discard pending wake bytes so the next poll blocks again.
    pub fn drain(&self) {
        let mut b = [0u8; 16];
        while self.reader.recv(&mut b).is_ok() {}
    }
}

/// Clonable sender half of a [`Waker`].
pub struct WakeHandle {
    writer: UdpSocket,
}

impl WakeHandle {
    /// Make the reactor's poll return. Best-effort: a full socket
    /// buffer means a wake is already pending.
    pub fn wake(&self) {
        let _ = self.writer.send(&[1]);
    }
}

/// Clamp a poll timeout to whole milliseconds for the C interfaces,
/// rounding up so a 100µs timeout does not spin at 0ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => t
            .as_millis()
            .max(if t.is_zero() { 0 } else { 1 })
            .min(i32::MAX as u128) as i32,
    }
}

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
pub use self::epoll::EpollBackend;

#[cfg(target_os = "linux")]
mod epoll {
    use super::{timeout_ms, Event, EventBackend, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`; packed on x86-64,
    /// exactly as the ABI demands.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Level-triggered epoll readiness.
    pub struct EpollBackend {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollBackend {
        /// Create the epoll instance.
        pub fn new() -> io::Result<EpollBackend> {
            // SAFETY: `epoll_create1` takes a flags word and touches no
            // memory of ours; a failure comes back as -1 and `cvt` maps it.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(EpollBackend {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: {
                    let mut e = EPOLLRDHUP;
                    if interest.readable {
                        e |= EPOLLIN;
                    }
                    if interest.writable {
                        e |= EPOLLOUT;
                    }
                    e
                },
                data: token as u64,
            };
            // SAFETY: `ev` is a live, `#[repr(C)]` `struct epoll_event`
            // that the kernel only reads during the call; `self.epfd` is
            // the epoll fd this backend owns. A bad `fd` is an error
            // return, not undefined behaviour.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }
    }

    impl Drop for EpollBackend {
        fn drop(&mut self) {
            // SAFETY: `self.epfd` is owned by this backend, nothing else
            // closes it, and it is never used after this drop.
            unsafe { close(self.epfd) };
        }
    }

    impl EventBackend for EpollBackend {
        fn name(&self) -> &'static str {
            "epoll"
        }

        fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let n = loop {
                // SAFETY: the kernel writes at most `self.buf.len()`
                // `#[repr(C)]` events into `self.buf`, which is
                // initialised and borrowed mutably for the whole call.
                let r = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                match cvt(r) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & EPOLLERR != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated report: give the next poll more room.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }
}

// ----------------------------------------------------------------- poll

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// Mirrors `struct pollfd` — identical layout on every Unix.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    // nfds_t is unsigned long on the platforms we build for.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Portable `poll(2)` readiness: the registered set is a dense vector
/// scanned each call — O(registered fds), fine for hundreds, the
/// fallback story (and test oracle) everywhere epoll is missing.
pub struct PollBackend {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl PollBackend {
    /// Create an empty registration set.
    pub fn new() -> PollBackend {
        PollBackend {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn find(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }
}

impl Default for PollBackend {
    fn default() -> Self {
        Self::new()
    }
}

fn poll_events(interest: Interest) -> i16 {
    let mut e = 0i16;
    if interest.readable {
        e |= POLLIN;
    }
    if interest.writable {
        e |= POLLOUT;
    }
    e
}

impl EventBackend for PollBackend {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.find(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: poll_events(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self
            .find(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = poll_events(interest);
        self.tokens[i] = token;
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .find(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        if self.fds.is_empty() {
            // Nothing registered: sleep out the timeout rather than
            // handing poll(2) an empty set in a hot loop.
            if let Some(t) = timeout {
                std::thread::sleep(t);
            }
            return Ok(());
        }
        let n = loop {
            // SAFETY: `self.fds` is a live slice of `#[repr(C)]`
            // `struct pollfd` of exactly the length passed; the kernel
            // writes only their `revents` fields during the call.
            let r = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if r >= 0 {
                break r as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter_mut().zip(&self.tokens) {
            let r = p.revents;
            p.revents = 0;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: r & (POLLIN | POLLHUP) != 0,
                writable: r & POLLOUT != 0,
                error: r & POLLERR != 0,
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

    fn backends() -> Vec<Box<dyn EventBackend>> {
        let mut v: Vec<Box<dyn EventBackend>> = vec![Box::new(PollBackend::new())];
        #[cfg(target_os = "linux")]
        v.push(Box::new(EpollBackend::new().unwrap()));
        v
    }

    /// A loopback TCP pair.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_when_bytes_arrive_writable_when_asked() {
        for mut be in backends() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).unwrap();
            be.register(b.as_raw_fd(), 42, Interest::READ).unwrap();

            // Nothing pending: a short poll times out empty.
            let mut out = Vec::new();
            be.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(out.is_empty(), "{}: spurious event", be.name());

            a.write_all(b"x").unwrap();
            be.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(out.len(), 1, "{}", be.name());
            assert_eq!(out[0].token, 42);
            assert!(out[0].readable);

            // Level-triggered: still readable until drained.
            be.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert!(out.iter().any(|e| e.token == 42 && e.readable));
            let mut one = [0u8; 8];
            let n = (&b).read(&mut one).unwrap();
            assert_eq!(n, 1);

            // Ask for writability on an idle socket: immediately ready.
            be.reregister(b.as_raw_fd(), 42, Interest::BOTH).unwrap();
            be.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert!(
                out.iter().any(|e| e.token == 42 && e.writable),
                "{}: expected writable",
                be.name()
            );

            be.deregister(b.as_raw_fd()).unwrap();
            a.write_all(b"y").unwrap();
            be.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
            assert!(
                out.is_empty(),
                "{}: deregistered fd still reported",
                be.name()
            );
        }
    }

    #[test]
    fn peer_close_reads_as_readable() {
        for mut be in backends() {
            let (a, b) = pair();
            b.set_nonblocking(true).unwrap();
            be.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
            drop(a);
            let mut out = Vec::new();
            be.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert!(
                out.iter().any(|e| e.token == 7 && e.readable),
                "{}: close not visible as readable",
                be.name()
            );
        }
    }

    #[test]
    fn waker_unblocks_poll_from_another_thread() {
        for mut be in backends() {
            let waker = Waker::new().unwrap();
            be.register(waker.reader_fd(), 99, Interest::READ).unwrap();
            let h = waker.handle().unwrap();
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                h.wake();
            });
            let mut out = Vec::new();
            let t0 = std::time::Instant::now();
            be.poll(&mut out, Some(Duration::from_secs(10))).unwrap();
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{}: wake did not unblock poll",
                be.name()
            );
            assert!(out.iter().any(|e| e.token == 99 && e.readable));
            waker.drain();
            be.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(
                out.is_empty(),
                "{}: drained waker still readable",
                be.name()
            );
            t.join().unwrap();
        }
    }
}
