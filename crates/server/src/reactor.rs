//! The epoll driver: one reactor thread performs every syscall for
//! every connection and hands requests to the service's executor.
//!
//! What a connection does next is decided by its [`Conn`] state
//! machine, which does no I/O (see the `conn` module). The driver owns
//! the listener, the epoll instance, a generation-keyed connection slab
//! and the completion queue. It feeds each machine its readiness (bytes
//! read, never more than [`Conn::room`]; the hangup; a failed socket)
//! and its completions, then *settles* the connection: spawns the
//! dispatched request onto the service's
//! [`Executor`](tabular_algebra::pool::Executor), writes what is
//! unwritten, and closes the connection or calls `epoll_ctl(MOD)` if
//! the wanted interest changed.
//!
//! A request job runs the governed query path inside a panic fence (a
//! panic answers 500 and is counted in `request_panics`), pushes the
//! encoded response onto the completion queue and rings an `eventfd`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::conn::{Close, Conn, EPOLLIN, EPOLLRDHUP};
use crate::http;
use crate::service::{Counters, Response, Service};

// ---- raw epoll / eventfd bindings (Linux) --------------------------------
//
// `std` already links libc; declaring the syscall wrappers we need
// keeps the crate dependency-free. The event struct is packed on
// x86-64 (and only there), matching <sys/epoll.h>.

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU microseconds consumed by the calling thread. The busy counters
/// use this rather than wall time so that, on an oversubscribed host,
/// time spent descheduled does not count as busy — deltas of these
/// counters are what the scaling benchmark's multi-core projection
/// divides across cores, so they must be CPU seconds, not wall.
fn thread_cpu_us() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

fn ep_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // The DEL op ignores the event but old kernels reject a null pointer.
    if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Epoll user data for the listener and the wakeup eventfd; connection
/// keys are `slot << 32 | generation`, and a slot this large cannot be
/// reached (it would need 2^32 simultaneous connections).
const LISTENER_KEY: u64 = u64::MAX;
const WAKE_KEY: u64 = u64::MAX - 1;

const MAX_EVENTS: usize = 256;

// ---- request jobs --------------------------------------------------------

/// A request job's encoded response, keyed by its connection.
type Completion = (u64, Vec<u8>);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The body of a request job behind its panic fence: `handle` answers
/// the request, and the answer is encoded for the wire. A panic in
/// either is caught, counted in `request_panics`, and answered 500, so
/// the connection always gets its response and the worker thread
/// survives for other requests and other queries' fan-out.
fn answer(counters: &Counters, keep_alive: bool, handle: impl FnOnce() -> Response) -> Vec<u8> {
    let encode =
        |resp: Response| http::encode_response(resp.status, resp.body.as_bytes(), keep_alive);
    catch_unwind(AssertUnwindSafe(|| encode(handle()))).unwrap_or_else(|_| {
        counters.request_panics.fetch_add(1, Ordering::Relaxed);
        encode(Response::error(500, "internal error"))
    })
}

/// Bump the eventfd counter so `epoll_wait` returns. The write can
/// only fail if the counter saturates, in which case the reactor is
/// already guaranteed a wakeup.
fn ring(wake_fd: i32) {
    let one = 1u64.to_ne_bytes();
    let _ = unsafe { write(wake_fd, one.as_ptr(), one.len()) };
}

// ---- the reactor ---------------------------------------------------------

/// A live connection: socket, state machine and registered interest.
struct Slot {
    stream: TcpStream,
    generation: u32,
    interest: u32,
    conn: Conn,
}

/// The live connection under an epoll key; a stale key finds nothing.
fn live(conns: &mut [Option<Slot>], key: u64) -> Option<&mut Slot> {
    let slot = conns.get_mut((key >> 32) as usize)?.as_mut()?;
    (slot.generation == key as u32).then_some(slot)
}

/// The event loop: owns the listener, the epoll instance, the
/// connection slab, and the completion queue request jobs answer into.
pub(crate) struct Reactor {
    epfd: i32,
    wake_fd: i32,
    listener: TcpListener,
    service: Arc<Service>,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_generation: u32,
}

impl Reactor {
    /// Build the reactor: nonblocking listener, epoll instance, and
    /// wakeup eventfd. Requests run on the service's executor.
    pub fn new(listener: TcpListener, service: Arc<Service>) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let wake_fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wake_fd < 0 {
            let e = std::io::Error::last_os_error();
            unsafe { close(epfd) };
            return Err(e);
        }
        let listener_fd = listener.as_raw_fd();
        ep_ctl(epfd, EPOLL_CTL_ADD, listener_fd, EPOLLIN, LISTENER_KEY)?;
        ep_ctl(epfd, EPOLL_CTL_ADD, wake_fd, EPOLLIN, WAKE_KEY)?;
        Ok(Reactor {
            epfd,
            wake_fd,
            listener,
            service,
            completions: Arc::default(),
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        })
    }

    /// Serve forever on the calling thread. Only a broken epoll
    /// instance returns (an error); everything per-connection is
    /// contained.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX_EVENTS as i32, -1) };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            let started = thread_cpu_us();
            for ev in &events[..n as usize] {
                let (bits, data) = (ev.events, ev.data);
                match data {
                    LISTENER_KEY => self.on_accept(),
                    WAKE_KEY => self.on_wake(),
                    key => self.on_ready(key, bits),
                }
            }
            self.service
                .counters
                .reactor_busy_us
                .fetch_add(thread_cpu_us().saturating_sub(started), Ordering::Relaxed);
        }
    }

    fn on_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.insert_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failures (e.g. fd exhaustion): back
                // off briefly instead of spinning on the level-
                // triggered readiness.
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        // Responses are written whole; waiting out Nagle would add
        // ~40ms of idle latency per round trip on loopback.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.next_generation = self.next_generation.wrapping_add(1);
        let generation = self.next_generation;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let conn = Conn::default();
        let interest = conn.interest();
        let key = ((slot as u64) << 32) | generation as u64;
        if ep_ctl(self.epfd, EPOLL_CTL_ADD, stream.as_raw_fd(), interest, key).is_err() {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Slot {
            stream,
            generation,
            interest,
            conn,
        });
        let counters = &self.service.counters;
        counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        counters.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the eventfd and feed each completion to its connection.
    fn on_wake(&mut self) {
        let mut counter = [0u8; 8];
        let _ = unsafe { read(self.wake_fd, counter.as_mut_ptr(), counter.len()) };
        let done = std::mem::take(&mut *lock(&self.completions));
        for (key, bytes) in done {
            // A connection that died mid-run (its token already
            // cancelled) drops its orphaned response.
            if let Some(s) = live(&mut self.conns, key) {
                s.conn.complete(&bytes);
                self.settle(key);
            }
        }
    }

    /// Feed one readiness event to its connection's machine: a failed
    /// socket, the bytes the machine has room for, or the hangup.
    /// Writability needs no input; `settle` writes whatever is owed.
    fn on_ready(&mut self, key: u64, bits: u32) {
        let Some(s) = live(&mut self.conns, key) else {
            return;
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            s.conn.reset();
        } else if bits & EPOLLIN != 0 {
            let mut scratch = [0u8; 16 * 1024];
            loop {
                let room = s.conn.room().min(scratch.len());
                if room == 0 {
                    break;
                }
                match s.stream.read(&mut scratch[..room]) {
                    Ok(0) => {
                        s.conn.eof();
                        break;
                    }
                    Ok(n) => s.conn.read(&scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        s.conn.reset();
                        break;
                    }
                }
            }
        } else if bits & EPOLLRDHUP != 0 {
            s.conn.eof();
        }
        self.settle(key);
    }

    /// Carry out what the machine wants after an input: spawn the
    /// request it dispatched, write what it has unwritten, then close
    /// the connection or re-register its interest if that changed.
    fn settle(&mut self, key: u64) {
        let Some(s) = live(&mut self.conns, key) else {
            return;
        };
        let counters = &self.service.counters;
        let pipelined = s.conn.take_pipelined();
        if pipelined > 0 {
            counters
                .pipelined_requests
                .fetch_add(pipelined, Ordering::Relaxed);
        }
        if let Some((req, cancel)) = s.conn.dispatch() {
            let service = Arc::clone(&self.service);
            let completions = Arc::clone(&self.completions);
            let wake_fd = self.wake_fd;
            self.service.executor.spawn(move || {
                let started = thread_cpu_us();
                let bytes = answer(&service.counters, req.keep_alive(), || {
                    service.handle(&req, Some(&cancel))
                });
                service
                    .counters
                    .worker_busy_us
                    .fetch_add(thread_cpu_us().saturating_sub(started), Ordering::Relaxed);
                lock(&completions).push((key, bytes));
                ring(wake_fd);
            });
        }
        while s.conn.close().is_none() && !s.conn.unwritten().is_empty() {
            match s.stream.write(s.conn.unwritten()) {
                Ok(0) => s.conn.reset(),
                Ok(n) => s.conn.wrote(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => s.conn.reset(),
            }
        }
        if let Some(close) = s.conn.close() {
            self.destroy(key, close);
            return;
        }
        let want = s.conn.interest();
        if want != s.interest {
            s.interest = want;
            let _ = ep_ctl(self.epfd, EPOLL_CTL_MOD, s.stream.as_raw_fd(), want, key);
        }
    }

    /// Tear a connection down: cancel the run the close abandons
    /// (counting the disconnect), deregister, close, and free the slot.
    fn destroy(&mut self, key: u64, close: Close) {
        let slot = (key >> 32) as usize;
        let Some(s) = self.conns[slot].take() else {
            return;
        };
        let counters = &self.service.counters;
        if let Some(token) = close.cancel {
            token.cancel();
            counters.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
        }
        let _ = ep_ctl(self.epfd, EPOLL_CTL_DEL, s.stream.as_raw_fd(), 0, 0);
        counters.connections_open.fetch_sub(1, Ordering::Relaxed);
        self.free.push(slot);
        // Dropping the stream closes the socket.
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe {
            close(self.wake_fd);
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_is_answered_500_and_counted() {
        let counters = Counters::default();
        let bytes = answer(&counters, true, || panic!("handler failure"));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 500 "), "{text}");
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"ok\":false,\"error\":\"internal error\"}"),
            "{text}"
        );
        assert_eq!(counters.request_panics.load(Ordering::Relaxed), 1);

        // A request that returns is encoded as answered, and not counted.
        let bytes = answer(&counters, false, || Response::error(404, "no such route"));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 "), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert_eq!(counters.request_panics.load(Ordering::Relaxed), 1);
    }
}
