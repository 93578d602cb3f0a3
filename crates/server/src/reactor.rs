//! A single-threaded epoll reactor that hands requests to the service's
//! executor.
//!
//! One reactor thread multiplexes every connection through `epoll`
//! (raw `extern "C"` declarations — the binary already links libc
//! through `std`, so the crate keeps its zero-new-deps rule),
//! accumulates bytes into per-connection buffers, parses requests
//! incrementally through the capped [`http`](crate::http) parser, and
//! spawns each complete request onto the service's
//! [`Executor`](tabular_algebra::pool::Executor) — the same workers the
//! query's own fan-out runs on. A request job runs the governed query
//! path inside a panic fence (a panic answers 500 and is counted in
//! `request_panics`), pushes the encoded response onto a completion
//! queue and rings an `eventfd`; the reactor drains completions and
//! writes them out.
//!
//! **Pipelining and the ordering guarantee.** A client may send many
//! requests without waiting for answers; the reactor parses them all
//! into a per-connection FIFO. At most one request per connection is
//! in flight on the executor at a time — the next is dispatched only
//! when its predecessor's response has been queued — so responses are
//! written strictly in request order and a session's mutating
//! programs commit in the order the client sent them. Cross-request
//! parallelism comes from having many connections, not from reordering
//! one connection's stream.
//!
//! **Disconnect detection.** `EPOLLRDHUP` (or a 0-byte read) only
//! says the peer is done *sending*; its read side may still be open
//! (`shutdown(SHUT_WR)` after a pipelined burst is a legitimate HTTP
//! pattern). So EOF with fully-received requests still queued serves
//! the queue and then closes, like `Connection: close`. Only a
//! connection whose in-flight run is the last thing it asked for —
//! nothing else parsed or parseable — is treated as a mid-run
//! disconnect: the run's [`CancelToken`] trips directly and a
//! `disconnect_cancels` is counted.
//!
//! **Backpressure.** Readiness is level-triggered, and reading is
//! gated on two caps. A connection with [`MAX_PIPELINE`] parsed
//! requests queued, or more than [`MAX_BUF`] buffered-but-unparsed
//! bytes, has its `EPOLLIN` interest dropped until responses drain —
//! so a flooding client is bounded by its own unserved queue in both
//! requests *and* bytes, with the overflow left in the kernel socket
//! buffers it owns. A head that exceeds the
//! [`http::MAX_HEAD`](crate::http::MAX_HEAD) cap without terminating
//! is rejected with 413 — which is what eventually closes a slow-loris
//! connection without ever occupying a worker.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use tabular_algebra::CancelToken;

use crate::http::{self, Request};
use crate::json;
use crate::service::{Counters, Response, Service};

// ---- raw epoll / eventfd bindings (Linux) --------------------------------
//
// `std` already links libc; declaring the five syscall wrappers we need
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

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
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

// ---- keys and limits -----------------------------------------------------

/// Epoll user data for the listener and the wakeup eventfd; connection
/// keys are `slot << 32 | generation`, and a slot this large cannot be
/// reached (it would need 2^32 simultaneous connections).
const LISTENER_KEY: u64 = u64::MAX;
const WAKE_KEY: u64 = u64::MAX - 1;

/// Parsed-but-unserved requests a single connection may queue before
/// its `EPOLLIN` interest is dropped (read backpressure).
pub const MAX_PIPELINE: usize = 64;

/// Unparsed inbound bytes a connection may buffer before the reactor
/// stops reading from it (byte-level backpressure; without it a fast
/// sender could grow the buffer without limit while the pipeline cap
/// admits one request per completion). Strictly larger than one
/// maximal request so a parse paused at the pipeline cap can always
/// make progress once the queue drains.
pub const MAX_BUF: usize = http::MAX_HEAD + http::MAX_BODY + 64 * 1024;

const MAX_EVENTS: usize = 256;

fn key_of(slot: usize, generation: u32) -> u64 {
    ((slot as u64) << 32) | generation as u64
}

fn error_body(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json::escape(msg))
}

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

// ---- per-connection state machine ----------------------------------------

struct Conn {
    stream: TcpStream,
    generation: u32,
    /// Epoll interest bits currently registered.
    interest: u32,
    /// Inbound bytes not yet parsed into a request.
    buf: Vec<u8>,
    /// Parsed requests awaiting dispatch, in arrival order.
    pending: VecDeque<Box<Request>>,
    /// Cancel token of the single in-flight request, if any.
    in_flight: Option<CancelToken>,
    /// Encoded responses awaiting write, already in response order.
    out: Vec<u8>,
    written: usize,
    /// No further requests will be read (Connection: close, a
    /// malformed prefix, or peer EOF).
    read_closed: bool,
    /// The peer's write side is known closed.
    saw_eof: bool,
    /// A final error response to send once earlier responses drain.
    fail: Option<Vec<u8>>,
    /// Close the connection once `out` is fully written.
    close_after_drain: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u32) -> Conn {
        Conn {
            stream,
            generation,
            interest: EPOLLIN | EPOLLRDHUP,
            buf: Vec::new(),
            pending: VecDeque::new(),
            in_flight: None,
            out: Vec::new(),
            written: 0,
            read_closed: false,
            saw_eof: false,
            fail: None,
            close_after_drain: false,
        }
    }
}

fn conn_at(conns: &mut [Option<Conn>], slot: usize) -> Option<&mut Conn> {
    conns.get_mut(slot).and_then(|c| c.as_mut())
}

// ---- the reactor ---------------------------------------------------------

/// The event loop: owns the listener, the epoll instance, the
/// connection slab, and the completion queue request jobs answer into.
pub(crate) struct Reactor {
    epfd: i32,
    wake_fd: i32,
    listener: TcpListener,
    service: Arc<Service>,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: Vec<Option<Conn>>,
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
        ep_ctl(
            epfd,
            EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            EPOLLIN,
            LISTENER_KEY,
        )?;
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
                    key => {
                        let slot = (key >> 32) as usize;
                        let generation = key as u32;
                        // A stale event for a slot that was closed and
                        // reused earlier in this batch must not touch
                        // the new connection.
                        match conn_at(&mut self.conns, slot) {
                            Some(conn) if conn.generation == generation => {}
                            _ => continue,
                        }
                        if bits & (EPOLLERR | EPOLLHUP) != 0 {
                            self.destroy(slot);
                            continue;
                        }
                        if bits & EPOLLOUT != 0 {
                            self.flush(slot);
                        }
                        if bits & EPOLLIN != 0 {
                            self.on_readable(slot);
                        } else if bits & EPOLLRDHUP != 0 {
                            self.on_hangup(slot);
                        }
                    }
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
        let fd = stream.as_raw_fd();
        self.next_generation = self.next_generation.wrapping_add(1);
        let generation = self.next_generation;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if ep_ctl(
            self.epfd,
            EPOLL_CTL_ADD,
            fd,
            EPOLLIN | EPOLLRDHUP,
            key_of(slot, generation),
        )
        .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn::new(stream, generation));
        let counters = &self.service.counters;
        counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        counters.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the eventfd and apply queued request completions.
    fn on_wake(&mut self) {
        let mut counter = [0u8; 8];
        let _ = unsafe { read(self.wake_fd, counter.as_mut_ptr(), counter.len()) };
        let done = std::mem::take(&mut *lock(&self.completions));
        for (key, bytes) in done {
            let slot = (key >> 32) as usize;
            match conn_at(&mut self.conns, slot) {
                Some(conn) if conn.generation == key as u32 => {
                    conn.out.extend_from_slice(&bytes);
                    conn.in_flight = None;
                }
                // The connection died mid-run (its token was already
                // cancelled); drop the orphaned response.
                _ => continue,
            }
            // The completion freed pipeline capacity; requests beyond
            // the cap may be sitting unparsed in `buf` with `EPOLLIN`
            // dropped and the socket already drained — this is their
            // only way forward. (`flush` then re-arms interest.)
            self.parse_some(slot);
            self.pump(slot);
            self.flush(slot);
        }
    }

    /// Read until the socket drains, then parse, dispatch, and write.
    fn on_readable(&mut self, slot: usize) {
        let mut scratch = [0u8; 16 * 1024];
        let mut eof = false;
        loop {
            let Some(conn) = conn_at(&mut self.conns, slot) else {
                return;
            };
            if conn.read_closed || conn.saw_eof || conn.buf.len() >= MAX_BUF {
                // At the byte cap the rest stays in the kernel socket
                // buffer; `update_interest` drops `EPOLLIN` until
                // parsing frees space.
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => conn.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.destroy(slot);
                    return;
                }
            }
        }
        self.parse_some(slot);
        self.pump(slot);
        self.flush(slot);
        if eof {
            self.on_hangup(slot);
        } else {
            self.update_interest(slot);
        }
    }

    /// Parse as many complete requests as the buffer holds, stopping
    /// at the pipeline cap, a `Connection: close` request, or a
    /// malformed prefix.
    fn parse_some(&mut self, slot: usize) {
        loop {
            let Some(conn) = conn_at(&mut self.conns, slot) else {
                return;
            };
            if conn.read_closed || conn.buf.is_empty() || conn.pending.len() >= MAX_PIPELINE {
                return;
            }
            match http::parse_request(&conn.buf) {
                http::Parsed::Incomplete => return,
                http::Parsed::Request(req, used) => {
                    conn.buf.drain(..used);
                    if !req.keep_alive() {
                        // Nothing after an explicit close is served.
                        conn.read_closed = true;
                        conn.buf.clear();
                    }
                    if conn.in_flight.is_some() || !conn.pending.is_empty() {
                        self.service
                            .counters
                            .pipelined_requests
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    conn.pending.push_back(req);
                }
                http::Parsed::Malformed(status, msg) => {
                    // Answer everything already queued, then this
                    // error, then close — the stream is unframed past
                    // this point.
                    conn.read_closed = true;
                    conn.buf.clear();
                    let body = error_body(&msg);
                    conn.fail = Some(http::encode_response(status, body.as_bytes(), false));
                    return;
                }
            }
        }
    }

    /// Dispatch the next queued request if none is in flight; once a
    /// closing connection has nothing left to serve, queue its final
    /// error (if any) and arrange the close.
    fn pump(&mut self, slot: usize) {
        let Some(conn) = conn_at(&mut self.conns, slot) else {
            return;
        };
        if conn.in_flight.is_some() {
            return;
        }
        if let Some(req) = conn.pending.pop_front() {
            let cancel = CancelToken::new();
            conn.in_flight = Some(cancel.clone());
            let key = key_of(slot, conn.generation);
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
        } else if conn.read_closed || conn.saw_eof {
            // Bytes still buffered at EOF (with parsing not otherwise
            // shut off) are a truncated head that can never complete:
            // the 400 goes out behind whatever was served.
            if conn.saw_eof && !conn.read_closed && !conn.buf.is_empty() && conn.fail.is_none() {
                let body = error_body("truncated request head");
                conn.fail = Some(http::encode_response(400, body.as_bytes(), false));
                conn.buf.clear();
            }
            if let Some(fail) = conn.fail.take() {
                conn.out.extend_from_slice(&fail);
            }
            conn.close_after_drain = true;
        }
    }

    /// Write queued response bytes until the socket blocks; close once
    /// drained if the connection is finished.
    fn flush(&mut self, slot: usize) {
        enum Outcome {
            Keep,
            Close,
        }
        let outcome = {
            let Some(conn) = conn_at(&mut self.conns, slot) else {
                return;
            };
            loop {
                if conn.written == conn.out.len() {
                    conn.out.clear();
                    conn.written = 0;
                    break if conn.close_after_drain {
                        Outcome::Close
                    } else {
                        Outcome::Keep
                    };
                }
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => break Outcome::Close,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Outcome::Keep,
                    Err(_) => break Outcome::Close,
                }
            }
        };
        match outcome {
            Outcome::Close => self.destroy(slot),
            Outcome::Keep => self.update_interest(slot),
        }
    }

    /// The peer's write side closed (`EPOLLRDHUP` or a 0-byte read).
    /// That alone does not mean the responses are unwanted — a client
    /// may pipeline requests and `shutdown(SHUT_WR)` while reading —
    /// so fully-received requests are still served, after which the
    /// connection closes as if the last request said `Connection:
    /// close` (a truncated trailing head gets its 400 on the way out,
    /// from `pump`). Only an in-flight run with nothing further queued
    /// or parseable is a true mid-run disconnect: cancel and drop.
    fn on_hangup(&mut self, slot: usize) {
        // Parse what the final reads delivered so the cancel-vs-drain
        // decision sees every fully-received request.
        self.parse_some(slot);
        let cancel_mid_run = {
            let Some(conn) = conn_at(&mut self.conns, slot) else {
                return;
            };
            conn.saw_eof = true;
            conn.in_flight.is_some() && conn.pending.is_empty()
        };
        if cancel_mid_run {
            self.destroy(slot);
            return;
        }
        self.pump(slot);
        self.flush(slot);
    }

    /// Recompute and apply this connection's epoll interest set.
    fn update_interest(&mut self, slot: usize) {
        let epfd = self.epfd;
        let Some(conn) = conn_at(&mut self.conns, slot) else {
            return;
        };
        let mut want = 0;
        if !conn.read_closed
            && !conn.saw_eof
            && conn.pending.len() < MAX_PIPELINE
            && conn.buf.len() < MAX_BUF
        {
            want |= EPOLLIN;
        }
        if !conn.saw_eof {
            // Hangup interest stays armed while read is paused so a
            // mid-run disconnect still cancels; it drops after EOF so
            // a level-triggered RDHUP cannot spin the loop.
            want |= EPOLLRDHUP;
        }
        if conn.written < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let key = key_of(slot, conn.generation);
            let _ = ep_ctl(epfd, EPOLL_CTL_MOD, fd, want, key);
        }
    }

    /// Tear a connection down: cancel any in-flight run (counting the
    /// disconnect), deregister, close, and free the slot.
    fn destroy(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let counters = &self.service.counters;
        if let Some(token) = conn.in_flight {
            token.cancel();
            counters.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
        }
        let _ = ep_ctl(self.epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
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
