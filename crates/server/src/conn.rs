//! The connection state machine: everything a connection decides, and
//! no I/O.
//!
//! A [`Conn`] holds one connection's bytes and parsed requests — no
//! socket, service or clock. Its inputs are bytes read, the end of the
//! peer's input, the in-flight request's response and a count of bytes
//! written (plus a reset for a failed socket). From its state alone it
//! answers what the driver (the `reactor` module) does next: the
//! request to dispatch, the bytes to write, the interest to register,
//! how many bytes to read at most, and whether to close and cancel. The
//! tests drive it with random scripts through an in-memory harness.
//!
//! **Pipelining and the ordering guarantee.** A client may send many
//! requests without waiting for answers; they are parsed into a FIFO.
//! At most one request per connection is in flight at a time — the next
//! is dispatched only when its predecessor's response has been queued —
//! so responses are written strictly in request order and a session's
//! mutating programs commit in the order the client sent them.
//! Cross-request parallelism comes from having many connections, not
//! from reordering one connection's stream.
//!
//! **Disconnect detection.** `EPOLLRDHUP` (or a 0-byte read) only says
//! the peer is done *sending*; its read side may still be open
//! (`shutdown(SHUT_WR)` after a pipelined burst is a legitimate HTTP
//! pattern). So EOF with fully-received requests still queued serves
//! the queue and then closes, like `Connection: close`; bytes left over
//! are a truncated head, answered 400. Only a connection whose
//! in-flight run is the last thing it asked for — nothing else parsed
//! or parseable — is a mid-run disconnect: the close cancels the run's
//! [`CancelToken`]. A hangup that arrives while reading is paused at a
//! cap is only noted: the rest of the request stream may still wait in
//! the socket, and the 0-byte read at its end brings the EOF back.
//!
//! **Backpressure.** Readiness is level-triggered, and reading is gated
//! on two caps: a connection with [`MAX_PIPELINE`] parsed requests
//! queued reads nothing, and otherwise reads at most up to [`MAX_BUF`]
//! buffered-but-unparsed bytes. So a flooding client is bounded by its
//! own unserved queue in both requests *and* bytes, with the overflow
//! left in the kernel socket buffers it owns. A head that exceeds the
//! [`http::MAX_HEAD`] cap without terminating is rejected with 413 —
//! which is what eventually closes a slow-loris connection without
//! ever occupying a worker.

use std::collections::VecDeque;

use tabular_algebra::CancelToken;

use crate::http::{self, Request};
use crate::service::error_object;

/// Epoll interest bits, numbered as in `<sys/epoll.h>`, so the driver
/// can register the machine's answer as it is.
pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// Parsed-but-unserved requests a single connection may queue before
/// it stops reading (read backpressure).
pub const MAX_PIPELINE: usize = 64;

/// Unparsed inbound bytes a connection may buffer (byte-level
/// backpressure). Strictly larger than one maximal request so a parse
/// paused at the pipeline cap can always make progress once the queue
/// drains.
pub const MAX_BUF: usize = http::MAX_HEAD + http::MAX_BODY + 64 * 1024;

/// A request for the driver to run, with the token that cancels it.
pub(crate) type Dispatch = (Box<Request>, CancelToken);

/// The verdict that a connection is over.
pub(crate) struct Close {
    /// The in-flight run the close abandons; the driver cancels it and
    /// counts a `disconnect_cancels`.
    pub cancel: Option<CancelToken>,
}

/// One connection's state (see the module docs).
#[derive(Default)]
pub(crate) struct Conn {
    /// Inbound bytes not yet parsed into a request.
    buf: Vec<u8>,
    /// Parsed requests awaiting dispatch, in arrival order.
    pending: VecDeque<Box<Request>>,
    /// The request dispatched but not yet taken by the driver.
    dispatched: Option<Dispatch>,
    /// Cancel token of the single in-flight request, if any.
    in_flight: Option<CancelToken>,
    /// Encoded responses awaiting write, already in response order.
    out: Vec<u8>,
    written: usize,
    /// No further requests will be parsed (close request or bad prefix).
    read_closed: bool,
    /// The peer's write side is closed and everything it sent was read.
    saw_eof: bool,
    /// The peer hung up while reading was paused at a cap.
    hup_paused: bool,
    /// A final error response to send once earlier responses drain.
    fail: Option<Vec<u8>>,
    /// Everything owed is queued: close once it is written.
    draining: bool,
    /// The connection is over now (failed socket or mid-run disconnect).
    aborted: bool,
    /// Requests parsed behind another, for `pipelined_requests`.
    pipelined: u64,
}

impl Conn {
    /// Bytes read from the socket, at most [`room`](Conn::room) of them.
    pub fn read(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.advance();
    }

    /// The peer closed its write side: a 0-byte read or `EPOLLRDHUP`.
    pub fn eof(&mut self) {
        if !self.read_closed && self.room() == 0 {
            // Paused at a cap: requests may still wait in the socket.
            self.hup_paused = true;
            return;
        }
        self.saw_eof = true;
        self.aborted |= self.in_flight.is_some() && self.pending.is_empty();
        self.advance();
    }

    /// The in-flight request's encoded response.
    pub fn complete(&mut self, response: &[u8]) {
        self.out.extend_from_slice(response);
        self.in_flight = None;
        // The freed pipeline slot may be the only way forward for
        // requests already buffered: the socket may hold nothing more,
        // so no read would ever parse them.
        self.advance();
    }

    /// `n` more bytes of [`unwritten`](Conn::unwritten) reached the socket.
    pub fn wrote(&mut self, n: usize) {
        self.written += n;
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
    }

    /// The socket failed: an error or hangup event, or a read or write
    /// that cannot proceed.
    pub fn reset(&mut self) {
        self.aborted = true;
    }

    /// The request to run now, if one was just dispatched.
    pub fn dispatch(&mut self) -> Option<Dispatch> {
        self.dispatched.take()
    }

    /// Requests pipelined behind another since the last call.
    pub fn take_pipelined(&mut self) -> u64 {
        std::mem::take(&mut self.pipelined)
    }

    /// Response bytes not yet written, in order.
    pub fn unwritten(&self) -> &[u8] {
        &self.out[self.written..]
    }

    /// How many more bytes the machine may take: 0 once reading is over
    /// or while it is paused at a cap.
    pub fn room(&self) -> usize {
        if self.read_closed || self.saw_eof || self.pending.len() >= MAX_PIPELINE {
            return 0;
        }
        MAX_BUF.saturating_sub(self.buf.len())
    }

    /// The epoll interest the connection wants registered.
    pub fn interest(&self) -> u32 {
        let mut want = 0;
        if self.room() > 0 {
            want |= EPOLLIN;
        }
        if !self.saw_eof && !self.hup_paused {
            // Hangup interest stays armed while reading is paused so a
            // mid-run disconnect still cancels; it drops once the hangup
            // is seen so a level-triggered RDHUP cannot spin the loop.
            want |= EPOLLRDHUP;
        }
        if !self.unwritten().is_empty() {
            want |= EPOLLOUT;
        }
        want
    }

    /// Whether to close the connection now, and which run that cancels.
    pub fn close(&self) -> Option<Close> {
        if self.aborted {
            Some(Close {
                cancel: self.in_flight.clone(),
            })
        } else if self.draining && self.unwritten().is_empty() {
            Some(Close { cancel: None })
        } else {
            None
        }
    }

    /// Parse what the buffer holds, then dispatch the next request if
    /// none is in flight; once a closing connection has nothing left to
    /// serve, queue its final error (if any) and start draining.
    fn advance(&mut self) {
        while !self.read_closed && !self.buf.is_empty() && self.pending.len() < MAX_PIPELINE {
            match http::parse_request(&self.buf) {
                http::Parsed::Incomplete => break,
                http::Parsed::Request(req, used) => {
                    self.buf.drain(..used);
                    if !req.keep_alive() {
                        // Nothing after an explicit close is served.
                        self.read_closed = true;
                        self.buf.clear();
                    }
                    if self.in_flight.is_some() || !self.pending.is_empty() {
                        self.pipelined += 1;
                    }
                    self.pending.push_back(req);
                }
                http::Parsed::Malformed(status, msg) => {
                    // Answer everything already queued, then this error,
                    // then close — the stream is unframed past this point.
                    self.read_closed = true;
                    self.buf.clear();
                    self.fail = Some(error_response(status, &msg));
                }
            }
        }
        if self.in_flight.is_some() {
            return;
        }
        if let Some(req) = self.pending.pop_front() {
            let cancel = CancelToken::new();
            self.in_flight = Some(cancel.clone());
            self.dispatched = Some((req, cancel));
        } else if self.read_closed || self.saw_eof {
            if !self.read_closed && !self.buf.is_empty() {
                // Bytes left at EOF are a head that can never complete.
                self.fail = Some(error_response(400, "truncated request head"));
                self.buf.clear();
            }
            if let Some(fail) = self.fail.take() {
                self.out.extend_from_slice(&fail);
            }
            self.draining = true;
        }
    }
}

fn error_response(status: u16, msg: &str) -> Vec<u8> {
    http::encode_response(status, error_object(msg).as_bytes(), false)
}

#[cfg(test)]
mod tests {
    //! The in-memory harness: random scripts drive a [`Conn`] through a
    //! model of the reactor's driver and of one socket, checking the
    //! machine's invariants after every step and the responses at the
    //! end. It uses the real caps.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::ops::{Range, RangeInclusive};

    /// One message of the client's request stream.
    #[derive(Clone, Copy, Debug)]
    enum Msg {
        /// A complete request with a `body`-byte body; `close` sends
        /// `Connection: close`.
        Req { body: usize, close: bool },
        /// A prefix the parser rejects with this status.
        Bad(u16),
    }

    /// One step of a script.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// The client writes its next `n` bytes into the socket.
        Send(usize),
        /// One round of readiness: a read returns at most `read` bytes,
        /// and the socket accepts `write` bytes in all (short writes).
        Poll { read: usize, write: usize },
        /// The in-flight run finishes; the socket accepts `write` bytes.
        Complete { write: usize },
        /// The client shuts down its write side.
        Shut,
        /// The connection is reset (`EPOLLERR | EPOLLHUP`).
        Reset,
    }

    #[derive(Clone, Debug)]
    struct Script {
        msgs: Vec<Msg>,
        steps: Vec<Step>,
    }

    fn message(i: usize, msg: Msg) -> Vec<u8> {
        match msg {
            Msg::Req { body, close } => {
                let close = if close { "connection: close\r\n" } else { "" };
                let head = format!(
                    "POST /r/{i} HTTP/1.1\r\nhost: t\r\ncontent-length: {body}\r\n{close}\r\n"
                );
                let mut bytes = head.into_bytes();
                bytes.extend_from_slice(&vec![b'x'; body]);
                bytes
            }
            Msg::Bad(400) => b"GET / HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
            Msg::Bad(413) => vec![b'a'; http::MAX_HEAD + 1],
            Msg::Bad(_) => b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec(),
        }
    }

    /// Split a response stream into `(status, body)` pairs (error bodies
    /// blanked), and whether a partial response trails them.
    fn responses(mut bytes: &[u8]) -> (Vec<(u16, String)>, bool) {
        let mut out = Vec::new();
        while let Some(end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&bytes[..end]).unwrap();
            let status: u16 = head[9..12].parse().unwrap();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|v| v.parse().ok())
                .unwrap();
            let Some(body) = bytes.get(end + 4..end + 4 + len) else {
                break;
            };
            let body = if status == 200 {
                String::from_utf8_lossy(body).into_owned()
            } else {
                String::new()
            };
            out.push((status, body));
            bytes = &bytes[end + 4 + len..];
        }
        (out, !bytes.is_empty())
    }

    /// The client, its socket and the reactor's driver, around one
    /// machine.
    struct World {
        conn: Conn,
        msgs: Vec<Msg>,
        /// The client's request stream and each message's end offset.
        wire: Vec<u8>,
        ends: Vec<usize>,
        /// Bytes the client wrote into the socket; bytes the driver read.
        sent: usize,
        taken: usize,
        shut: bool,
        reset: bool,
        /// Interest registered with the modelled epoll.
        registered: u32,
        /// The run the driver spawned and has not seen complete.
        run: Option<Dispatch>,
        /// Bytes written to the client; at the close, bytes still owed.
        received: Vec<u8>,
        dropped: Vec<u8>,
        /// Set by the close: whether it cancelled a run.
        closed: Option<bool>,
    }

    impl World {
        fn new(msgs: Vec<Msg>) -> World {
            let (mut wire, mut ends) = (Vec::new(), Vec::new());
            for (i, &msg) in msgs.iter().enumerate() {
                wire.extend_from_slice(&message(i, msg));
                ends.push(wire.len());
            }
            let conn = Conn::default();
            World {
                registered: conn.interest(),
                conn,
                msgs,
                wire,
                ends,
                sent: 0,
                taken: 0,
                shut: false,
                reset: false,
                run: None,
                received: Vec::new(),
                dropped: Vec::new(),
                closed: None,
            }
        }

        fn step(&mut self, step: Step) -> Result<(), TestCaseError> {
            if self.closed.is_some() {
                return Ok(());
            }
            match step {
                Step::Send(n) if !self.shut => self.sent = (self.sent + n).min(self.wire.len()),
                Step::Send(_) => {}
                Step::Shut => self.shut = true,
                Step::Poll { read, write } => {
                    // Level-triggered readiness, masked by the interest.
                    let mut ready = if write > 0 { EPOLLOUT } else { 0 };
                    if self.shut {
                        ready |= EPOLLIN | EPOLLRDHUP;
                    } else if self.sent > self.taken {
                        ready |= EPOLLIN;
                    }
                    if ready & self.registered != 0 {
                        return self.on_ready(ready & self.registered, read, write);
                    }
                }
                Step::Complete { write } => {
                    if let Some((req, _)) = self.run.take() {
                        let body = req.path.as_bytes();
                        self.conn
                            .complete(&http::encode_response(200, body, req.keep_alive()));
                        return self.settle(write);
                    }
                }
                Step::Reset => {
                    self.reset = true;
                    self.conn.reset();
                    return self.settle(0);
                }
            }
            Ok(())
        }

        /// The driver's `on_ready`, over the modelled socket.
        fn on_ready(&mut self, bits: u32, read: usize, write: usize) -> Result<(), TestCaseError> {
            if bits & EPOLLIN != 0 {
                loop {
                    let room = self.conn.room().min(16 * 1024);
                    if room == 0 {
                        break;
                    }
                    let n = room.min(read).min(self.sent - self.taken);
                    if n == 0 {
                        // A 0-byte read at EOF, else `WouldBlock`.
                        if self.shut {
                            self.conn.eof();
                        }
                        break;
                    }
                    self.conn.read(&self.wire[self.taken..self.taken + n]);
                    self.taken += n;
                    let buffered = self.conn.buf.len();
                    prop_assert!(buffered <= MAX_BUF, "buffered {buffered} > MAX_BUF");
                }
            } else if bits & EPOLLRDHUP != 0 {
                self.conn.eof();
            }
            self.settle(write)
        }

        /// The driver's `settle`, then the invariants.
        fn settle(&mut self, mut write: usize) -> Result<(), TestCaseError> {
            self.conn.take_pipelined();
            if let Some(run) = self.conn.dispatch() {
                prop_assert!(self.run.is_none(), "two requests in flight");
                self.run = Some(run);
            }
            while self.conn.close().is_none() && !self.conn.unwritten().is_empty() && write > 0 {
                let n = self.conn.unwritten().len().min(write);
                self.received.extend_from_slice(&self.conn.unwritten()[..n]);
                self.conn.wrote(n);
                write -= n;
            }
            if let Some(close) = self.conn.close() {
                prop_assert_eq!(
                    close.cancel.is_some(),
                    self.run.is_some(),
                    "a close cancels exactly the run in flight"
                );
                if let Some(token) = close.cancel {
                    token.cancel();
                    prop_assert!(self.run.as_ref().unwrap().1.is_cancelled());
                }
                self.dropped = self.conn.unwritten().to_vec();
                self.closed = Some(self.run.is_some());
                return Ok(());
            }
            self.registered = self.conn.interest();
            let c = &self.conn;
            let buffered = c.buf.len();
            prop_assert!(buffered <= MAX_BUF, "buffered {buffered} > MAX_BUF");
            if c.pending.len() >= MAX_PIPELINE || buffered >= MAX_BUF {
                prop_assert!(self.registered & EPOLLIN == 0, "EPOLLIN armed at a cap");
            }
            prop_assert_eq!(
                self.registered & EPOLLOUT != 0,
                !c.unwritten().is_empty(),
                "EPOLLOUT armed exactly while bytes are unwritten"
            );
            prop_assert_eq!(self.run.is_some(), c.in_flight.is_some());
            prop_assert!(
                self.run.is_some() || self.registered & (EPOLLIN | EPOLLOUT) != 0,
                "stall: nothing in flight and no read or write armed"
            );
            Ok(())
        }

        /// The answers owed for the bytes sent, in order, and whether
        /// the connection must then close.
        fn expected(&self) -> (Vec<(u16, String)>, bool) {
            let mut want = Vec::new();
            let mut start = 0;
            for (i, (&end, &msg)) in self.ends.iter().zip(&self.msgs).enumerate() {
                if end > self.sent {
                    if self.shut && start < self.sent {
                        want.push((400, String::new())); // a truncated head
                    }
                    break;
                }
                start = end;
                match msg {
                    Msg::Req { close, .. } => {
                        want.push((200, format!("/r/{i}")));
                        if close {
                            return (want, true);
                        }
                    }
                    Msg::Bad(status) => {
                        want.push((status, String::new()));
                        return (want, true);
                    }
                }
            }
            (want, self.shut)
        }

        /// Run the connection to quiescence (every run completes, the
        /// socket takes every byte), then check the answers.
        fn finish(mut self) -> Result<(), TestCaseError> {
            for _ in 0..2 * self.msgs.len() + 4 {
                self.step(Step::Complete { write: usize::MAX })?;
                self.step(Step::Poll {
                    read: 16 * 1024,
                    write: usize::MAX,
                })?;
            }
            let (want, closes) = self.expected();
            let (got, partial) = responses(&self.received);
            if self.reset {
                prop_assert!(want.starts_with(&got), "after a reset: {got:?} vs {want:?}");
                return Ok(());
            }
            match self.closed {
                None => {
                    prop_assert!(!closes, "connection left open");
                    prop_assert!(self.conn.pending.is_empty() && self.run.is_none());
                    prop_assert_eq!(got, want);
                    prop_assert!(!partial);
                }
                Some(false) => {
                    prop_assert!(closes, "closed a connection that owed answers");
                    prop_assert_eq!(got, want);
                    prop_assert!(!partial);
                }
                Some(true) => {
                    // A mid-run disconnect: the run it cancels is the
                    // last complete request, and every earlier answer
                    // was owed (written or dropped at the close).
                    prop_assert!(self.shut, "cancelled without a hangup");
                    self.received.extend_from_slice(&self.dropped);
                    let (got, partial) = responses(&self.received);
                    let mut oks: Vec<_> = want.into_iter().filter(|(s, _)| *s == 200).collect();
                    let last = oks.pop().map(|(_, path)| path);
                    let cancelled = self.run.map(|(req, _)| req.path);
                    prop_assert_eq!(last, cancelled);
                    prop_assert_eq!(got, oks);
                    prop_assert!(!partial);
                }
            }
            Ok(())
        }
    }

    fn run(script: Script) -> Result<(), TestCaseError> {
        let mut world = World::new(script.msgs);
        for step in script.steps {
            world.step(step)?;
        }
        world.finish()
    }

    fn requests(
        body: RangeInclusive<usize>,
        closes: bool,
        count: Range<usize>,
    ) -> impl Strategy<Value = Vec<Msg>> {
        let req = (body, 0..10u8).prop_map(move |(body, c)| Msg::Req {
            body,
            close: closes && c == 0,
        });
        vec(req, count)
    }

    /// A script family: its messages, then steps with these sizes.
    fn family(
        msgs: impl Strategy<Value = Vec<Msg>> + 'static,
        send: RangeInclusive<usize>,
        read: RangeInclusive<usize>,
        write: RangeInclusive<usize>,
        steps: Range<usize>,
        (shut, reset): (u32, u32),
    ) -> BoxedStrategy<Script> {
        let step = prop_oneof![
            6 => send.prop_map(Step::Send),
            6 => (read, write.clone()).prop_map(|(read, write)| Step::Poll { read, write }),
            4 => write.prop_map(|write| Step::Complete { write }),
            shut => Just(Step::Shut),
            reset => Just(Step::Reset),
        ];
        (msgs, vec(step, steps))
            .prop_map(|(msgs, steps)| Script { msgs, steps })
            .boxed()
    }

    #[test]
    fn connection_machine_harness() {
        let malformed = (
            requests(0..=24, false, 0..5),
            prop_oneof![
                Just(Msg::Bad(400)),
                Just(Msg::Bad(413)),
                Just(Msg::Bad(501)),
                Just(Msg::Req {
                    body: 3,
                    close: false
                }),
            ],
        )
            .prop_map(|(mut msgs, last)| {
                msgs.push(last);
                msgs
            });
        let big = || requests(3 << 20..=http::MAX_BODY, false, 2..4);
        let floods = prop_oneof![
            big(),
            requests(100 << 10..=140 << 10, false, 66..90),
            // A full pipeline with megabytes queued behind it.
            (
                requests(0..=8, false, MAX_PIPELINE..MAX_PIPELINE + 8),
                big()
            )
                .prop_map(|(mut msgs, tail)| {
                    msgs.extend(tail);
                    msgs
                }),
        ];
        let families = [
            (
                "splits",
                family(
                    requests(0..=40, true, 1..8),
                    1..=48,
                    1..=32,
                    0..=96,
                    8..48,
                    (1, 0),
                ),
            ),
            (
                "bursts",
                family(
                    requests(0..=8, false, MAX_PIPELINE + 1..2 * MAX_PIPELINE + 8),
                    256..=8192,
                    512..=16384,
                    0..=4096,
                    10..60,
                    (1, 0),
                ),
            ),
            (
                "floods",
                family(
                    floods,
                    256 << 10..=4 << 20,
                    4096..=16384,
                    0..=1024,
                    6..30,
                    (1, 0),
                ),
            ),
            (
                "malformed",
                family(malformed, 1..=8192, 512..=4096, 0..=256, 8..48, (2, 0)),
            ),
            (
                "hangups",
                family(
                    requests(0..=16, true, 1..6),
                    1..=256,
                    1..=256,
                    0..=128,
                    4..40,
                    (3, 1),
                ),
            ),
        ];
        for (name, scripts) in families {
            TestRunner::named(ProptestConfig::with_cases(256), name)
                .run(&scripts, run)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }
}
