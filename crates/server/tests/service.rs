//! Integration tests for the query service, over real sockets and
//! through the epoll reactor.
//!
//! The contracts under test: sessions are isolated; a client
//! disconnect cancels its in-flight run (reactor `EPOLLRDHUP`/EOF, no
//! watcher thread); a deadline trip answers 408 with the partial
//! stats the governor carries; malformed bodies are the client's
//! error (400), never the server's (500); chunked transfer encoding
//! is refused with 501; pipelined requests are answered in order even
//! past the pipeline and byte backpressure caps; a client that
//! half-closes after a burst still gets its queued responses; one
//! slow-loris connection cannot stall other clients; and a single
//! executor worker serves nested fan-out without deadlock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tabular_algebra::{parser, run_governed_traced, Budget};
use tabular_core::{interner, io, Database};
use tabular_server::session::Sessions;
use tabular_server::{json, Config, Server, Service, MAX_BUF, MAX_PIPELINE};

fn start(
    default_deadline_ms: Option<u64>,
    default_cell_budget: Option<usize>,
) -> (SocketAddr, Arc<Service>) {
    let config = Config {
        addr: "127.0.0.1:0".into(),
        default_deadline_ms,
        default_cell_budget,
        workers: 0,
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

/// Read one HTTP response from a keep-alive stream: status line,
/// headers, content-length body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// One-shot HTTP exchange (`connection: close`); returns status + body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn open_session(addr: SocketAddr) -> String {
    let (status, body) = http(addr, "POST", "/sessions", "");
    assert_eq!(status, 201, "{body}");
    json::parse(&body)
        .unwrap()
        .get("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn upload(addr: SocketAddr, session: &str, csv: &str) {
    let (status, body) = http(addr, "POST", &format!("/sessions/{session}/tables"), csv);
    assert_eq!(status, 201, "{body}");
}

fn query_body(program: &str) -> String {
    format!("{{\"program\": \"{}\"}}", json::escape(program))
}

#[test]
fn sessions_are_isolated_and_commits_persist() {
    let (addr, _) = start(None, None);
    let a = open_session(addr);
    let b = open_session(addr);
    assert_ne!(a, b);
    upload(addr, &a, "Secret,X\nr,only-in-a\n");
    upload(addr, &b, "Other,Y\nr,only-in-b\n");

    // A mutating query in session A commits; session B never sees it.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{a}/query"),
        &query_body("T <- COPY(Secret)"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("only-in-a"), "{body}");
    assert!(
        !body.contains("only-in-b"),
        "session A saw session B: {body}"
    );

    // The committed T is visible to a later query in A …
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{a}/query"),
        &query_body("U <- COPY(T)"),
    );
    assert_eq!(status, 200, "commit persisted: {body}");
    assert!(body.contains("\"name\":\"U\""), "{body}");

    // … but not to session B, where the same program cannot resolve T.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{b}/query"),
        &query_body("U <- COPY(T)"),
    );
    assert_eq!(status, 200, "COPY of an absent table matches nothing");
    assert!(!body.contains("only-in-a"), "isolation broken: {body}");

    // readonly=1 skips the commit.
    let (status, _) = http(
        addr,
        "POST",
        &format!("/sessions/{b}/query?readonly=1"),
        &query_body("V <- COPY(Other)"),
    );
    assert_eq!(status, 200);
    let (_, body) = http(
        addr,
        "POST",
        &format!("/sessions/{b}/query"),
        &query_body("W2 <- COPY(V)"),
    );
    assert!(
        !body.contains("\"name\":\"V\""),
        "readonly run leaked a commit: {body}"
    );

    // Closing a session 404s further use.
    let (status, _) = http(addr, "DELETE", &format!("/sessions/{a}"), "");
    assert_eq!(status, 204);
    let (status, _) = http(
        addr,
        "POST",
        &format!("/sessions/{a}/query"),
        &query_body("T <- COPY(X)"),
    );
    assert_eq!(status, 404);
}

#[test]
fn disconnect_mid_run_cancels_the_query() {
    let (addr, service) = start(None, None);
    let session = open_session(addr);
    // Spin tables sized so the run cannot finish before the client
    // vanishes: the A/B swap keeps every iteration executing (no delta
    // skip), and the 250k-row PRODUCT rebuilt each iteration makes the
    // full 10_000-iteration run take minutes, not milliseconds.
    let mut rows = String::new();
    for i in 0..500 {
        rows.push_str(&format!("r{i},v{i}\n"));
    }
    upload(addr, &session, &format!("A,X\n{rows}"));
    upload(addr, &session, &format!("B,Y\n{rows}"));
    upload(addr, &session, "W,K\ngo,1\n");

    let body = query_body(
        "while W do
           T <- PRODUCT(A, B)
           S <- COPY(A)
           A <- COPY(B)
           B <- COPY(S)
         end",
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /sessions/{session}/query HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.flush().unwrap();
    // Let the run get admitted, then vanish without reading the answer.
    std::thread::sleep(Duration::from_millis(60));
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(10);
    while service.counters.disconnect_cancels.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the run"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The reactor trips the token before the run unwinds; the trip is
    // only counted once the (doomed) response renders, so keep polling.
    while service.counters.budget_trips.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "cancelled run never surfaced as a budget trip"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The stats route reports the cancellation.
    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = json::parse(&body).unwrap();
    assert!(
        stats.get("disconnect_cancels").unwrap().as_num().unwrap() >= 1.0,
        "{body}"
    );
}

#[test]
fn deadline_trip_answers_408_with_partial_stats() {
    // Server-wide default deadline of 0: every admission trips at once.
    let (addr, _) = start(Some(0), None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\n");
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query?trace=spans"),
        &query_body("T <- TRANSPOSE(A)"),
    );
    assert_eq!(status, 408, "{body}");
    let parsed = json::parse(&body).expect("partial report is well-formed JSON");
    let result = &parsed.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        result.get("resource").unwrap().as_str(),
        Some("wall-clock deadline (ms)")
    );
    assert!(
        result.get("stats").is_some(),
        "partial stats attached: {body}"
    );
    assert!(
        result.get("trace").is_some(),
        "partial trace attached: {body}"
    );

    // A per-request override can lift the default: generous deadline.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query?deadline_ms=60000"),
        &query_body("T <- TRANSPOSE(A)"),
    );
    assert_eq!(status, 200, "{body}");
}

#[test]
fn cell_budget_trip_answers_408() {
    let (addr, _) = start(None, Some(5_000));
    let session = open_session(addr);
    upload(addr, &session, "W,A\nr,w\n");
    upload(addr, &session, "G,B\nr,x\ns,y\n");
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query"),
        &query_body("while W do W <- PRODUCT(W, G) end"),
    );
    assert_eq!(status, 408, "{body}");
    let parsed = json::parse(&body).unwrap();
    let result = &parsed.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        result.get("resource").unwrap().as_str(),
        Some("run cell budget")
    );
    let stats = result.get("stats").unwrap();
    assert!(stats.get("while_iterations").unwrap().as_num().unwrap() >= 1.0);
}

#[test]
fn malformed_bodies_are_400_never_500() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    let query_path = format!("/sessions/{session}/query");
    for (what, body) in [
        ("not JSON at all", "}{ not json"),
        ("JSON without a program", "{\"nope\": 1}"),
        ("non-string programs", "{\"programs\": [1, 2]}"),
        ("empty programs", "{\"programs\": []}"),
        ("unparsable program", "{\"program\": \"T <- NOPE(A)\"}"),
        ("truncated program", "{\"program\": \"T <- SWITCH[((((\"}"),
        ("invalid UTF-8-ish escape", "{\"program\": \"\\ud800\"}"),
    ] {
        let (status, resp) = http(addr, "POST", &query_path, body);
        assert_eq!(status, 400, "{what}: {resp}");
        assert!(
            json::parse(&resp).is_ok(),
            "{what}: error body is JSON: {resp}"
        );
    }
    // Bad admission overrides are also the client's error.
    let (status, _) = http(
        addr,
        "POST",
        &format!("{query_path}?deadline_ms=soon"),
        "{\"program\": \"T <- COPY(A)\"}",
    );
    assert_eq!(status, 400);
    // Bad CSV uploads too.
    let (status, _) = http(addr, "POST", &format!("/sessions/{session}/tables"), "");
    assert_eq!(status, 400);
    // Unknown sessions are 404, unknown routes 404, bad methods 405.
    let (status, _) = http(
        addr,
        "POST",
        "/sessions/s999/query",
        "{\"program\": \"T <- COPY(A)\"}",
    );
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "PUT", "/sessions", "");
    assert_eq!(status, 405);
    // A garbage request line closes with 400, not a hung or dead server.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"%%%\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw:?}");
    // And the server is still alive afterwards.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn multi_program_requests_split_the_budget_and_run_readonly() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\ns,b\n");
    let body = "{\"programs\": [\"T <- COPY(A)\", \"U <- TRANSPOSE(A)\", \"V <- PRODUCT(A, A)\"]}";
    let (status, resp) = http(addr, "POST", &format!("/sessions/{session}/query"), body);
    assert_eq!(status, 200, "{resp}");
    let parsed = json::parse(&resp).unwrap();
    let results = parsed.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 3);
    for r in results {
        assert_eq!(r.get("ok"), Some(&json::Json::Bool(true)), "{resp}");
    }
    // Read-only: none of T/U/V was committed to the session.
    let (_, resp) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query"),
        &query_body("Z <- COPY(T)"),
    );
    assert!(!resp.contains("\"name\":\"Z\",\"height\":2"), "{resp}");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, service) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\n");

    // Expected answers: the library, each program run on the state its
    // predecessors committed, starting from the session's snapshot.
    let id = Sessions::parse_id(&session).unwrap();
    let mut state = service.sessions.get(id).unwrap().snapshot();
    let expected: Vec<json::Json> = (0..5)
        .map(|i| {
            let program = parser::parse(&format!("Pipe{i} <- COPY(A)")).unwrap();
            let (out, ..) =
                run_governed_traced(&program, &state, &Budget::default()).expect("library run");
            state = out;
            tables_json(&state)
        })
        .collect();

    // Send a pipelined burst — several complete requests in one write,
    // no reads in between. Each query commits a distinctly named table
    // so the responses are distinguishable.
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut burst = String::new();
    for i in 0..5 {
        let body = query_body(&format!("Pipe{i} <- COPY(A)"));
        burst.push_str(&format!(
            "POST /sessions/{session}/query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();

    for (i, want) in expected.iter().enumerate() {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
        assert!(
            body.contains(&format!("\"name\":\"Pipe{i}\"")),
            "response {i} out of order: {body}"
        );
        let parsed = json::parse(&body).unwrap();
        let result = &parsed.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(result.get("tables"), Some(want), "response {i}");
    }
    // The commits landed in request order: the last state holds Pipe4.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query"),
        &query_body("Z <- COPY(Pipe4)"),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"Z\",\"height\":1"), "{body}");
    // And the reactor observed the burst as pipelining.
    assert!(
        service.counters.pipelined_requests.load(Ordering::Relaxed) >= 1,
        "pipelined burst not counted"
    );
}

#[test]
fn pipeline_deeper_than_the_cap_drains_completely() {
    // Regression: once MAX_PIPELINE requests were parsed, followers
    // already drained into the connection buffer were only re-examined
    // on socket readability — which never fires again once the kernel
    // buffer is empty — so a burst deeper than the cap hung forever.
    // Worker completions must re-parse the buffer.
    let (addr, _) = start(None, None);
    let total = MAX_PIPELINE + 36;
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // A hang shows up as a read timeout, not a stalled CI job.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let burst = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".repeat(total);
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    for i in 0..total {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i} of {total}: {body}");
    }
}

#[test]
fn half_close_after_pipelined_burst_still_serves_the_queue() {
    // shutdown(SHUT_WR) after a pipelined burst closes only the
    // client's send side; the requests were fully received and the
    // client is still reading. Regression: the reactor treated the
    // hangup as a mid-run disconnect and destroyed the connection
    // with the queue unserved.
    let (addr, service) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\n");
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut burst = String::new();
    for i in 0..3 {
        let body = query_body(&format!("Half{i} <- COPY(A)"));
        burst.push_str(&format!(
            "POST /sessions/{session}/query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    writer.write_all(burst.as_bytes()).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    for i in 0..3 {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i} after half-close: {body}");
        assert!(
            body.contains(&format!("\"name\":\"Half{i}\"")),
            "response {i} out of order: {body}"
        );
    }
    // With the queue served the server closes the connection …
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the final response: {rest:?}");
    // … and none of this counted as a mid-run disconnect.
    assert_eq!(
        service.counters.disconnect_cancels.load(Ordering::Relaxed),
        0,
        "half-close cancelled a run"
    );
}

#[test]
fn half_close_behind_a_full_pipeline_serves_the_tail() {
    // Regression: a hangup that arrived while reading was paused at
    // MAX_PIPELINE ended reading for good, so requests still in the
    // socket were never answered. A slow first request holds the
    // pipeline full while the rest of the burst and the half-close
    // arrive.
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    let mut rows = String::new();
    for i in 0..500 {
        rows.push_str(&format!("r{i},v{i}\n"));
    }
    upload(addr, &session, &format!("A,X\n{rows}"));
    upload(addr, &session, &format!("B,Y\n{rows}"));
    upload(addr, &session, "W,K\ngo,1\n");
    let spin =
        query_body("while W do T <- PRODUCT(A, B) S <- COPY(A) A <- COPY(B) B <- COPY(S) end");
    let slow = format!(
        "POST /sessions/{session}/query?readonly=1&deadline_ms=1000 HTTP/1.1\r\n\
         host: t\r\ncontent-length: {}\r\n\r\n{spin}",
        spin.len()
    );
    let health = |n: usize| "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".repeat(n);
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let first = MAX_PIPELINE + 6;
    writer
        .write_all(format!("{slow}{}", health(first)).as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    writer.write_all(health(10).as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    writer.write_all(health(10).as_bytes()).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 408, "{body}");
    for i in 0..first + 20 {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i} after half-close: {body}");
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the final response: {rest:?}");
}

#[test]
fn flood_past_the_byte_cap_is_fully_served() {
    // A sender that outpaces the executor parks at the reactor's
    // unparsed-byte cap (EPOLLIN drops until parsing frees space)
    // instead of growing the connection buffer without bound — and
    // everything it sent must still be answered as the queue drains.
    let (addr, _) = start(None, None);
    let pad = "x".repeat(4096);
    let request = format!(
        "POST /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{pad}",
        pad.len()
    );
    let total = MAX_BUF / request.len() + 64;
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // The writer must be its own thread: once the cap is reached the
    // server stops reading and the socket buffers fill, so the flood
    // blocks until responses are consumed on this side.
    let flood = std::thread::spawn(move || {
        for _ in 0..total {
            writer.write_all(request.as_bytes()).unwrap();
        }
        writer
    });
    for i in 0..total {
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 405, "response {i} of {total}");
    }
    drop(flood.join().unwrap());
}

#[test]
fn chunked_transfer_encoding_is_rejected_with_501() {
    let (addr, _) = start(None, None);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            b"POST /sessions HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 501"), "{raw:?}");
    assert!(
        json::parse(raw.split("\r\n\r\n").nth(1).unwrap_or("")).is_ok(),
        "501 body is JSON: {raw:?}"
    );
    // The connection closed (the stream past the refused body is
    // unframed) and the server is still alive for others.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn slow_loris_does_not_stall_other_clients() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\n");

    // The loris: trickle a never-ending request head a chunk at a
    // time. The reactor must keep serving others and eventually close
    // this connection via the 16KiB head cap.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let loris_probe = std::thread::spawn(move || {
        let pad = format!("x-pad: {}\r\n", "a".repeat(2048));
        // Trickle header chunks; the 50ms read timeout between chunks
        // is both the pacing and the poll for the server's verdict
        // (reading eagerly avoids racing an RST against the buffered
        // 413 once the server closes).
        let _ = loris.set_read_timeout(Some(Duration::from_millis(50)));
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        for _ in 0..10 {
            if loris.write_all(pad.as_bytes()).is_err() {
                break; // already shut by the head cap
            }
            match loris.read(&mut buf) {
                Ok(n) if n > 0 => {
                    raw.extend_from_slice(&buf[..n]);
                    break;
                }
                Ok(_) => break, // EOF
                Err(_) => {}    // timeout: keep trickling
            }
        }
        // More than MAX_HEAD bytes are in (or the write broke): the
        // server must have answered 413 and closed, not hung.
        let _ = loris.set_read_timeout(Some(Duration::from_secs(5)));
        let mut rest = Vec::new();
        let _ = loris.read_to_end(&mut rest);
        raw.extend_from_slice(&rest);
        String::from_utf8_lossy(&raw).into_owned()
    });

    // Meanwhile, a well-behaved client's latencies stay bounded.
    let query_path = format!("/sessions/{session}/query?readonly=1");
    let body = query_body("T <- COPY(A)");
    let mut worst = Duration::ZERO;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(500) {
        let t0 = Instant::now();
        let (status, _) = http(addr, "POST", &query_path, &body);
        assert_eq!(status, 200);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(2),
        "a stalled head delayed other clients: worst {worst:?}"
    );

    let raw = loris_probe.join().unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 413"),
        "loris connection should die on the head cap: {raw:?}"
    );
}

#[test]
fn stats_reports_reactor_counters() {
    let (addr, _) = start(None, None);
    // Hold one keep-alive connection open while asking for stats.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // Pipeline two stats requests on the held connection so the
    // pipelining counter moves too.
    writer
        .write_all(b"GET /stats HTTP/1.1\r\nhost: t\r\n\r\nGET /stats HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _first) = read_response(&mut reader);
    assert_eq!(status, 200);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    let stats = json::parse(&body).unwrap();
    let num = |k: &str| {
        stats
            .get(k)
            .and_then(json::Json::as_num)
            .unwrap_or_else(|| panic!("stats missing {k}: {body}"))
    };
    assert!(num("connections_open") >= 1.0, "{body}");
    assert!(num("connections_accepted") >= 1.0, "{body}");
    assert!(num("worker_busy_us") >= 0.0, "{body}");
    assert!(num("reactor_busy_us") >= 0.0, "{body}");
    assert_eq!(num("request_panics"), 0.0, "{body}");
    // The two stats requests above went out back-to-back: by the time
    // the second rendered, it had been parsed behind the first.
    assert!(num("pipelined_requests") >= 1.0, "{body}");

    // Closing the held connection eventually drops the gauge.
    drop(reader);
    drop(writer);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, body) = http(addr, "GET", "/stats", "");
        let open = json::parse(&body)
            .unwrap()
            .get("connections_open")
            .unwrap()
            .as_num()
            .unwrap();
        // The probe's own connection is open while it asks.
        if open <= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "gauge never dropped: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn stats_count_the_interner() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    let interned = || {
        let (_, body) = http(addr, "GET", "/stats", "");
        let stats = json::parse(&body).unwrap();
        let num = |k: &str| {
            stats
                .get(k)
                .and_then(json::Json::as_num)
                .unwrap_or_else(|| panic!("stats missing {k}: {body}"))
        };
        (num("interned_symbols"), num("interned_bytes"))
    };
    // Every cell, the table name and the row attributes included, is a
    // string no other test interns.
    let cells: Vec<Vec<String>> = (0..=40)
        .map(|i| (0..3).map(|j| format!("stats_interner_{i}_{j}")).collect())
        .collect();
    let csv: String = cells.iter().map(|row| row.join(",") + "\n").collect();
    let count = cells.iter().map(Vec::len).sum::<usize>() as f64;
    let bytes = cells.iter().flatten().map(String::len).sum::<usize>() as f64;
    let (symbols_before, bytes_before) = interned();
    upload(addr, &session, &csv);
    let (symbols_after, bytes_after) = interned();
    // Other tests intern concurrently, so the counters may grow by more.
    assert!(symbols_after - symbols_before >= count);
    assert!(bytes_after - bytes_before >= bytes);
}

#[test]
fn plan_and_trace_attachments_render() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "A,X\nr,a\n");
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query?plan=1&trace=spans"),
        &query_body("T <- TRANSPOSE(A)"),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(&body).unwrap();
    let result = &parsed.get("results").unwrap().as_arr().unwrap()[0];
    let plan = result.get("plan").expect("plan report attached");
    assert!(plan.get("decisions").unwrap().as_arr().is_some());
    let trace = result.get("trace").expect("trace attached");
    assert!(trace
        .get("spans")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .any(|s| { s.get("op").and_then(json::Json::as_str) == Some("TRANSPOSE") }));
    let stats = result.get("stats").unwrap();
    assert!(stats.get("op_counts").unwrap().get("TRANSPOSE").is_some());
}

#[test]
fn stats_split_incremental_arms_by_op() {
    let (addr, _) = start(None, None);
    let session = open_session(addr);
    upload(addr, &session, "E,A,B\n_,1,2\n_,2,3\n_,3,4\n");
    let closure = "TC <- COPY(E)
Frontier <- COPY(E)
while Frontier do
  RTC <- RENAME[A -> A0](TC)
  RTC <- RENAME[B -> B0](RTC)
  Matched <- FUSEDJOIN[B0 = A](RTC, E)
  Step <- PROJECT[{A0, B}](Matched)
  Step <- RENAME[A0 -> A](Step)
  Frontier <- DIFFERENCE(Step, TC)
  TC <- CLASSICALUNION(TC, Frontier)
end";
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{session}/query"),
        &query_body(closure),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(&body).unwrap();
    let stats = parsed.get("results").unwrap().as_arr().unwrap()[0]
        .get("stats")
        .unwrap();
    let total = stats.get("while_delta_incremental").unwrap().as_num();
    let Some(json::Json::Obj(arms)) = stats.get("incremental_op_counts") else {
        panic!("incremental_op_counts missing: {body}");
    };
    assert!(arms.contains_key("CLASSICALUNION"), "{body}");
    let sum: f64 = arms.values().filter_map(json::Json::as_num).sum();
    assert_eq!(Some(sum), total, "the split adds up to the total: {body}");
}

/// The `tables` array body the service renders for an output database,
/// built from the uncached renderer.
fn tables_payload(db: &Database) -> String {
    let tables: Vec<String> = db
        .tables()
        .iter()
        .filter_map(|t| {
            let name = t.name().text().filter(|n| !interner::is_reserved(n))?;
            Some(format!(
                "{{\"name\":\"{}\",\"height\":{},\"width\":{},\"csv\":\"{}\"}}",
                json::escape(name),
                t.height(),
                t.width(),
                json::escape(&io::to_csv(t)),
            ))
        })
        .collect();
    tables.join(",")
}

/// The `tables` payload the service renders for an output database.
fn tables_json(db: &Database) -> json::Json {
    json::parse(&format!("[{}]", tables_payload(db))).unwrap()
}

#[test]
fn untouched_tables_are_rendered_once_per_commit() {
    let (addr, service) = start(None, None);
    let session = open_session(addr);
    let mut sales = String::from("Sales,Part,Region,Sold\n");
    for i in 0..200 {
        sales.push_str(&format!("_,p{i},r{},{}\n", i % 4, i * 7 % 50));
    }
    // A quoted field keeps its `\r`, `"` and `,`: the cached bytes must
    // escape them exactly as the uncached renderer does.
    sales.push_str("_,\"odd\r\"\"part\"\"\",\"r,0\",\\\n");
    upload(addr, &session, &sales);
    upload(addr, &session, "E,K\n_,k\n");
    let id = Sessions::parse_id(&session).unwrap();
    let counters = || {
        let c = &service.counters;
        (
            c.render_cache_hits.load(Ordering::Relaxed),
            c.render_cache_misses.load(Ordering::Relaxed),
        )
    };
    // Runs `src` on the server and checks the answer's `tables` bytes
    // against the library's uncached rendering of the same run; returns
    // the (hits, misses) the request added.
    let ask = |src: &str, readonly: bool| -> (u64, u64) {
        let snapshot = service.sessions.get(id).unwrap().snapshot();
        let program = parser::parse(src).unwrap();
        let out = run_governed_traced(&program, &snapshot, &Budget::default())
            .unwrap()
            .0;
        let want = format!("\"tables\":[{}],\"stats\":", tables_payload(&out));
        let (hits, misses) = counters();
        let path = if readonly {
            "/query?readonly=1"
        } else {
            "/query"
        };
        let (status, body) = http(
            addr,
            "POST",
            &format!("/sessions/{session}{path}"),
            &query_body(src),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&want), "{src}: {body}");
        let (h, m) = counters();
        (h - hits, m - misses)
    };
    let read = "P <- PROJECT[{Part, Sold}](Sales)";

    // The first read renders Sales, E and P; the second copies Sales and
    // E from their shared buffers and renders only its fresh P.
    assert_eq!(ask(read, true), (0, 3));
    assert_eq!(ask(read, true), (2, 1));
    // A commit that rewrites Sales renders the new Sales once, and that
    // rendering is the one the session keeps.
    assert_eq!(
        ask("Sales <- SELECTCONST[Region = v:r1](Sales)", false),
        (1, 1)
    );
    assert_eq!(ask(read, true), (2, 1));
    assert_eq!(ask(read, true), (2, 1));

    let (_, body) = http(addr, "GET", "/stats", "");
    let stats = json::parse(&body).unwrap();
    assert_eq!(
        stats.get("render_cache_hits").and_then(json::Json::as_num),
        Some(7.0)
    );
    assert_eq!(
        stats
            .get("render_cache_misses")
            .and_then(json::Json::as_num),
        Some(7.0)
    );
}

#[test]
fn one_worker_serves_nested_fan_out_without_deadlock() {
    // One executor thread runs every request and all of its fan-out:
    // request → multi-program → SPLIT shards. Each wait must run its own
    // batch's unclaimed jobs, or these requests never finish.
    let config = Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..Config::default()
    };
    let (addr, service) = Server::bind(config).unwrap().spawn().unwrap();
    let session = open_session(addr);
    // 80 parts: SPLIT makes 80 `Parts` tables, past the default
    // parallel threshold of 64, so the PROJECT over them is sharded.
    let mut sales = String::from("Sales,Region,Part,Sold\n");
    for i in 0..240 {
        sales.push_str(&format!("r{i},g{},p{},{}\n", i % 3, i / 3, i * 7 % 50));
    }
    upload(addr, &session, &sales);
    let split = "Parts <- SPLIT[on {Part}](Sales)\nParts <- PROJECT[{Region, Sold}](Parts)";
    let pivot = "Cross <- GROUP[by {Region} on {Sold}](Sales)\n\
                 Cross <- CLEANUP[by {Part} on {_}](Cross)\n\
                 Cross <- PURGE[on {Sold} by {Region}](Cross)";
    let path = format!("/sessions/{session}/query?readonly=1");
    let requests = [
        (path.clone(), query_body(split), vec![split]),
        (format!("{path}&plan=1"), query_body(pivot), vec![pivot]),
        (
            path.clone(),
            format!(
                "{{\"programs\": [\"{}\", \"{}\"]}}",
                json::escape(split),
                json::escape(pivot)
            ),
            vec![split, pivot],
        ),
    ];

    // Expected answers: the library on the same snapshot.
    let id = Sessions::parse_id(&session).unwrap();
    let snapshot = service.sessions.get(id).unwrap().snapshot();
    let expect = |sources: &[&str]| -> Vec<json::Json> {
        sources
            .iter()
            .map(|src| {
                let program = parser::parse(src).unwrap();
                let (out, ..) = run_governed_traced(&program, &snapshot, &Budget::default())
                    .expect("library run");
                tables_json(&out)
            })
            .collect()
    };
    let expected: Vec<Vec<json::Json>> = requests.iter().map(|(_, _, src)| expect(src)).collect();

    let clients: Vec<_> = (0..2)
        .map(|client| {
            let requests = requests.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut answers = Vec::new();
                for round in 0..3 {
                    // The two clients walk the requests in opposite
                    // orders, so different kinds overlap.
                    for k in 0..requests.len() {
                        let k = if client == 0 {
                            k
                        } else {
                            requests.len() - 1 - k
                        };
                        let (path, body, _) = &requests[k];
                        write!(
                            writer,
                            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .unwrap();
                        let (status, resp) = read_response(&mut reader);
                        answers.push((round, k, status, resp));
                    }
                }
                answers
            })
        })
        .collect();
    for client in clients {
        for (round, k, status, resp) in client.join().unwrap() {
            assert_eq!(status, 200, "round {round}, request {k}: {resp}");
            let parsed = json::parse(&resp).unwrap();
            let results = parsed.get("results").unwrap().as_arr().unwrap();
            let got: Vec<&json::Json> = results.iter().map(|r| r.get("tables").unwrap()).collect();
            let want: Vec<&json::Json> = expected[k].iter().collect();
            assert_eq!(got, want, "round {round}, request {k}");
        }
    }
    // The SPLIT fan-out really was sharded on the server.
    let (_, body) = http(addr, "POST", &path, &query_body(split));
    let shard_jobs = json::parse(&body)
        .unwrap()
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap()[0]
        .get("stats")
        .unwrap()
        .get("shard_jobs")
        .and_then(json::Json::as_num)
        .unwrap();
    assert!(shard_jobs >= 1.0, "{body}");
}
