//! The untraced end-to-end pass: spawn `tabular-serve`, upload the seed
//! tables, warm up, then drive the closed loop for the timed window
//! while reading the server's own counters from `/proc` and `/stats`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tabular_server::json::{self, Json};

use crate::client::{Client, Response};
use crate::workload::{tables_match, Expect, Request, Target, Workload, CLASSES};

/// A running server process; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Wire ids of the seeded sessions, in workload order.
    pub sessions: Vec<String>,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn the server with default flags on an ephemeral port and upload
/// the workload's seed tables. Returns the server and the set-up time:
/// from spawn until the last upload is acknowledged.
pub fn start(binary: &Path, wl: &Workload) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let mut child = Command::new(binary)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stderr.read_line(&mut line).unwrap_or(0);
        if n == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server exited before listening: {line}"));
        }
        if let Some(addr) = line.trim().strip_prefix("tabular-serve listening on ") {
            break addr.parse::<SocketAddr>().map_err(|e| e.to_string())?;
        }
    };
    let mut server = Server {
        child,
        _stderr: stderr,
        addr,
        sessions: Vec::new(),
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for session in &wl.sessions {
        let id = open_session(&mut client)?;
        for csv in &session.tables {
            let req = post(&format!("/sessions/{id}/tables"), csv.as_bytes());
            let resp = client.round_trip(&req).map_err(|e| e.to_string())?;
            if resp.status != 201 {
                return Err(format!("upload answered {}", resp.status));
            }
        }
        server.sessions.push(id);
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The wire bytes of a POST.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

fn open_session(client: &mut Client) -> Result<String, String> {
    let resp = client
        .round_trip(&post("/sessions", b""))
        .map_err(|e| e.to_string())?;
    session_id(&resp).ok_or_else(|| format!("POST /sessions answered {}", resp.status))
}

fn session_id(resp: &Response<'_>) -> Option<String> {
    if resp.status != 201 {
        return None;
    }
    let body = std::str::from_utf8(resp.body).ok()?;
    Some(
        json::parse(body)
            .ok()?
            .get("session")?
            .as_str()?
            .to_string(),
    )
}

/// Check one response against its request's expectation.
pub fn check(req: &Request, resp: &Response<'_>) -> Result<(), String> {
    let ok = match &req.expect {
        Expect::Tables(any) => resp.status == 200 && any.iter().any(|w| tables_match(resp.body, w)),
        Expect::Exact(status, body) => resp.status == *status && resp.body == body.as_slice(),
        Expect::NewSession => session_id(resp).is_some(),
        Expect::Deleted => resp.status == 204,
    };
    if ok {
        Ok(())
    } else {
        let shown = String::from_utf8_lossy(&resp.body[..resp.body.len().min(160)]);
        Err(format!(
            "{} answered {} with an unexpected body: {shown}",
            CLASSES[req.class], resp.status
        ))
    }
}

/// One connection's state: the scratch session it opened last.
struct Conn {
    client: Client,
    scratch: String,
}

impl Conn {
    /// Send one request and check the answer.
    fn send(
        &mut self,
        req: &Request,
        wire: Option<&[u8]>,
        seeded: &[String],
    ) -> Result<(), String> {
        let owned;
        let bytes = match wire {
            Some(b) => b,
            None => {
                owned = req.encode(seeded, &self.scratch);
                &owned
            }
        };
        let resp = self
            .client
            .round_trip(bytes)
            .map_err(|e| format!("socket: {e}"))?;
        check(req, &resp)?;
        if let Expect::NewSession = req.expect {
            self.scratch = session_id(&resp).expect("checked above");
        }
        Ok(())
    }
}

/// Send every distinct request once, in order, on one connection.
pub fn warm_up(server: &Server, wl: &Workload) -> Result<(), String> {
    let mut conn = Conn {
        client: Client::connect(server.addr).map_err(|e| e.to_string())?,
        scratch: String::new(),
    };
    for req in &wl.warmup {
        conn.send(req, None, &server.sessions)?;
    }
    Ok(())
}

/// What one closed-loop pass measured.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    /// Client latencies per class in nanoseconds; a failed request is
    /// `u64::MAX`, so it misses every percentile.
    pub latencies: Vec<Vec<u64>>,
    /// Every request as `(seconds from window start to its completion,
    /// class, latency ns)`, in completion order per connection.
    pub requests: Vec<(f64, usize, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Server context switches, summed over its threads.
    pub ctx_switches: u64,
    pub host: HostDelta,
    pub reactor_busy_us: u64,
    pub worker_busy_us: u64,
    /// Length of each of the window's equal slices, seconds.
    pub slice_s: f64,
    /// Server CPU seconds and host steal fraction per slice.
    pub slice_cpu_s: Vec<f64>,
    pub slice_steal: Vec<f64>,
}

/// Drive the workload's schedules, one thread per connection, for
/// `seconds`, cut into `slices` equal slices. Threads are spawned and
/// connected before the window opens; counters are read on both sides
/// of it and the server's CPU time at every slice boundary.
pub fn drive(server: &Server, wl: &Workload, seconds: f64, slices: usize) -> Window {
    let seeded = &server.sessions;
    let n = wl.schedules.len();
    let barrier = Barrier::new(n + 1);
    let start_cell = std::sync::OnceLock::<Instant>::new();
    let mut stats_client = Client::connect(server.addr).expect("connect for /stats");
    let mut window = Window {
        latencies: vec![Vec::new(); CLASSES.len()],
        ..Window::default()
    };
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = wl
            .schedules
            .iter()
            .map(|schedule| {
                let barrier = &barrier;
                let start_cell = &start_cell;
                scope.spawn(move || {
                    let mut conn = Conn {
                        client: Client::connect(server.addr).expect("connect"),
                        scratch: String::new(),
                    };
                    // Requests that address no scratch session are
                    // encoded once, outside the window.
                    let wire: Vec<Option<Vec<u8>>> = schedule
                        .iter()
                        .map(|&i| {
                            let req = &wl.warmup[i];
                            (!matches!(req.target, Target::Scratch)).then(|| req.encode(seeded, ""))
                        })
                        .collect();
                    let mut out = ConnResult::new();
                    barrier.wait();
                    let deadline = *start_cell.get().expect("set before the barrier")
                        + Duration::from_secs_f64(seconds);
                    let mut k = 0;
                    loop {
                        let at = k % schedule.len();
                        let req = &wl.warmup[schedule[at]];
                        // Past the deadline, a writer still finishes its
                        // scratch-session cycle so no session is left open.
                        if Instant::now() >= deadline && !matches!(req.target, Target::Scratch) {
                            break;
                        }
                        let t0 = Instant::now();
                        let result = conn.send(req, wire[at].as_deref(), seeded);
                        let done = Instant::now();
                        let ns = (done - t0).as_nanos() as u64;
                        out.attempted += 1;
                        match result {
                            Ok(()) => out.latencies.push((req.class, ns, done)),
                            Err(e) => {
                                out.latencies.push((req.class, u64::MAX, done));
                                out.failed += 1;
                                if out.errors.len() < 4 {
                                    out.errors.push(e);
                                }
                                // A broken socket is replaced; the
                                // writer's scratch cycle restarts.
                                if let Ok(c) = Client::connect(server.addr) {
                                    conn.client = c;
                                }
                            }
                        }
                        out.finished = done;
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        let counters0 = server_counters(&mut stats_client);
        let stat_path = format!("/proc/{}/stat", server.pid());
        let ctx0 = ctx_switches(server.pid());
        let cpu0 = cpu_seconds(&stat_path);
        let host0 = HostSnapshot::read();
        start_cell.set(Instant::now()).expect("set once");
        barrier.wait();
        let start = *start_cell.get().expect("set");
        window.slice_s = seconds / slices as f64;
        let (mut cpu, mut host) = (cpu0, HostSnapshot::read());
        for k in 1..=slices {
            let boundary = start + Duration::from_secs_f64(window.slice_s * k as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now_cpu = cpu_seconds(&stat_path);
            let now_host = HostSnapshot::read();
            window.slice_cpu_s.push(now_cpu - cpu);
            window.slice_steal.push(now_host.since(&host).steal_frac);
            (cpu, host) = (now_cpu, now_host);
        }
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        let end = results.iter().map(|r| r.finished).max().unwrap_or(start);
        window.wall_s = end.duration_since(start).as_secs_f64();
        window.ctx_switches = ctx_switches(server.pid()).saturating_sub(ctx0);
        window.host = HostSnapshot::read().since(&host0);
        let counters1 = server_counters(&mut stats_client);
        window.reactor_busy_us = counters1.0.saturating_sub(counters0.0);
        window.worker_busy_us = counters1.1.saturating_sub(counters0.1);
        (results, start)
    });
    let (per_conn, start) = per_conn;
    for r in per_conn {
        window.attempted += r.attempted;
        window.failed += r.failed;
        window.errors.extend(r.errors);
        for (class, ns, done) in r.latencies {
            window.latencies[class].push(ns);
            window
                .requests
                .push((done.duration_since(start).as_secs_f64(), class, ns));
        }
    }
    window
}

struct ConnResult {
    latencies: Vec<(usize, u64, Instant)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    finished: Instant,
}

impl ConnResult {
    fn new() -> ConnResult {
        ConnResult {
            latencies: Vec::with_capacity(1 << 16),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            finished: Instant::now(),
        }
    }
}

/// `(reactor_busy_us, worker_busy_us)` from `GET /stats`.
fn server_counters(client: &mut Client) -> (u64, u64) {
    let stats = stats(client).unwrap_or(Json::Null);
    let num = |k: &str| stats.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
    (num("reactor_busy_us"), num("worker_busy_us"))
}

fn stats(client: &mut Client) -> Option<Json> {
    let resp = client.round_trip(&get("/stats")).ok()?;
    json::parse(std::str::from_utf8(resp.body).ok()?).ok()
}

/// State that must not grow with the number of requests served.
#[derive(Debug, PartialEq, Eq)]
pub struct Footprint {
    pub sessions_open: u64,
    pub shared_tables: usize,
}

/// Read the bounded-state footprint: open sessions and the table count
/// of the first seeded session (read through a readonly query whose
/// answer lists every table of the session plus its own output).
pub fn footprint(server: &Server) -> Result<Footprint, String> {
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let sessions_open = stats(&mut client)
        .and_then(|s| s.get("sessions_open").and_then(Json::as_num))
        .ok_or("no /stats")? as u64;
    let body = b"{\"program\":\"P <- PROJECT[{Part, Sold}](Sales)\"}";
    let path = format!("/sessions/{}/query?readonly=1", server.sessions[0]);
    let resp = client
        .round_trip(&post(&path, body))
        .map_err(|e| e.to_string())?;
    let parsed = std::str::from_utf8(resp.body)
        .ok()
        .and_then(|b| json::parse(b).ok())
        .ok_or("footprint query answered no JSON")?;
    let tables = parsed
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("tables"))
        .and_then(Json::as_arr)
        .ok_or("footprint query answered no tables")?;
    Ok(Footprint {
        sessions_open,
        shared_tables: tables.len() - 1,
    })
}

// ---- /proc readings ------------------------------------------------------

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Clock ticks per second for `/proc/*/stat` CPU times.
fn clock_ticks() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; it takes no
    // pointers and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// `utime + stime` in seconds from a `/proc/<pid>/stat` file (covers
/// every thread of the process, exited ones included).
fn cpu_seconds(stat_path: &str) -> f64 {
    let text = std::fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / clock_ticks()
}

/// Context switches of every live thread of a process.
fn ctx_switches(pid: u32) -> u64 {
    let mut ctx = 0;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    ctx
}

/// Peak resident set of a process in KiB (`VmHWM`).
pub fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status_field(&status, "VmHWM:")
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Host-wide readings: steal time, forks, load, and this process's CPU.
#[derive(Default, Clone)]
pub struct HostDelta {
    pub steal_frac: f64,
    pub forks: u64,
    pub loadavg1: f64,
    pub self_cpu_s: f64,
}

struct HostSnapshot {
    steal: u64,
    total: u64,
    forks: u64,
    self_cpu_s: f64,
}

impl HostSnapshot {
    fn read() -> HostSnapshot {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let forks = stat
            .lines()
            .find_map(|l| l.strip_prefix("processes "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        HostSnapshot {
            steal: cpu.get(7).copied().unwrap_or(0),
            // user..steal; guest time is already inside user.
            total: cpu.iter().take(8).sum(),
            forks,
            self_cpu_s: cpu_seconds("/proc/self/stat"),
        }
    }

    fn since(&self, before: &HostSnapshot) -> HostDelta {
        let total = self.total.saturating_sub(before.total).max(1);
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        HostDelta {
            steal_frac: self.steal.saturating_sub(before.steal) as f64 / total as f64,
            forks: self.forks.saturating_sub(before.forks),
            loadavg1: loadavg
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
            self_cpu_s: self.self_cpu_s - before.self_cpu_s,
        }
    }
}
