//! The query-service scaling driver: sustained QPS across a
//! client-count sweep plus tail latency and snapshot-isolation
//! figures for the `tabular-server` HTTP service, pinned in
//! `BENCH_10.json`.
//!
//! ```sh
//! cargo run -p tabular-bench --bin service_bench --release
//! ```
//!
//! Three measurements over real sockets against an in-process server:
//!
//! 1. **Client sweep** — 1/4/16/64 keep-alive clients cycling point
//!    queries (a projection scan), pivots (the paper's GROUP →
//!    CLEAN-UP → PURGE cross-tabulation), and transitive-closure
//!    fixpoints (the fused-join `while` loop), reporting sustained QPS
//!    and p50/p99 per count. The 4-client point is the no-regression
//!    anchor against `BENCH_9.json`.
//! 2. **Core-scaling projection** — the reactor's `worker_busy_us` /
//!    `reactor_busy_us` counters give the CPU seconds each layer
//!    consumed per phase. On a single-core host the sweep saturates
//!    the core (measured QPS is flat past saturation), so — as with
//!    `BENCH_7.json`'s shard-pool projection — a multi-core figure is
//!    projected from measured busy time: workers parallelize across
//!    cores while the reactor stays serial, so projected wall ≈
//!    max(reactor_busy, worker_busy / (cores − 1)).
//! 3. **Snapshot isolation** — readers and a committing writer in one
//!    session, alone and together, unchanged from BENCH_9.
//!
//! Every request in the sweep goes through the epoll reactor and the
//! service's one executor, not a per-connection thread: 64 clients cost
//! 64 slab slots, not 64 server threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tabular_algebra::pretty;
use tabular_bench::ta_tc_fused_program;
use tabular_server::{json, Config, Server};

const SWEEP: [usize; 4] = [1, 4, 16, 64];
const MIXED_SECS: f64 = 2.0;
const PHASE_SECS: f64 = 1.2;
const CHAIN: usize = 24;
const PROJECTED_CORES: f64 = 8.0;

/// A keep-alive HTTP client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        // One write per request: fragmented writes stall on Nagle.
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(msg.as_bytes())
            .expect("write request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header");
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
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn post_expect(&mut self, path: &str, body: &str, want: u16) -> String {
        let (status, resp) = self.request("POST", path, body);
        assert_eq!(status, want, "{path}: {resp}");
        resp
    }
}

fn query_body(program: &str) -> String {
    format!("{{\"program\": \"{}\"}}", json::escape(program))
}

/// Upload the workload tables into a fresh session; returns its id.
fn seed_session(addr: SocketAddr) -> String {
    let mut c = Client::connect(addr);
    let resp = c.post_expect("/sessions", "", 201);
    let session = json::parse(&resp)
        .unwrap()
        .get("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let tables_path = format!("/sessions/{session}/tables");

    // E: the TC chain n0 → … → n24.
    let mut edges = String::from("E,A,B\n");
    for i in 0..CHAIN {
        edges.push_str(&format!("r{i},n{i},n{}\n", i + 1));
    }
    c.post_expect(&tables_path, &edges, 201);

    // Sales: 120 rows over 4 regions × 6 parts for the pivot chain and
    // the point-query scans.
    let regions = ["east", "west", "north", "south"];
    let parts = ["nuts", "bolts", "cogs", "gears", "pins", "rods"];
    let mut sales = String::from("Sales,Region,Part,Sold\n");
    for i in 0..120 {
        sales.push_str(&format!(
            "r{i},{},{},{}\n",
            regions[i % regions.len()],
            parts[i % parts.len()],
            (i * 7) % 50,
        ));
    }
    c.post_expect(&tables_path, &sales, 201);

    // Seed tables for the writer's committing product.
    let mut seed = String::from("Seed,S\n");
    let mut seed2 = String::from("Seed2,T\n");
    for i in 0..20 {
        seed.push_str(&format!("r{i},s{i}\n"));
        seed2.push_str(&format!("r{i},t{i}\n"));
    }
    c.post_expect(&tables_path, &seed, 201);
    c.post_expect(&tables_path, &seed2, 201);
    session
}

const POINT: &str = "P <- PROJECT[{Region}](Sales)";
const PIVOT: &str = "Cross <- GROUP[by {Region} on {Sold}](Sales)\n\
                     Cross <- CLEANUP[by {Part} on {_}](Cross)\n\
                     Cross <- PURGE[on {Sold} by {Region}](Cross)";
const WRITE: &str = "Version <- PRODUCT(Seed, Seed2)";

/// Drive one query class in a loop until the stop flag; returns
/// per-request latencies in microseconds.
fn drive(addr: SocketAddr, path: &str, bodies: &[&str], stop: &AtomicBool) -> Vec<(usize, u128)> {
    let mut client = Client::connect(addr);
    let mut latencies = Vec::new();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let class = match i % 10 {
            0..=6 => 0, // point
            7 | 8 => 1, // pivot
            _ => 2,     // tc fixpoint
        }
        .min(bodies.len() - 1);
        let start = Instant::now();
        let resp = client.post_expect(path, bodies[class], 200);
        debug_assert!(resp.contains("\"ok\":true"));
        latencies.push((class, start.elapsed().as_micros()));
        i += 1;
    }
    latencies
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[ix]
}

fn stats_of(mut us: Vec<u128>) -> (usize, u128, u128) {
    us.sort_unstable();
    (us.len(), percentile(&us, 50.0), percentile(&us, 99.0))
}

/// Run `clients` driver threads for `secs`; returns merged latencies.
fn run_phase(
    addr: SocketAddr,
    path: &str,
    bodies: &[&str],
    clients: usize,
    secs: f64,
) -> Vec<(usize, u128)> {
    let stop = Arc::new(AtomicBool::new(false));
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let stop = Arc::clone(&stop);
                scope.spawn(move || drive(addr, path, bodies, &stop))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread"))
            .collect::<Vec<_>>()
    });
    merged
}

/// One sweep point's measured figures.
struct SweepPoint {
    clients: usize,
    qps: f64,
    p50_us: u128,
    p99_us: u128,
    requests: usize,
    wall_s: f64,
    worker_busy_s: f64,
    reactor_busy_s: f64,
    class_stats: Vec<(usize, u128, u128)>,
}

fn main() {
    let (addr, service) = Server::bind(Config {
        addr: "127.0.0.1:0".into(),
        default_deadline_ms: None,
        default_cell_budget: None,
        workers: 0,
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let session = seed_session(addr);
    let query = format!("/sessions/{session}/query?readonly=1");
    let commit = format!("/sessions/{session}/query");
    let tc = pretty::render(&ta_tc_fused_program());

    // -- Phase 1: mixed workload across the client sweep --
    let point_body = query_body(POINT);
    let pivot_body = query_body(PIVOT);
    let tc_body = query_body(&tc);
    let bodies = [point_body.as_str(), pivot_body.as_str(), tc_body.as_str()];
    let mut sweep = Vec::new();
    for &clients in &SWEEP {
        let worker0 = service.counters.worker_busy_us.load(Ordering::Relaxed);
        let reactor0 = service.counters.reactor_busy_us.load(Ordering::Relaxed);
        let started = Instant::now();
        let mixed = run_phase(addr, &query, &bodies, clients, MIXED_SECS);
        let wall_s = started.elapsed().as_secs_f64();
        let worker_busy_s =
            (service.counters.worker_busy_us.load(Ordering::Relaxed) - worker0) as f64 / 1e6;
        let reactor_busy_s =
            (service.counters.reactor_busy_us.load(Ordering::Relaxed) - reactor0) as f64 / 1e6;
        let (requests, p50_us, p99_us) = stats_of(mixed.iter().map(|(_, us)| *us).collect());
        let class_stats: Vec<(usize, u128, u128)> = (0..3)
            .map(|class| {
                stats_of(
                    mixed
                        .iter()
                        .filter(|(c, _)| *c == class)
                        .map(|(_, us)| *us)
                        .collect(),
                )
            })
            .collect();
        let qps = requests as f64 / wall_s;
        eprintln!(
            "{clients:>3} clients: {qps:.0} qps (p50 {p50_us}µs, p99 {p99_us}µs; \
             worker {worker_busy_s:.2}s + reactor {reactor_busy_s:.2}s busy over {wall_s:.2}s)"
        );
        sweep.push(SweepPoint {
            clients,
            qps,
            p50_us,
            p99_us,
            requests,
            wall_s,
            worker_busy_s,
            reactor_busy_s,
            class_stats,
        });
    }
    let qps_4 = sweep.iter().find(|p| p.clients == 4).expect("4-client").qps;
    let wide = sweep.last().expect("sweep");
    let qps_64_over_4 = wide.qps / qps_4;
    // Multi-core projection from measured busy time (the BENCH_7
    // method): workers spread across cores − 1 while the reactor
    // stays serial on its own core.
    let projected_wall = (wide.worker_busy_s / (PROJECTED_CORES - 1.0)).max(wide.reactor_busy_s);
    let projected_qps_64 = wide.requests as f64 / projected_wall.max(1e-9);
    let projected_64_over_4 = projected_qps_64 / qps_4;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // -- Phase 2: snapshot isolation, readers × writer --
    let readers_alone = run_phase(addr, &query, &[&pivot_body], 2, PHASE_SECS);
    let (_, _, reader_alone_p99) = stats_of(readers_alone.iter().map(|(_, us)| *us).collect());

    let write_body = query_body(WRITE);
    let writer_alone = run_phase(addr, &commit, &[&write_body], 1, PHASE_SECS);
    let writer_alone_rate = writer_alone.len() as f64 / PHASE_SECS;

    let stop = Arc::new(AtomicBool::new(false));
    let (readers_contended, writer_contended) = std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let query = query.as_str();
                let pivot_body = pivot_body.as_str();
                scope.spawn(move || drive(addr, query, &[pivot_body], &stop))
            })
            .collect();
        let writer_handle = {
            let stop = Arc::clone(&stop);
            let commit = commit.as_str();
            let write_body = write_body.as_str();
            scope.spawn(move || drive(addr, commit, &[write_body], &stop))
        };
        std::thread::sleep(Duration::from_secs_f64(PHASE_SECS));
        stop.store(true, Ordering::Relaxed);
        let readers: Vec<_> = reader_handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader"))
            .collect();
        (readers, writer_handle.join().expect("writer"))
    });
    let (_, _, reader_contended_p99) =
        stats_of(readers_contended.iter().map(|(_, us)| *us).collect());
    let writer_contended_rate = writer_contended.len() as f64 / PHASE_SECS;

    let trips = service.counters.budget_trips.load(Ordering::Relaxed);
    assert_eq!(trips, 0, "no admission trips expected in this workload");
    let accepted = service
        .counters
        .connections_accepted
        .load(Ordering::Relaxed);

    let class_names = ["point", "pivot", "tc"];
    let mut sweep_json = String::from("  \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        sweep_json.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"wall_ms\": {:.0}, \"qps\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"worker_busy_ms\": {:.0}, \
             \"reactor_busy_ms\": {:.0}}}{comma}\n",
            p.clients,
            p.requests,
            p.wall_s * 1000.0,
            p.qps,
            p.p50_us,
            p.p99_us,
            p.worker_busy_s * 1000.0,
            p.reactor_busy_s * 1000.0,
        ));
    }
    sweep_json.push_str("  ],\n");
    let anchor = sweep.iter().find(|p| p.clients == 4).expect("4-client");
    let mut class_json = String::new();
    for (name, (n, p50, p99)) in class_names.iter().zip(&anchor.class_stats) {
        class_json.push_str(&format!(
            "  \"clients4_{name}_requests\": {n},\n  \"clients4_{name}_p50_us\": {p50},\n  \
             \"clients4_{name}_p99_us\": {p99},\n",
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"service_scaling\",\n  \"host_cores\": {cores},\n{sweep_json}  \
         \"qps_4_clients\": {qps_4:.1},\n  \"qps_64_clients\": {:.1},\n  \
         \"qps_64_over_4_measured\": {qps_64_over_4:.2},\n  \
         \"qps_64_projected_{pc}core\": {projected_qps_64:.1},\n  \
         \"qps_64_over_4_projected_{pc}core\": {projected_64_over_4:.2},\n{class_json}  \
         \"connections_accepted\": {accepted},\n  \
         \"reader_alone_p99_us\": {reader_alone_p99},\n  \
         \"reader_with_writer_p99_us\": {reader_contended_p99},\n  \
         \"writer_alone_commits_per_s\": {writer_alone_rate:.1},\n  \
         \"writer_with_readers_commits_per_s\": {writer_contended_rate:.1},\n  \
         \"budget_trips\": {trips},\n  \
         \"method\": \"in-process tabular-serve (epoll reactor + one executor) over \
         loopback sockets; 1/4/16/64 keep-alive clients cycle 70% point projections, 20% \
         GROUP/CLEANUP/PURGE pivots, 10% fused-join TC fixpoints over a {CHAIN}-edge chain, \
         all readonly against Database::snapshot, {MIXED_SECS}s per sweep point; \
         worker_busy/reactor_busy are the /stats CPU-time counters per phase; the projected \
         figure assumes workers spread over cores-1 with the reactor serial on its own core \
         (max(reactor_busy, worker_busy/{pcm})), the BENCH_7 projection method; isolation \
         phases rerun pivot readers and a committing PRODUCT writer in one session, alone and \
         together, for {PHASE_SECS}s each; latencies are whole-request wall times measured \
         client-side\"\n}}\n",
        wide.qps,
        pc = PROJECTED_CORES as usize,
        pcm = PROJECTED_CORES as usize - 1,
    );
    if let Err(e) = std::fs::write("BENCH_10.json", &json) {
        eprintln!("could not write BENCH_10.json: {e}");
    }
    println!("{json}");
    println!(
        "sweep: 4 clients {qps_4:.0} qps → 64 clients {:.0} qps measured \
         ({qps_64_over_4:.2}x on {cores} core(s)), {projected_qps_64:.0} qps projected on \
         {} cores ({projected_64_over_4:.2}x); reader p99 {reader_alone_p99}µs alone vs \
         {reader_contended_p99}µs with writer; writer {writer_alone_rate:.0}/s alone vs \
         {writer_contended_rate:.0}/s with readers",
        wide.qps, PROJECTED_CORES as usize,
    );
}
