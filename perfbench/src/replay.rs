//! The traced pass: replay the workload's requests in-process, single
//! threaded, against a `Service` seeded exactly like the live server,
//! timing each layer through its public functions.
//!
//! Every replayed request runs twice. The *decomposed* path calls the
//! layers one by one — `json::parse`, `parser::parse`,
//! `Session::snapshot`, `plan::plan`, `run_governed_traced`,
//! `Session::commit`, and the render (`io::to_csv` + `json::escape`) —
//! each inside its own span. Then `Service::handle` runs the same
//! request whole and carries the state change. The difference between
//! the whole and the sum of its parts is the service's unattributed
//! time (routing, stats JSON, the multi-program thread scope).
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tabular_algebra::{
    parser, plan, run_governed_traced, Budget, CancelToken, EvalLimits, Program,
};
use tabular_core::{interner, io, Database};
use tabular_server::http::{self, Parsed};
use tabular_server::json::{self, Json};
use tabular_server::session::Sessions;
use tabular_server::{Config, Service};

use crate::alloc;
use crate::client::Response;
use crate::live::{check, post, Window};
use crate::stats::{median, quantile};
use crate::workload::{
    render_tables, Expect, Request, Target, Workload, BATCH_UPLOAD, CLASSES, PIVOT_PLANNED,
    SESSION_OPEN, TC,
};

/// The operators whose per-execution time is reported.
pub const OPS: [&str; 9] = [
    "FUSEDJOIN",
    "DIFFERENCE",
    "CLASSICALUNION",
    "GROUP",
    "CLEANUP",
    "PURGE",
    "SPLIT",
    "PROJECT",
    "SELECTCONST",
];

/// A part may overrun its whole by this share (plus [`SLACK_US`])
/// before the reconciliation flags the class: parts and whole are
/// separate executions, so their medians differ by timing noise.
pub const TOLERANCE: f64 = 0.10;
const SLACK_US: f64 = 5.0;

/// Minimum replayed requests per class before the pass may stop.
const MIN_PER_CLASS: usize = 40;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: usize,
    req: u32,
    warm: bool,
}

/// In-memory span recorder; ids are 1-based indices, 0 means no parent.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Marks the spans of a request's second execution of the same work.
    warm: bool,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            warm: false,
        }
    }

    fn open(&mut self, name: &'static str, parent: usize, req: u32) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
            warm: self.warm,
        });
        self.spans.len()
    }

    /// Close a span; returns its duration in microseconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id - 1];
        span.end = Instant::now();
        us(span.end - span.start)
    }

    /// Time `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, req);
        let out = f();
        (out, self.close(id))
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"warm\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                i + 1,
                s.parent,
                s.name,
                s.warm,
                (s.start - self.epoch).as_nanos(),
                (s.end - self.epoch).as_nanos()
            )
            .unwrap();
        }
        out
    }

    /// Median self time (span minus the time its children cover) per
    /// `(class, span name)` over first executions, in microseconds.
    fn self_times(&self, class_of: &BTreeMap<u32, usize>) -> BTreeMap<(usize, &'static str), f64> {
        let mut child: Vec<f64> = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent - 1] += us(s.end - s.start);
            }
        }
        let mut samples: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(&class) = class_of.get(&s.req).filter(|_| !s.warm) else {
                continue;
            };
            let own = (us(s.end - s.start) - child[i]).max(0.0);
            samples.entry((class, s.name)).or_default().push(own);
        }
        samples
            .into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-class samples keyed by measure name.
type Samples = Vec<BTreeMap<&'static str, Vec<f64>>>;

fn push(samples: &mut Samples, class: usize, key: &'static str, v: f64) {
    samples[class].entry(key).or_default().push(v);
}

/// Everything the replay measured.
pub struct Replay {
    pub samples: Samples,
    /// `(µs, executions)` per operator keyword.
    pub ops: BTreeMap<&'static str, (u128, usize)>,
    pub globals: BTreeMap<&'static str, f64>,
    pub spans_jsonl: String,
    pub report: String,
    pub flagged: usize,
}

impl Default for Replay {
    fn default() -> Replay {
        Replay {
            samples: vec![BTreeMap::new(); CLASSES.len()],
            ops: BTreeMap::new(),
            globals: BTreeMap::new(),
            spans_jsonl: String::new(),
            report: String::new(),
            flagged: 0,
        }
    }
}

impl Replay {
    /// Median of a per-class measure; 0 when the class did not run.
    pub fn class_median(&self, class: usize, key: &str) -> f64 {
        self.samples[class]
            .get(key)
            .map(|v| median(&mut v.clone()))
            .unwrap_or(0.0)
    }
}

struct Conn {
    scratch: String,
    next: usize,
}

struct Pass<'a> {
    svc: Service,
    wl: &'a Workload,
    seeded: Vec<String>,
    rec: Recorder,
    samples: Samples,
    ops: BTreeMap<&'static str, (u128, usize)>,
    globals: BTreeMap<&'static str, f64>,
    class_of: BTreeMap<u32, usize>,
    next_req: u32,
    /// Requests replayed per class.
    seen: Vec<usize>,
    /// The current decomposed run's measures, kept only when it ran
    /// first.
    pending: Vec<(&'static str, f64)>,
    pending_ops: Vec<(&'static str, u128, usize)>,
}

fn call(svc: &Service, wire: &[u8]) -> Result<(u16, String), String> {
    match http::parse_request(wire) {
        Parsed::Request(req, _) => {
            let resp = svc.handle(&req, None);
            Ok((resp.status, resp.body))
        }
        _ => Err("replay request did not parse".into()),
    }
}

/// Run the traced pass for at least `seconds` (and until every class
/// has [`MIN_PER_CLASS`] samples), then reconcile it against the live
/// window.
pub fn run(wl: &Workload, window: &Window, seconds: f64) -> Result<Replay, String> {
    let svc = Service::new(Config::default());
    let mut seeded = Vec::new();
    for session in &wl.sessions {
        let (status, body) = call(&svc, &post("/sessions", b""))?;
        let id = json::parse(&body)
            .ok()
            .and_then(|j| j.get("session").and_then(Json::as_str).map(String::from))
            .filter(|_| status == 201)
            .ok_or("replay could not open a session")?;
        for csv in &session.tables {
            let (status, _) = call(
                &svc,
                &post(&format!("/sessions/{id}/tables"), csv.as_bytes()),
            )?;
            if status != 201 {
                return Err("replay upload failed".into());
            }
        }
        seeded.push(id);
    }
    let mut pass = Pass {
        svc,
        wl,
        seeded,
        rec: Recorder::new(),
        samples: vec![BTreeMap::new(); CLASSES.len()],
        ops: BTreeMap::new(),
        globals: BTreeMap::new(),
        class_of: BTreeMap::new(),
        next_req: 0,
        seen: vec![0; CLASSES.len()],
        pending: Vec::new(),
        pending_ops: Vec::new(),
    };

    // Warm-up: every distinct request once, in the live order.
    let mut conn = Conn {
        scratch: String::new(),
        next: 0,
    };
    for req in &wl.warmup {
        let (status, body) = call(&pass.svc, &req.encode(&pass.seeded, &conn.scratch))?;
        note_scratch(req, status, &body, &mut conn);
        check(
            req,
            &Response {
                status,
                body: body.as_bytes(),
            },
        )
        .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    let footprint_warm = pass.footprint();

    // The schedules, interleaved one request per connection.
    let mut conns: Vec<Conn> = wl
        .schedules
        .iter()
        .map(|_| Conn {
            scratch: conn.scratch.clone(),
            next: 0,
        })
        .collect();
    let scheduled = wl.classes();
    let started = Instant::now();
    let hard_stop = started + Duration::from_secs_f64(seconds * 3.0);
    loop {
        let enough = scheduled.iter().all(|&c| pass.seen[c] >= MIN_PER_CLASS);
        let mid_cycle = conns
            .iter()
            .zip(&wl.schedules)
            .any(|(c, s)| matches!(wl.warmup[s[c.next % s.len()]].target, Target::Scratch));
        let now = Instant::now();
        if !mid_cycle
            && ((enough && now - started >= Duration::from_secs_f64(seconds)) || now >= hard_stop)
        {
            break;
        }
        for (c, schedule) in wl.schedules.iter().enumerate() {
            let req = &wl.warmup[schedule[conns[c].next % schedule.len()]];
            conns[c].next += 1;
            pass.step(req, &mut conns[c])?;
        }
    }
    let footprint_end = pass.footprint();
    if footprint_end != footprint_warm {
        return Err(format!(
            "bounded-state guard: post-warm-up (sessions, shared tables, symbols) = {footprint_warm:?}, after the replay {footprint_end:?}"
        ));
    }
    pass.micro(wl);
    pass.overhead();
    Ok(pass.finish(window))
}

fn note_scratch(req: &Request, status: u16, body: &str, conn: &mut Conn) {
    if let (Expect::NewSession, 201) = (&req.expect, status) {
        if let Some(id) = json::parse(body)
            .ok()
            .and_then(|j| j.get("session").and_then(Json::as_str).map(String::from))
        {
            conn.scratch = id;
        }
    }
}

impl Pass<'_> {
    /// `(open sessions, first seeded session's tables, interned symbols)`.
    fn footprint(&self) -> (usize, usize, usize) {
        let shared = Sessions::parse_id(&self.seeded[0])
            .and_then(|id| self.svc.sessions.get(id))
            .map_or(0, |s| s.snapshot().tables().len());
        (self.svc.sessions.len(), shared, interner::pool().len())
    }

    /// Replay one request: its decomposed parts and the whole, in
    /// alternating order. The second of two executions of the same work
    /// finds warmer caches, so each figure is taken from the executions
    /// that ran first: parts from half of a class's requests, the whole
    /// from the other half.
    fn step(&mut self, req: &Request, conn: &mut Conn) -> Result<(), String> {
        self.next_req += 1;
        let rid = self.next_req;
        self.class_of.insert(rid, req.class);
        let class = req.class;
        let parts_first = self.seen[class].is_multiple_of(2);
        self.seen[class] += 1;
        let wire = req.encode(&self.seeded, &conn.scratch);
        let root = self.rec.open("request", 0, rid);
        let (parsed, parse_us) = self.rec.time("http.parse_request", root, rid, || {
            http::parse_request(&wire)
        });
        let Parsed::Request(parsed, _) = parsed else {
            return Err("replay request did not parse".into());
        };
        let mut parts_us = 0.0;
        if parts_first {
            parts_us = self.parts(req, &conn.scratch, root, rid)?;
        }
        self.rec.warm = parts_first;
        let mark = alloc::mark();
        let (resp, handle_us) = self.rec.time("service.handle", root, rid, || {
            self.svc.handle(&parsed, None)
        });
        let (alloc_bytes, alloc_peak) = mark.read();
        self.rec.warm = !parts_first;
        if !parts_first {
            self.parts(req, &conn.scratch, root, rid)?;
        }
        self.rec.warm = false;
        let (_, encode_us) = self.rec.time("http.encode_response", root, rid, || {
            http::encode_response(resp.status, resp.body.as_bytes(), parsed.keep_alive())
        });
        self.rec.close(root);
        note_scratch(req, resp.status, &resp.body, conn);
        check(
            req,
            &Response {
                status: resp.status,
                body: resp.body.as_bytes(),
            },
        )
        .map_err(|e| format!("replay: {e}"))?;
        let s = &mut self.samples;
        push(s, class, "http_parse", parse_us);
        push(s, class, "http_encode", encode_us);
        if parts_first {
            push(s, class, "parts", parts_us);
            for (key, v) in self.pending.drain(..) {
                push(s, class, key, v);
            }
            for (op, micros, n) in self.pending_ops.drain(..) {
                let slot = self.ops.entry(op).or_insert((0, 0));
                slot.0 += micros;
                slot.1 += n;
            }
        } else {
            push(s, class, "handle", handle_us);
            push(s, class, "inproc", parse_us + handle_us + encode_us);
            push(s, class, "alloc_bytes", alloc_bytes as f64);
            push(s, class, "alloc_peak_kb", alloc_peak as f64 / 1024.0);
            self.pending.clear();
            self.pending_ops.clear();
        }
        Ok(())
    }

    fn parts(
        &mut self,
        req: &Request,
        scratch: &str,
        root: usize,
        rid: u32,
    ) -> Result<f64, String> {
        let parts = self.rec.open("service.parts", root, rid);
        let parts_us = self.decompose(req, scratch, parts, rid);
        self.rec.close(parts);
        parts_us
    }

    /// Call the request's layers one by one; returns the sum of the
    /// parts along the path `Service::handle` blocks on (concurrent
    /// programs of one request count by the slowest).
    fn decompose(
        &mut self,
        req: &Request,
        scratch: &str,
        parent: usize,
        rid: u32,
    ) -> Result<f64, String> {
        let class = req.class;
        let session = match req.target {
            Target::Seeded(k) => Sessions::parse_id(&self.seeded[k]),
            Target::Scratch => Sessions::parse_id(scratch),
            Target::None => None,
        }
        .and_then(|id| self.svc.sessions.get(id));
        if class == SESSION_OPEN {
            let sessions = &self.svc.sessions;
            let (_, t) = self.rec.time("sessions.create_delete", parent, rid, || {
                let id = sessions.create();
                sessions.remove(id)
            });
            return Ok(t);
        }
        if class == BATCH_UPLOAD {
            session.ok_or("upload to a missing session")?;
            let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            let (table, csv_us) = self
                .rec
                .time("io.from_csv", parent, rid, || io::from_csv(body));
            let table = table.map_err(|e| e.to_string())?;
            // Batches go to freshly opened sessions: insert into an
            // empty database, as the service does.
            let mut fresh = Database::new();
            let (_, insert_us) = self
                .rec
                .time("database.insert", parent, rid, || fresh.insert(table));
            return Ok(csv_us + insert_us);
        }
        if !req.suffix.starts_with("/query") {
            return Ok(0.0); // DELETE: routing only
        }
        let session = session.ok_or("query on a missing session")?;
        let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let (parsed, json_us) = self
            .rec
            .time("json.parse", parent, rid, || json::parse(body));
        let parsed = parsed?;
        let sources: Vec<&str> = match parsed.get("program").and_then(Json::as_str) {
            Some(p) => vec![p],
            None => parsed
                .get("programs")
                .and_then(Json::as_arr)
                .map(|l| l.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default(),
        };
        let (programs, parser_us) = self.rec.time("parser.parse", parent, rid, || {
            sources
                .iter()
                .map(|s| parser::parse(s))
                .collect::<Result<Vec<Program>, _>>()
        });
        let programs = programs.map_err(|e| e.to_string())?;
        let (snapshot, snapshot_us) = self
            .rec
            .time("session.snapshot", parent, rid, || session.snapshot());
        let mut budget =
            Budget::from_limits(&EvalLimits::default()).with_cancel(CancelToken::new());
        if programs.len() > 1 {
            budget = budget.split(programs.len());
        }
        let mut outs: Vec<Database> = Vec::new();
        let (mut eval_sum, mut eval_max, mut plan_sum) = (0.0, 0.0f64, 0.0);
        let (mut cow, mut shards, mut eval_unattributed) = (0u64, 0usize, 0.0);
        for program in &programs {
            let mut plan_us = 0.0;
            let planned;
            let program = if req.planned() {
                let ((p, report), t) = self
                    .rec
                    .time("plan.plan", parent, rid, || plan::plan(program, &snapshot));
                plan_us = t;
                self.pending
                    .push(("plan_rules", report.rules_applied() as f64));
                planned = p;
                &planned
            } else {
                program
            };
            let eval_span = self.rec.open("eval.run", parent, rid);
            let result = run_governed_traced(program, &snapshot, &budget);
            let eval_us = self.rec.close(eval_span);
            let (out, stats, _) = result.map_err(|e| e.to_string())?;
            let op_us: u128 = stats.op_micros.values().sum();
            eval_unattributed += eval_us - op_us as f64;
            for (op, n) in &stats.op_counts {
                let micros = stats.op_micros.get(op).copied().unwrap_or(0);
                self.pending_ops.push((op, micros, *n));
            }
            if class == TC {
                self.globals
                    .insert("while_iterations", stats.while_iterations as f64);
                self.globals
                    .insert("delta_skipped", stats.while_delta_skipped as f64);
            }
            cow += stats.cow_copies;
            shards += stats.shard_jobs;
            eval_sum += eval_us;
            eval_max = eval_max.max(eval_us + plan_us);
            plan_sum += plan_us;
            outs.push(out);
        }
        let commits = !req.suffix.contains("readonly=1") && outs.len() == 1;
        let mut commit_us = 0.0;
        if commits {
            let out = outs[0].clone();
            commit_us = self
                .rec
                .time("session.commit", parent, rid, || session.commit(out))
                .1;
        }
        let (rendered, render_us) = self.rec.time("render", parent, rid, || {
            outs.iter().map(render_tables).collect::<Vec<String>>()
        });
        let want = match &req.expect {
            Expect::Tables(any) => any,
            _ => return Err("query without a tables expectation".into()),
        };
        if !want.contains(&rendered) {
            return Err(format!(
                "replay: decomposed {} disagrees with the library",
                CLASSES[class]
            ));
        }
        self.pending.extend([
            ("json_parse", json_us),
            ("parser_parse", parser_us),
            ("snapshot", snapshot_us),
            ("eval", eval_sum),
            ("eval_unattributed", eval_unattributed),
            ("render", render_us),
            (
                "render_bytes",
                rendered.iter().map(String::len).sum::<usize>() as f64,
            ),
            ("cow_copies", cow as f64),
            ("shard_jobs", shards as f64),
        ]);
        if req.planned() {
            self.pending.push(("plan", plan_sum));
        }
        let critical = if programs.len() > 1 {
            eval_max
        } else {
            eval_sum + plan_sum
        };
        Ok(json_us + parser_us + snapshot_us + critical + commit_us + render_us)
    }

    /// Direct timings of the session, registry, CSV and insert layers on
    /// the seeded state, independent of the request mix.
    fn micro(&mut self, wl: &Workload) {
        let session = Sessions::parse_id(&self.seeded[0])
            .and_then(|id| self.svc.sessions.get(id))
            .expect("seeded session is open");
        let per_call = |n: usize, f: &mut dyn FnMut()| {
            let mut batches: Vec<f64> = (0..7)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..n {
                        f();
                    }
                    us(t.elapsed()) / n as f64
                })
                .collect();
            median(&mut batches)
        };
        let snapshot_us = per_call(2000, &mut || drop(std::hint::black_box(session.snapshot())));
        let commit_us = per_call(2000, &mut || session.commit(session.snapshot()));
        let sessions = &self.svc.sessions;
        let churn_us = per_call(500, &mut || {
            let id = sessions.create();
            sessions.remove(id);
        });
        let mut csvs: Vec<&str> = wl
            .sessions
            .iter()
            .flat_map(|s| s.tables.iter().map(String::as_str))
            .collect();
        csvs.extend(
            wl.warmup
                .iter()
                .filter(|r| r.class == BATCH_UPLOAD)
                .map(|r| std::str::from_utf8(&r.body).expect("CSV is UTF-8")),
        );
        let rows: usize = csvs.iter().map(|c| c.lines().count() - 1).sum();
        let parse_all = per_call(3, &mut || {
            for c in &csvs {
                std::hint::black_box(io::from_csv(c).expect("generated CSV parses"));
            }
        });
        let tables: Vec<_> = csvs
            .iter()
            .map(|c| io::from_csv(c).expect("generated CSV parses"))
            .collect();
        let insert_all = per_call(50, &mut || {
            let mut db = Database::new();
            for t in &tables {
                db.insert(t.clone());
            }
            std::hint::black_box(db);
        });
        let g = &mut self.globals;
        g.insert("snapshot_us", snapshot_us);
        g.insert("commit_us", commit_us);
        g.insert("create_delete_us", churn_us);
        g.insert("from_csv_us_per_krow", parse_all / rows as f64 * 1000.0);
        g.insert("insert_us", insert_all / tables.len() as f64);
    }

    /// The recorder's own cost: readonly requests through parse, handle
    /// and encode, in batches with and without spans, alternating.
    fn overhead(&mut self) {
        let wires: Vec<Vec<u8>> = self
            .wl
            .warmup
            .iter()
            .filter(|r| r.suffix.contains("readonly=1"))
            .map(|r| r.encode(&self.seeded, ""))
            .collect();
        if wires.is_empty() {
            return;
        }
        let svc = &self.svc;
        let run = |rec: Option<&mut Recorder>| {
            let t = Instant::now();
            match rec {
                None => {
                    for w in &wires {
                        if let Parsed::Request(req, _) = http::parse_request(w) {
                            let resp = svc.handle(&req, None);
                            std::hint::black_box(http::encode_response(
                                resp.status,
                                resp.body.as_bytes(),
                                true,
                            ));
                        }
                    }
                }
                Some(rec) => {
                    for w in &wires {
                        let root = rec.open("request", 0, 0);
                        let (parsed, _) =
                            rec.time("http.parse_request", root, 0, || http::parse_request(w));
                        if let Parsed::Request(req, _) = parsed {
                            let (resp, _) =
                                rec.time("service.handle", root, 0, || svc.handle(&req, None));
                            rec.time("http.encode_response", root, 0, || {
                                std::hint::black_box(http::encode_response(
                                    resp.status,
                                    resp.body.as_bytes(),
                                    true,
                                ))
                            });
                        }
                        rec.close(root);
                    }
                }
            }
            us(t.elapsed())
        };
        let reps = (2000 / wires.len()).clamp(3, 200);
        let (mut bare, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..reps.min(40) {
            bare.push(run(None));
            let mut rec = Recorder::new();
            traced.push(run(Some(&mut rec)));
        }
        let (b, t) = (median(&mut bare), median(&mut traced));
        self.globals.insert("overhead_pct", (t - b) / b * 100.0);
    }

    fn finish(mut self, window: &Window) -> Replay {
        let self_times = self.rec.self_times(&self.class_of);
        let mut report = String::new();
        let mut flagged = 0;
        writeln!(
            report,
            "replay: {} requests, {} spans, recorder overhead {:.2}% of parse+handle+encode",
            self.next_req,
            self.rec.spans.len(),
            self.globals.get("overhead_pct").copied().unwrap_or(0.0)
        )
        .unwrap();
        writeln!(
            report,
            "reconciliation (medians, µs; parts may exceed handle by {:.0}% + {SLACK_US}µs, \
             in-process parse+handle+encode may exceed the client p50 by {:.0}%):",
            TOLERANCE * 100.0,
            TOLERANCE * 100.0
        )
        .unwrap();
        writeln!(
            report,
            "  {:<15} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}  flags",
            "class", "n", "client_p50", "inproc", "handle", "parts", "unattr"
        )
        .unwrap();
        let med = |samples: &Samples, c: usize, k: &str| {
            samples[c]
                .get(k)
                .map(|v| median(&mut v.clone()))
                .unwrap_or(0.0)
        };
        for (c, name) in CLASSES.iter().enumerate() {
            let n = self.seen[c];
            if n == 0 {
                continue;
            }
            let client = client_p50_us(window, c);
            let (inproc, handle, parts) = (
                med(&self.samples, c, "inproc"),
                med(&self.samples, c, "handle"),
                med(&self.samples, c, "parts"),
            );
            let mut flags = Vec::new();
            if parts > handle * (1.0 + TOLERANCE) + SLACK_US {
                flags.push("parts overrun handle");
            }
            if client > 0.0 && inproc > client * (1.0 + TOLERANCE) {
                flags.push("in-process overruns client p50");
            }
            flagged += usize::from(!flags.is_empty());
            writeln!(
                report,
                "  {name:<15} {n:>6} {client:>10.1} {inproc:>10.1} {handle:>10.1} {parts:>10.1} {:>10.1}  {}",
                handle - parts,
                if flags.is_empty() { "ok".to_string() } else { flags.join(", ") }
            )
            .unwrap();
            self.samples[c].insert("unattributed", vec![handle - parts]);
        }
        // Layer shares of Service::handle over the replayed mix: class
        // medians weighted by how often each class ran.
        let total = |k: &str| -> f64 {
            (0..CLASSES.len())
                .map(|c| self.seen[c] as f64 * med(&self.samples, c, k))
                .sum()
        };
        let handle_total = total("handle").max(1e-9);
        let render_share = total("render") / handle_total * 100.0;
        let eval_share = total("eval") / handle_total * 100.0;
        writeln!(
            report,
            "shares of Service::handle time: render {render_share:.1}%, eval {eval_share:.1}%"
        )
        .unwrap();
        writeln!(report, "self time per span (median µs per request):").unwrap();
        for ((c, name), v) in &self_times {
            writeln!(report, "  {:<15} {:<24} {v:>10.1}", CLASSES[*c], name).unwrap();
        }
        let mut globals = self.globals;
        globals.insert("render_share_pct", render_share);
        globals.insert("eval_share_pct", eval_share);
        if let Some(v) = self.samples[PIVOT_PLANNED].get("plan") {
            globals.insert("plan_us", median(&mut v.clone()));
        }
        if let Some(v) = self.samples[PIVOT_PLANNED].get("plan_rules") {
            globals.insert("plan_rules", median(&mut v.clone()));
        }
        globals.insert("symbols", interner::pool().len() as f64);
        Replay {
            samples: self.samples,
            ops: self.ops,
            globals,
            spans_jsonl: self.rec.to_jsonl(),
            report,
            flagged,
        }
    }
}

/// A class's client-observed median latency in µs (0 if absent).
pub fn client_p50_us(window: &Window, class: usize) -> f64 {
    let lat = &window.latencies[class];
    if lat.is_empty() {
        return 0.0;
    }
    let mut v = lat.clone();
    v.sort_unstable();
    quantile(&v, 0.5) / 1000.0
}
