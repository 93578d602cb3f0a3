//! Seeded workload definitions: the tables each workload uploads, the
//! request classes, each connection's closed-loop schedule, and the
//! library-computed expected answer of every distinct request.
//!
//! Everything here is a pure function of `(workload, seed)`: the same
//! seed gives the same tables, the same schedules and the same expected
//! payloads. Table shapes (row counts, column counts, name widths) do
//! not depend on the seed, so every seed asks the server for the same
//! amount of work.

use std::fmt::Write as _;

use tabular_algebra::{
    parser, run_governed_traced, run_planned_governed_traced, Budget, EvalLimits,
};
use tabular_core::{interner, io, Database};
use tabular_server::json;

/// The request classes, indexed by [`Class`]. Latency percentiles and
/// per-layer figures are kept per class; a class absent from a workload
/// reports 0 in the per-layer output.
pub const CLASSES: [&str; 12] = [
    "project",
    "selectconst",
    "tc",
    "pivot",
    "pivot_planned",
    "split",
    "multi",
    "hot_commit",
    "session_open",
    "batch_upload",
    "batch_pivot",
    "session_delete",
];

/// The `tables` array bodies of an answer, one per program.
pub type Payloads = Vec<String>;

/// Index into [`CLASSES`].
pub type Class = usize;
pub const PROJECT: Class = 0;
pub const SELECTCONST: Class = 1;
pub const TC: Class = 2;
pub const PIVOT: Class = 3;
pub const PIVOT_PLANNED: Class = 4;
pub const SPLIT: Class = 5;
pub const MULTI: Class = 6;
pub const HOT_COMMIT: Class = 7;
pub const SESSION_OPEN: Class = 8;
pub const BATCH_UPLOAD: Class = 9;
pub const BATCH_PIVOT: Class = 10;
pub const SESSION_DELETE: Class = 11;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Render- and transport-bound readonly point queries over several
    /// sessions.
    PointReads,
    /// Evaluation-bound fixpoints, pivots, SPLIT fan-out and
    /// multi-program requests on one session.
    Analytic,
    /// Point reads on a shared session beside a committing writer that
    /// also opens, fills, pivots and deletes scratch sessions.
    ReadWrite,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "point_reads" => Some(Kind::PointReads),
            "analytic" => Some(Kind::Analytic),
            "read_write" => Some(Kind::ReadWrite),
            _ => None,
        }
    }
}

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `n` distinct names `prefix` + five digits: fixed width, so the
    /// rendered bytes do not depend on the seed.
    fn names(&mut self, prefix: &str, n: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(n);
        while out.len() < n {
            let s = format!("{prefix}{:05}", self.below(100_000));
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// A three-digit sale count.
    fn sold(&mut self) -> u64 {
        100 + self.below(900)
    }
}

const CHAIN: usize = 24;
const REGIONS: usize = 4;
const POINT_SESSIONS: usize = 8;
const POINT_PARTS: usize = 250;
const ANALYTIC_PARTS: usize = 72;
const SHARED_PARTS: usize = 250;
const BATCHES: usize = 8;
const BATCH_PARTS: usize = 30;
const SELECT_PARTS: usize = 4;
const TENANTS: usize = 8;
const TENANT_PARTS: usize = 1000;

const TC_SRC: &str = "TC <- COPY(E)
Frontier <- COPY(E)
while Frontier do
  EStep <- COPY(E)
  RTC <- RENAME[A -> A0](TC)
  RTC <- RENAME[B -> B0](RTC)
  Matched <- FUSEDJOIN[B0 = A](RTC, EStep)
  Step <- PROJECT[{A0, B}](Matched)
  Step <- RENAME[A0 -> A](Step)
  Frontier <- DIFFERENCE(Step, TC)
  TC <- CLASSICALUNION(TC, Frontier)
end";

fn pivot_src(target: &str, source: &str) -> String {
    format!(
        "{target} <- GROUP[by {{Region}} on {{Sold}}]({source})\n\
         {target} <- CLEANUP[by {{Part}} on {{_}}]({target})\n\
         {target} <- PURGE[on {{Sold}} by {{Region}}]({target})"
    )
}

const PROJECT_SRC: &str = "P <- PROJECT[{Part, Sold}](Sales)";
const SPLIT_SRC: &str = "Parts <- SPLIT[on {Part}](Sales)\nParts <- PROJECT[{Region, Sold}](Parts)";

fn selectconst_src(part: &str) -> String {
    format!("Q <- SELECTCONST[Part = v:{part}](Sales)")
}

fn hot_src(region: &str) -> String {
    format!("Hot <- SELECTCONST[Region = v:{region}](Sales)")
}

/// A `Sales[Region, Part, Sold]` CSV over every (part, region) pair.
fn sales_csv(name: &str, rng: &mut Rng, regions: &[String], parts: &[String]) -> String {
    let mut csv = format!("{name},Region,Part,Sold\n");
    let mut row = 0;
    for part in parts {
        for region in regions {
            writeln!(csv, "r{row},{region},{part},{}", rng.sold()).unwrap();
            row += 1;
        }
    }
    csv
}

/// The 24-edge chain `E[A, B]` over seeded node names.
fn chain_csv(rng: &mut Rng) -> String {
    let nodes = rng.names("n", CHAIN + 1);
    let mut csv = String::from("E,A,B\n");
    for i in 0..CHAIN {
        writeln!(csv, "e{i},{},{}", nodes[i], nodes[i + 1]).unwrap();
    }
    csv
}

/// Which session a request addresses.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// The k-th seeded session (wire id resolved after set-up).
    Seeded(usize),
    /// The scratch session the writer opened last.
    Scratch,
    /// No session (`POST /sessions`).
    None,
}

/// What a request's answer must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Status 200 and `tables` payloads equal to one of these (several
    /// when a concurrent writer may have committed any of several
    /// states first).
    Tables(Vec<Payloads>),
    /// This status and exactly this body.
    Exact(u16, Vec<u8>),
    /// `POST /sessions`: 201 and a fresh session id.
    NewSession,
    /// `DELETE`: 204.
    Deleted,
}

/// One distinct request of a schedule.
#[derive(Clone, Debug)]
pub struct Request {
    pub class: Class,
    pub method: &'static str,
    pub target: Target,
    /// Path suffix after `/sessions/{id}` (or the whole path for
    /// [`Target::None`]), including the query string.
    pub suffix: &'static str,
    pub body: Vec<u8>,
    pub expect: Expect,
}

impl Request {
    /// The request path once session ids are known.
    pub fn path(&self, seeded: &[String], scratch: &str) -> String {
        match self.target {
            Target::Seeded(k) => format!("/sessions/{}{}", seeded[k], self.suffix),
            Target::Scratch => format!("/sessions/{scratch}{}", self.suffix),
            Target::None => self.suffix.to_string(),
        }
    }

    /// The wire bytes of the request.
    pub fn encode(&self, seeded: &[String], scratch: &str) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            self.method,
            self.path(seeded, scratch),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// The program sources of a query request (empty for other routes).
    pub fn programs(&self) -> Vec<String> {
        if !self.suffix.starts_with("/query") {
            return Vec::new();
        }
        let body = std::str::from_utf8(&self.body).expect("bodies are UTF-8");
        let parsed = json::parse(body).expect("bodies are JSON");
        if let Some(p) = parsed.get("program").and_then(|p| p.as_str()) {
            return vec![p.to_string()];
        }
        parsed
            .get("programs")
            .and_then(|l| l.as_arr())
            .map(|l| {
                l.iter()
                    .filter_map(|p| p.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether the query asks for the planner.
    pub fn planned(&self) -> bool {
        self.suffix.contains("plan=1")
    }
}

/// One seeded session: its tables in upload order.
pub struct SeedSession {
    pub tables: Vec<String>,
}

/// A fully generated workload.
pub struct Workload {
    pub kind: Kind,
    /// Sessions created and filled during set-up, in order: the
    /// workload's own (addressed by [`Target::Seeded`]), then the idle
    /// tenants.
    pub sessions: Vec<SeedSession>,
    /// Every distinct request, in the order the warm-up sends them once
    /// each, sequentially, on one connection. The oracle evaluates them
    /// in the same order so that both processes intern symbols in the
    /// same order (symbol order decides row and column order).
    pub warmup: Vec<Request>,
    /// The closed-loop cycle of each connection, as indices into
    /// `warmup`.
    pub schedules: Vec<Vec<usize>>,
}

fn query(class: Class, target: Target, suffix: &'static str, src: &str) -> Request {
    Request {
        class,
        method: "POST",
        target,
        suffix,
        body: format!("{{\"program\":\"{}\"}}", json::escape(src)).into_bytes(),
        expect: Expect::Tables(Vec::new()),
    }
}

const READ: &str = "/query?readonly=1";
const READ_PLANNED: &str = "/query?readonly=1&plan=1";
const WRITE: &str = "/query";

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed);
        let regions = rng.names("g", REGIONS);
        let mut wl = match kind {
            Kind::PointReads => {
                let mut sessions = Vec::new();
                let mut warmup = Vec::new();
                for k in 0..POINT_SESSIONS {
                    let parts = rng.names("p", POINT_PARTS);
                    sessions.push(SeedSession {
                        tables: vec![
                            sales_csv("Sales", &mut rng, &regions, &parts),
                            chain_csv(&mut rng),
                        ],
                    });
                    warmup.push(query(PROJECT, Target::Seeded(k), READ, PROJECT_SRC));
                    for _ in 0..SELECT_PARTS {
                        let part = &parts[rng.below(parts.len() as u64) as usize];
                        warmup.push(query(
                            SELECTCONST,
                            Target::Seeded(k),
                            READ,
                            &selectconst_src(part),
                        ));
                    }
                }
                // Both connections alternate PROJECT and SELECTCONST,
                // round-robin over the sessions, half a cycle apart.
                let per = 1 + SELECT_PARTS;
                let mut cycle = Vec::new();
                for round in 0..SELECT_PARTS {
                    for k in 0..POINT_SESSIONS {
                        cycle.push(k * per);
                        cycle.push(k * per + 1 + round);
                    }
                }
                let half = cycle.len() / 2 + 1;
                let mut second = cycle.clone();
                second.rotate_left(half);
                Workload {
                    kind,
                    sessions,
                    warmup,
                    schedules: vec![cycle, second],
                }
            }
            Kind::Analytic => {
                let parts = rng.names("p", ANALYTIC_PARTS);
                let sessions = vec![SeedSession {
                    tables: vec![
                        sales_csv("Sales", &mut rng, &regions, &parts),
                        chain_csv(&mut rng),
                    ],
                }];
                let s = Target::Seeded(0);
                let pivot = pivot_src("Cross", "Sales");
                let multi = format!(
                    "{{\"programs\":[\"{}\",\"{}\"]}}",
                    json::escape(&pivot),
                    json::escape(&hot_src(&regions[0]))
                );
                let warmup = vec![
                    query(TC, s, READ, TC_SRC),
                    query(PIVOT, s, READ, &pivot),
                    query(PIVOT_PLANNED, s, READ_PLANNED, &pivot),
                    query(SPLIT, s, READ, SPLIT_SRC),
                    Request {
                        body: multi.into_bytes(),
                        ..query(MULTI, s, READ, "")
                    },
                ];
                Workload {
                    kind,
                    sessions,
                    warmup,
                    schedules: vec![vec![0, 1, 2, 3, 4], vec![2, 3, 4, 0, 1]],
                }
            }
            Kind::ReadWrite => {
                let parts = rng.names("p", SHARED_PARTS);
                let sessions = vec![SeedSession {
                    tables: vec![
                        sales_csv("Sales", &mut rng, &regions, &parts),
                        chain_csv(&mut rng),
                    ],
                }];
                let s = Target::Seeded(0);
                let mut warmup: Vec<Request> = regions
                    .iter()
                    .map(|r| query(HOT_COMMIT, s, WRITE, &hot_src(r)))
                    .collect();
                let reads_from = warmup.len();
                warmup.push(query(PROJECT, s, READ, PROJECT_SRC));
                for _ in 0..SELECT_PARTS {
                    let part = &parts[rng.below(parts.len() as u64) as usize];
                    warmup.push(query(SELECTCONST, s, READ, &selectconst_src(part)));
                }
                let reads_to = warmup.len();
                let pivot = pivot_src("X", "Batch");
                let mut writer = Vec::new();
                for _ in 0..BATCHES {
                    let batch_parts = rng.names("q", BATCH_PARTS);
                    let csv = sales_csv("Batch", &mut rng, &regions, &batch_parts);
                    writer.push(warmup.len());
                    warmup.push(Request {
                        class: SESSION_OPEN,
                        method: "POST",
                        target: Target::None,
                        suffix: "/sessions",
                        body: Vec::new(),
                        expect: Expect::NewSession,
                    });
                    warmup.push(Request {
                        class: BATCH_UPLOAD,
                        method: "POST",
                        target: Target::Scratch,
                        suffix: "/tables",
                        body: csv.into_bytes(),
                        expect: Expect::Exact(
                            201,
                            format!(
                                "{{\"ok\":true,\"table\":\"Batch\",\"height\":{},\"width\":3}}",
                                BATCH_PARTS * REGIONS
                            )
                            .into_bytes(),
                        ),
                    });
                    warmup.push(query(BATCH_PIVOT, Target::Scratch, WRITE, &pivot));
                    warmup.push(Request {
                        class: SESSION_DELETE,
                        method: "DELETE",
                        target: Target::Scratch,
                        suffix: "",
                        body: Vec::new(),
                        expect: Expect::Deleted,
                    });
                }
                // The writer interleaves one hot commit (cycling the
                // regions) before each scratch-session cycle.
                let mut write_cycle = Vec::new();
                for (b, &first) in writer.iter().enumerate() {
                    write_cycle.push(b % REGIONS);
                    write_cycle.extend(first..first + 4);
                }
                // The reader alternates PROJECT and the SELECTCONSTs.
                let mut read_cycle = Vec::new();
                for sel in reads_from + 1..reads_to {
                    read_cycle.push(reads_from);
                    read_cycle.push(sel);
                }
                Workload {
                    kind,
                    sessions,
                    warmup,
                    schedules: vec![read_cycle, write_cycle],
                }
            }
        };
        // Other tenants' sessions, loaded at set-up and never queried:
        // a few large uploads make `setup_s` mostly CSV ingest rather
        // than process start and round trips, so millisecond host
        // stalls do not decide it.
        for _ in 0..TENANTS {
            let parts = rng.names("t", TENANT_PARTS);
            wl.sessions.push(SeedSession {
                tables: vec![sales_csv("Sales", &mut rng, &regions, &parts)],
            });
        }
        wl
    }

    /// The classes the schedules send, ascending.
    pub fn classes(&self) -> Vec<Class> {
        let mut c: Vec<Class> = self
            .schedules
            .iter()
            .flatten()
            .map(|&i| self.warmup[i].class)
            .collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Fill in every request's expected answer by running the library
    /// on the same tables, in the warm-up order.
    ///
    /// Must run before anything else in this process interns a symbol:
    /// the server sees the set-up uploads and then the warm-up requests
    /// in exactly this order, so both interners assign the same ids.
    pub fn compute_oracle(&mut self) {
        let mut dbs: Vec<Database> = self
            .sessions
            .iter()
            .map(|s| {
                let mut db = Database::new();
                for csv in &s.tables {
                    db.insert(io::from_csv(csv).expect("generated CSV parses"));
                }
                db
            })
            .collect();
        let mut scratch = Database::new();
        // Shared-session states a concurrent writer may leave behind,
        // keyed by the hot-commit request that produced them.
        let mut hot_states: Vec<Database> = Vec::new();
        for i in 0..self.warmup.len() {
            let req = &self.warmup[i];
            let db = match req.target {
                Target::Seeded(k) => &mut dbs[k],
                _ => &mut scratch,
            };
            match req.class {
                SESSION_OPEN => *db = Database::new(),
                SESSION_DELETE => *db = Database::new(),
                BATCH_UPLOAD => {
                    let csv = std::str::from_utf8(&req.body).expect("CSV is UTF-8");
                    db.insert(io::from_csv(csv).expect("generated CSV parses"));
                }
                _ => {
                    let (out, payloads) = evaluate(req, db);
                    let commits = req.suffix == WRITE;
                    if commits {
                        *db = out.expect("committing requests run one program");
                    }
                    if req.class == HOT_COMMIT {
                        hot_states.push(db.clone());
                    }
                    self.warmup[i].expect = Expect::Tables(vec![payloads]);
                }
            }
        }
        // Reads beside the writer may observe any hot state: evaluate
        // them on every one (no new symbols: all were interned above).
        if self.kind == Kind::ReadWrite {
            for req in self.warmup.iter_mut() {
                if matches!(req.class, PROJECT | SELECTCONST) {
                    let payloads = hot_states.iter().map(|db| evaluate(req, db).1).collect();
                    req.expect = Expect::Tables(payloads);
                }
            }
        }
    }
}

/// Run a query request's programs through the library as the server
/// would, returning the single program's output database (if one) and
/// the expected `tables` payloads.
pub fn evaluate(req: &Request, db: &Database) -> (Option<Database>, Payloads) {
    let budget = Budget::from_limits(&EvalLimits::default());
    let programs = req.programs();
    let mut payloads = Vec::new();
    let mut single = None;
    for src in &programs {
        let program = parser::parse(src).expect("workload programs parse");
        let out = if req.planned() {
            run_planned_governed_traced(&program, db, &budget).map(|r| r.0)
        } else {
            run_governed_traced(&program, db, &budget).map(|r| r.0)
        }
        .expect("workload programs evaluate");
        payloads.push(render_tables(&out));
        if programs.len() == 1 {
            single = Some(out);
        }
    }
    (single, payloads)
}

/// The `tables` array body the service renders for an output database:
/// every table whose name is not reserved, CSV-encoded and escaped.
pub fn render_tables(db: &Database) -> String {
    let mut out = String::new();
    for t in db.tables() {
        let Some(name) = t.name().text().filter(|n| !interner::is_reserved(n)) else {
            continue;
        };
        if !out.is_empty() {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"height\":{},\"width\":{},\"csv\":\"{}\"}}",
            json::escape(name),
            t.height(),
            t.width(),
            json::escape(&io::to_csv(t)),
        )
        .unwrap();
    }
    out
}

/// Whether a response body's `tables` payloads equal `want`, in order.
pub fn tables_match(body: &[u8], want: &[String]) -> bool {
    const OPEN: &[u8] = b"\"tables\":[";
    const CLOSE: &[u8] = b"],\"stats\":";
    let mut rest = body;
    for payload in want {
        let Some(at) = find(rest, OPEN) else {
            return false;
        };
        let Some(tail) = rest[at + OPEN.len()..].strip_prefix(payload.as_bytes()) else {
            return false;
        };
        let Some(tail) = tail.strip_prefix(CLOSE) else {
            return false;
        };
        rest = tail;
    }
    find(rest, OPEN).is_none()
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
