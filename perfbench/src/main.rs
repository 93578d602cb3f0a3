//! `perfbench` — end-to-end and per-layer benchmark of `tabular-serve`.
//!
//! ```sh
//! perfbench --workload <point_reads|analytic|read_write> --seed <n> \
//!           --seconds <s> --trace <0|1> --server <path to tabular-serve> \
//!           [--out <dir>]
//! perfbench --list-metrics
//! ```
//!
//! The untraced pass spawns the server, uploads the seeded tables
//! (several times, for the set-up time), warms up, and drives a closed
//! loop over two keep-alive connections for `--seconds`. With
//! `--trace 1` a traced in-process replay follows (see `replay`). The
//! last line of standard output is the result object; host-noise
//! diagnostics are printed on the line before it.

mod alloc;
mod client;
mod live;
mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use live::Window;
use replay::{client_p50_us, Replay, OPS};
use stats::{geomean, median, quantile};
use workload::{Class, Kind, Workload, CLASSES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Server spawns per run before and after the window; `setup_s` is the
/// median of all of them, so host drift within a run evens out.
const SETUPS_BEFORE: usize = 7;
const SETUPS_AFTER: usize = 8;
/// Equal slices of the timed window; end-to-end metrics are medians
/// over them.
const SLICES: usize = 5;
/// Unmeasured closed-loop seconds between warm-up and the window.
const WARM_SECONDS: f64 = 1.5;
/// Minimum seconds of traced replay.
const REPLAY_SECONDS: f64 = 3.0;

struct Args {
    workload: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <point_reads|analytic|read_write> --seed <n> \
--seconds <s> --trace <0|1> --server <tabular-serve> [--out <dir>] | --list-metrics";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--server" => server = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Kind::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list-metrics") {
        let window = Window {
            latencies: vec![Vec::new(); CLASSES.len()],
            ..Window::default()
        };
        for (name, unit, _) in per_layer(&Replay::default(), &window, 0) {
            println!("{name} {unit}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut wl = Workload::generate(args.workload, args.seed);
    // First interning in this process: mirrors the server's order.
    wl.compute_oracle();

    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut server = None;
    for _ in 0..SETUPS_BEFORE {
        // The previous server is killed and reaped first.
        drop(server.take());
        let (s, secs) = live::start(&args.server, &wl)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut problems: Vec<String> = Vec::new();
    live::warm_up(&server, &wl).map_err(|e| format!("warm-up: {e}"))?;
    let warm = live::drive(&server, &wl, WARM_SECONDS, 1);
    if warm.failed > 0 {
        problems.push(format!(
            "{} warm-up requests failed: {:?}",
            warm.failed, warm.errors
        ));
    }
    let footprint_warm = live::footprint(&server)?;
    let calib_before = calibrate_ms();
    let window = live::drive(&server, &wl, args.seconds, SLICES);
    let calib_after = calibrate_ms();
    let footprint_end = live::footprint(&server)?;
    if footprint_end != footprint_warm {
        problems.push(format!(
            "bounded-state guard: post-warm-up {footprint_warm:?}, after the window {footprint_end:?}"
        ));
    }
    let rss_kb = live::peak_rss_kb(server.pid());
    drop(server);
    for _ in 0..SETUPS_AFTER {
        setups.push(live::start(&args.server, &wl)?.1);
    }
    if window.failed > 0 {
        problems.push(format!(
            "{} requests failed: {:?}",
            window.failed, window.errors
        ));
    }

    let classes = wl.classes();
    let figures = figures(&window, &classes);
    let diagnostics = diagnostics(&window, &figures, calib_before, calib_after);
    println!("{diagnostics}");

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        let replay =
            replay::run(&wl, &window, REPLAY_SECONDS).map_err(|e| format!("traced pass: {e}"))?;
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let stem = format!("{}-seed{}", args.name, args.seed);
        let write = |file: String, text: &str| {
            std::fs::write(args.out.join(file), text).map_err(|e| e.to_string())
        };
        write(format!("spans-{stem}.jsonl"), &replay.spans_jsonl)?;
        write(format!("report-{stem}.txt"), &replay.report)?;
        eprint!("{}", replay.report);
        per_layer(&replay, &window, rss_kb)
    } else {
        end_to_end(&figures, median(&mut setups))
    };
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        problems.is_empty(),
        window.attempted,
        window.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        )
        .unwrap();
    }
    line.push_str("}}");
    Ok(line)
}

/// A JSON number; a non-finite value (a percentile missed by failed
/// requests) prints as a huge finite one.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// What the timed window measured, each figure the median over the
/// window's slices, so a host hiccup shorter than half the window does
/// not move it.
struct Figures {
    throughput_rps: f64,
    class_p50_geomean_ms: f64,
    class_p90_geomean_ms: f64,
    server_cpu_ms_per_req: f64,
    /// Each class's median latency, for the diagnostics line.
    class_p50_ms: Vec<(Class, f64)>,
}

fn figures(window: &Window, classes: &[Class]) -> Figures {
    let n = window.slice_cpu_s.len();
    let mut done = vec![0u64; n];
    let mut lat: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); CLASSES.len()]; n];
    for &(t, class, ns) in &window.requests {
        let k = (t / window.slice_s) as usize;
        if k < n {
            done[k] += u64::from(ns != u64::MAX);
            lat[k][class].push(ns);
        }
    }
    let mut rps: Vec<f64> = done.iter().map(|&d| d as f64 / window.slice_s).collect();
    let mut cpu: Vec<f64> = (0..n)
        .map(|k| {
            window.slice_cpu_s[k] * 1e3 / lat[k].iter().map(Vec::len).sum::<usize>().max(1) as f64
        })
        .collect();
    for slice in lat.iter_mut() {
        for class in slice.iter_mut() {
            class.sort_unstable();
        }
    }
    let class_q = |c: Class, q: f64| {
        let mut per_slice: Vec<f64> = lat.iter().map(|s| quantile(&s[c], q) / 1e6).collect();
        median(&mut per_slice)
    };
    let geo = |q: f64| {
        let mut per_slice: Vec<f64> = lat
            .iter()
            .map(|slice| {
                let per_class: Vec<f64> = classes
                    .iter()
                    .map(|&c| quantile(&slice[c], q) / 1e6)
                    .collect();
                geomean(&per_class)
            })
            .collect();
        median(&mut per_slice)
    };
    Figures {
        class_p50_geomean_ms: geo(0.5),
        class_p90_geomean_ms: geo(0.9),
        throughput_rps: median(&mut rps),
        server_cpu_ms_per_req: median(&mut cpu),
        class_p50_ms: classes.iter().map(|&c| (c, class_q(c, 0.5))).collect(),
    }
}

/// The end-to-end metrics; `setup_s` is the median over the run's
/// set-ups. Throughput and p90 are diagnostics only: on a shared host
/// they follow the host's steal time between runs far more than the
/// program.
fn end_to_end(f: &Figures, setup_s: f64) -> Vec<(String, &'static str, f64)> {
    vec![
        ("class_p50_geomean_ms".into(), "ms", f.class_p50_geomean_ms),
        (
            "server_cpu_ms_per_req".into(),
            "ms",
            f.server_cpu_ms_per_req,
        ),
        ("setup_s".into(), "s", setup_s),
    ]
}

/// Host-noise diagnostics of the window: reported beside the metrics,
/// never folded into them.
fn diagnostics(window: &Window, f: &Figures, calib_before: f64, calib_after: f64) -> String {
    let (mut samples, mut p50) = (String::new(), String::new());
    for (i, &(c, ms)) in f.class_p50_ms.iter().enumerate() {
        if i > 0 {
            samples.push(',');
            p50.push(',');
        }
        write!(samples, "\"{}\":{}", CLASSES[c], window.latencies[c].len()).unwrap();
        write!(p50, "\"{}\":{ms:.4}", CLASSES[c]).unwrap();
    }
    let mut steal: Vec<f64> = window.slice_steal.iter().map(|s| s * 100.0).collect();
    let steal_median = median(&mut steal);
    let steal_max = steal.last().copied().unwrap_or(0.0);
    format!(
        "{{\"diagnostics\": {{\"throughput_rps\": {:.1}, \"class_p90_geomean_ms\": {:.4}, \
         \"steal_pct\": {:.3}, \"slice_steal_pct_median\": {steal_median:.3}, \
         \"slice_steal_pct_max\": {steal_max:.3}, \"loadavg1\": {}, \
         \"generator_cpu_us_per_req\": {:.2}, \"calibration_ms_before\": {:.3}, \
         \"calibration_ms_after\": {:.3}, \"window_s\": {:.3}, \"class_p50_ms\": {{{p50}}}, \"samples_per_class\": {{{samples}}}}}}}",
        f.throughput_rps,
        f.class_p90_geomean_ms,
        window.host.steal_frac * 100.0,
        window.host.loadavg1,
        window.host.self_cpu_s * 1e6 / window.attempted.max(1) as f64,
        calib_before,
        calib_after,
        window.wall_s,
    )
}

/// A fixed in-process kernel whose time tracks host speed.
fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut rng = workload::Rng::new(7);
    let mut acc = 0u64;
    for _ in 0..20_000_000 {
        acc = acc.wrapping_add(std::hint::black_box(rng.next()));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

use workload::{
    BATCH_PIVOT, BATCH_UPLOAD, HOT_COMMIT, MULTI, PIVOT, PIVOT_PLANNED, PROJECT, SELECTCONST,
    SESSION_DELETE, SESSION_OPEN, SPLIT, TC,
};

const ALL: &[Class] = &[
    PROJECT,
    SELECTCONST,
    TC,
    PIVOT,
    PIVOT_PLANNED,
    SPLIT,
    MULTI,
    HOT_COMMIT,
    SESSION_OPEN,
    BATCH_UPLOAD,
    BATCH_PIVOT,
    SESSION_DELETE,
];
const NOT_SESSION: &[Class] = &[
    PROJECT,
    SELECTCONST,
    TC,
    PIVOT,
    PIVOT_PLANNED,
    SPLIT,
    MULTI,
    HOT_COMMIT,
    BATCH_UPLOAD,
    BATCH_PIVOT,
];
const QUERY: &[Class] = &[
    PROJECT,
    SELECTCONST,
    TC,
    PIVOT,
    PIVOT_PLANNED,
    SPLIT,
    MULTI,
    HOT_COMMIT,
    BATCH_PIVOT,
];

/// Per-class families: (metric prefix, unit, replay measure, classes).
/// A family is kept only on the classes where its layer does work.
const FAMILIES: &[(&str, &str, &str, &[Class])] = &[
    ("service.handle_us", "us", "handle", ALL),
    ("service.unattributed_us", "us", "unattributed", NOT_SESSION),
    ("alloc.bytes_per_req", "bytes", "alloc_bytes", NOT_SESSION),
    (
        "alloc.peak_live_kb",
        "KiB",
        "alloc_peak_kb",
        &[PROJECT, TC, SPLIT],
    ),
    (
        "http.parse_us",
        "us",
        "http_parse",
        &[PROJECT, SELECTCONST, TC, BATCH_UPLOAD],
    ),
    (
        "http.encode_us",
        "us",
        "http_encode",
        &[PROJECT, SELECTCONST, TC, SPLIT, BATCH_PIVOT],
    ),
    (
        "json.parse_us",
        "us",
        "json_parse",
        &[PROJECT, SELECTCONST, TC, MULTI],
    ),
    (
        "parser.parse_us",
        "us",
        "parser_parse",
        &[PROJECT, TC, PIVOT, MULTI, HOT_COMMIT],
    ),
    ("render.us", "us", "render", QUERY),
    (
        "render.bytes",
        "bytes",
        "render_bytes",
        &[
            PROJECT,
            SELECTCONST,
            TC,
            PIVOT,
            SPLIT,
            MULTI,
            HOT_COMMIT,
            BATCH_PIVOT,
        ],
    ),
    ("eval.run_us", "us", "eval", QUERY),
    (
        "eval.unattributed_us",
        "us",
        "eval_unattributed",
        &[TC, PIVOT, SPLIT, MULTI, BATCH_PIVOT],
    ),
    (
        "eval.cow_copies",
        "count",
        "cow_copies",
        &[HOT_COMMIT, BATCH_PIVOT],
    ),
    ("pool.shard_jobs", "count", "shard_jobs", &[SPLIT, MULTI]),
];

/// Every per-layer metric, in a fixed order. Classes a workload does
/// not run report 0.
fn per_layer(r: &Replay, w: &Window, rss_kb: u64) -> Vec<(String, &'static str, f64)> {
    let per_req = |x: f64| x / w.attempted.max(1) as f64;
    let g = |k: &str| r.globals.get(k).copied().unwrap_or(0.0);
    let mut out: Vec<(String, &'static str, f64)> = vec![
        (
            "reactor.busy_us_per_req".into(),
            "us/req",
            per_req(w.reactor_busy_us as f64),
        ),
        (
            "worker.busy_us_per_req".into(),
            "us/req",
            per_req(w.worker_busy_us as f64),
        ),
        (
            "server.ctx_switches_per_req".into(),
            "count/req",
            per_req(w.ctx_switches as f64),
        ),
        (
            "server.threads_created_per_req".into(),
            "count/req",
            per_req(w.host.forks as f64),
        ),
        ("server.peak_rss_mb".into(), "MB", rss_kb as f64 / 1024.0),
        ("session.snapshot_us".into(), "us", g("snapshot_us")),
        ("session.commit_us".into(), "us", g("commit_us")),
        (
            "sessions.create_delete_us".into(),
            "us",
            g("create_delete_us"),
        ),
        ("plan.plan_us.pivot_planned".into(), "us", g("plan_us")),
        (
            "plan.rules_applied.pivot_planned".into(),
            "count",
            g("plan_rules"),
        ),
        (
            "eval.while_iterations.tc".into(),
            "count",
            g("while_iterations"),
        ),
        ("delta.skipped.tc".into(), "count", g("delta_skipped")),
        (
            "io.from_csv_us_per_krow".into(),
            "us/krow",
            g("from_csv_us_per_krow"),
        ),
        ("database.insert_us".into(), "us", g("insert_us")),
        ("interner.symbols".into(), "count", g("symbols")),
        ("trace.overhead_pct".into(), "%", g("overhead_pct")),
        (
            "reconcile.flagged_classes".into(),
            "count",
            r.flagged as f64,
        ),
        ("share.render_pct".into(), "%", g("render_share_pct")),
        ("share.eval_pct".into(), "%", g("eval_share_pct")),
    ];
    for op in OPS {
        let (micros, n) = r.ops.get(op).copied().unwrap_or((0, 0));
        let v = if n == 0 {
            0.0
        } else {
            micros as f64 / n as f64
        };
        out.push((format!("eval.op_us.{op}"), "us", v));
    }
    for &c in ALL {
        let handle = r.class_median(c, "handle");
        let client = client_p50_us(w, c);
        let residual = if handle > 0.0 && client > 0.0 {
            client - handle
        } else {
            0.0
        };
        out.push((
            format!("transport.residual_us_p50.{}", CLASSES[c]),
            "us",
            residual,
        ));
    }
    for (prefix, unit, key, classes) in FAMILIES {
        for &c in *classes {
            out.push((
                format!("{prefix}.{}", CLASSES[c]),
                unit,
                r.class_median(c, key),
            ));
        }
    }
    out
}
