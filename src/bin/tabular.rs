//! `tabular` — run tabular algebra programs over CSV tables from the
//! command line.
//!
//! ```sh
//! tabular run program.ta --table sales.csv [--table more.csv …]
//!         [--out Name …] [--plan] [--stats] [--trace]
//!         [--deadline-ms N] [--cell-budget N]
//! ```
//!
//! Tables load via the CSV convention of `tabular_core::io` (first record:
//! table name + column attributes; `_` is ⊥; `n:`/`v:` sort tags).
//! Programs use the textual syntax of `tabular_algebra::parser`. Without
//! `--out`, every non-scratch table of the final database is printed.
//!
//! `--deadline-ms` and `--cell-budget` govern the run with a
//! `tabular_algebra::Budget`; when a resource trips, the run fails with
//! the structured `BudgetExceeded` error and `--stats`/`--trace` print
//! the *partial* statistics and trace collected up to the trip (the
//! interrupted span is marked `← budget tripped`).

use std::process::ExitCode;
use tables_paradigm::algebra::{
    parser, pretty, run_governed_traced, AlgebraError, Budget, EvalLimits, EvalStats, Trace,
    TraceLevel,
};
use tables_paradigm::core::{interner, io, Database, Symbol};

struct Options {
    program_path: String,
    tables: Vec<String>,
    outputs: Vec<String>,
    plan: bool,
    stats: bool,
    trace: bool,
    deadline_ms: Option<u64>,
    cell_budget: Option<usize>,
}

const USAGE: &str = "usage: tabular run <program.ta> --table <file.csv> [--table …] \
[--out <Name> …] [--plan] [--stats] [--trace] [--deadline-ms <N>] [--cell-budget <N>]\n       \
tabular fmt <program.ta>\n\
\n\
--plan              run the cost-based planner against the loaded tables'\n\
                    statistics and print its rewrite decisions (EXPLAIN)\n\
--deadline-ms <N>   fail the run once N milliseconds of wall time pass\n\
--cell-budget <N>   fail the run once it has produced N cumulative cells\n\
                    (cells per table: (height+1)*(width+1))\n\
On a trip the run exits with error `<resource> budget exceeded: spent <S> of <L>`\n\
(or `evaluation cancelled cooperatively`); the error carries the partial\n\
statistics and trace, which --stats/--trace print with the interrupted span\n\
marked `← budget tripped`.";

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut it = args.iter();
    let command = it.next().ok_or(USAGE)?.clone();
    let mut opts = Options {
        program_path: String::new(),
        tables: Vec::new(),
        outputs: Vec::new(),
        plan: false,
        stats: false,
        trace: false,
        deadline_ms: None,
        cell_budget: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => opts
                .tables
                .push(it.next().ok_or("--table needs a file")?.clone()),
            "--out" => opts
                .outputs
                .push(it.next().ok_or("--out needs a table name")?.clone()),
            "--plan" => opts.plan = true,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a number")?;
                opts.deadline_ms = Some(v.parse().map_err(|_| format!("bad --deadline-ms {v:?}"))?);
            }
            "--cell-budget" => {
                let v = it.next().ok_or("--cell-budget needs a number")?;
                opts.cell_budget = Some(v.parse().map_err(|_| format!("bad --cell-budget {v:?}"))?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}\n{USAGE}")),
            _ if opts.program_path.is_empty() => opts.program_path = arg.clone(),
            _ => return Err(format!("unexpected argument {arg}\n{USAGE}")),
        }
    }
    if opts.program_path.is_empty() {
        return Err(format!("missing program file\n{USAGE}"));
    }
    Ok((command, opts))
}

fn load_database(paths: &[String]) -> Result<Database, String> {
    let mut db = Database::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let table = io::from_csv(&text).map_err(|e| format!("{path}: {e}"))?;
        db.insert(table);
    }
    Ok(db)
}

fn execute(command: &str, opts: &Options) -> Result<String, String> {
    let source = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("{}: {e}", opts.program_path))?;
    let mut program = parser::parse(&source).map_err(|e| e.to_string())?;

    if command == "fmt" {
        return Ok(pretty::render(&program));
    }
    if command != "run" {
        return Err(format!("unknown command {command:?}\n{USAGE}"));
    }

    let db = load_database(&opts.tables)?;
    let mut plan_section = String::new();
    if opts.plan {
        let (planned, report) = tables_paradigm::algebra::plan(&program, &db);
        program = planned;
        plan_section = format!("-- plan --\n{}", pretty::render_plan(&report));
    }
    let limits = EvalLimits {
        trace: if opts.trace {
            TraceLevel::Spans
        } else {
            TraceLevel::default()
        },
        ..EvalLimits::default()
    };
    let mut budget = Budget::from_limits(&limits);
    if let Some(ms) = opts.deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(cells) = opts.cell_budget {
        budget = budget.with_cell_budget(cells);
    }
    let (result, stats, trace) = match run_governed_traced(&program, &db, &budget) {
        Ok(parts) => parts,
        // A budget trip still reports the partial stats and trace it
        // carries — the graceful-degradation contract of the governor.
        Err(e @ AlgebraError::BudgetExceeded { .. }) => {
            let mut msg = e.to_string();
            let AlgebraError::BudgetExceeded { partial, .. } = e else {
                unreachable!("matched BudgetExceeded above");
            };
            msg.push('\n');
            msg.push_str(&plan_section);
            msg.push_str(&render_observability(opts, &partial.stats, &partial.trace));
            return Err(msg);
        }
        Err(e) => return Err(e.to_string()),
    };

    let mut out = String::new();
    let wanted: Vec<Symbol> = opts.outputs.iter().map(|n| Symbol::name(n)).collect();
    for t in result.tables() {
        let visible = if wanted.is_empty() {
            t.name()
                .text()
                .is_none_or(|text| !interner::is_reserved(text))
        } else {
            wanted.contains(&t.name())
        };
        if visible {
            out.push_str(&t.to_string());
            out.push('\n');
        }
    }
    out.push_str(&plan_section);
    out.push_str(&render_observability(opts, &stats, &trace));
    Ok(out)
}

/// The `--stats` / `--trace` sections, shared by the success path and
/// the partial report of a budget trip.
fn render_observability(opts: &Options, stats: &EvalStats, trace: &Trace) -> String {
    let mut out = String::new();
    if opts.stats {
        out.push_str("-- statistics --\n");
        for (op, micros, count) in stats.hottest() {
            out.push_str(&format!("{op:<15} {count:>6}× {micros:>10}µs\n"));
        }
        out.push_str(&format!(
            "while iterations: {}; tables produced: {}; peak table: {} cells\n",
            stats.while_iterations, stats.tables_produced, stats.max_table_cells
        ));
    }
    if opts.trace {
        out.push_str("-- trace --\n");
        out.push_str(&pretty::render_trace(trace));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|(cmd, opts)| execute(&cmd, &opts)) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("tabular: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tables_paradigm::core::fixtures;

    /// Write `contents` to a fresh file. Every call gets its own path
    /// (process id plus a per-process counter), so tests running in
    /// parallel never read a file another test is rewriting.
    fn write_temp(name: &str, contents: &str) -> String {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("tabular-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{}-{n}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    fn sales_csv() -> String {
        write_temp("sales.csv", &io::to_csv(&fixtures::sales_relation()))
    }

    #[test]
    fn run_executes_a_pivot_program() {
        let program = write_temp(
            "pivot.ta",
            "Cross <- GROUP[by {Region} on {Sold}](Sales)\n\
             Cross <- CLEANUP[by {Part} on {_}](Cross)\n\
             Cross <- PURGE[on {Sold} by {Region}](Cross)\n",
        );
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--out".into(),
            "Cross".into(),
        ])
        .unwrap();
        let out = execute(&cmd, &opts).unwrap();
        assert!(out.contains("Cross"));
        assert!(out.contains("east"));
        assert!(out.contains("nuts"));
        // Only the requested table is printed.
        assert!(!out.contains("| Sales"));
    }

    #[test]
    fn stats_flag_appends_statistics() {
        let program = write_temp("t.ta", "T <- TRANSPOSE(Sales)\n");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--stats".into(),
        ])
        .unwrap();
        let out = execute(&cmd, &opts).unwrap();
        assert!(out.contains("-- statistics --"));
        assert!(out.contains("TRANSPOSE"));
    }

    #[test]
    fn trace_flag_appends_explain_tree() {
        let program = write_temp(
            "trace.ta",
            "T <- TRANSPOSE(Sales)\n\
             while W do W <- DIFFERENCE(W, W) end\n",
        );
        let work = write_temp("work.csv", "W,A\n_,1\n");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--table".into(),
            work,
            "--trace".into(),
        ])
        .unwrap();
        let out = execute(&cmd, &opts).unwrap();
        assert!(out.contains("-- trace --"), "trace section:\n{out}");
        assert!(out.contains("TRANSPOSE matched="), "span line:\n{out}");
        assert!(out.contains("while #1"), "iteration line:\n{out}");
    }

    #[test]
    fn optimize_flag_is_rejected() {
        // `--plan` runs every rewrite rule; there is no separate
        // statistics-free optimizer flag.
        let err = parse_args(&["run".into(), "p.ta".into(), "--optimize".into()])
            .err()
            .expect("--optimize is not a flag");
        assert!(err.contains("unknown flag --optimize"), "{err}");
    }

    #[test]
    fn plan_flag_appends_plan_section() {
        // Textual programs name every intermediate, and the planner's
        // rewrites only touch single-read *scratch* intermediates (fusing
        // a visible table away would change the output database) — so an
        // honest plan report for this program is "no rewrites".
        let program = write_temp("plan.ta", "T <- TRANSPOSE(Sales)\n");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--plan".into(),
        ])
        .unwrap();
        assert!(opts.plan);
        let out = execute(&cmd, &opts).unwrap();
        assert!(out.contains("| T "), "planned program still runs:\n{out}");
        assert!(out.contains("-- plan --"), "plan section:\n{out}");
        assert!(out.contains("plan: no rewrites"), "report:\n{out}");
    }

    #[test]
    fn fmt_pretty_prints() {
        let program = write_temp("fmt.ta", "T<-GROUP[by {A} on {B}](R)");
        let (cmd, opts) = parse_args(&["fmt".into(), program]).unwrap();
        let out = execute(&cmd, &opts).unwrap();
        assert_eq!(out, "T <- GROUP[by A on B](R)\n");
    }

    #[test]
    fn cell_budget_trip_reports_partial_stats_and_trace() {
        // A diverging loop that keeps growing its work table: only the
        // governor stops it (well before max_while_iters).
        let program = write_temp("diverge.ta", "while W do W <- PRODUCT(W, Sales) end\n");
        let work = write_temp("seed.csv", "W,A\nx,1\n");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--table".into(),
            work,
            "--stats".into(),
            "--trace".into(),
            "--cell-budget".into(),
            "5000".into(),
        ])
        .unwrap();
        let err = execute(&cmd, &opts).unwrap_err();
        assert!(
            err.contains("run cell budget budget exceeded"),
            "error line:\n{err}"
        );
        assert!(err.contains("-- statistics --"), "partial stats:\n{err}");
        assert!(err.contains("-- trace --"), "partial trace:\n{err}");
        assert!(err.contains("← budget tripped"), "tripped mark:\n{err}");
    }

    #[test]
    fn deadline_flag_is_parsed_and_zero_trips_immediately() {
        let program = write_temp("t2.ta", "T <- TRANSPOSE(Sales)\n");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            program,
            "--table".into(),
            sales_csv(),
            "--deadline-ms".into(),
            "0".into(),
        ])
        .unwrap();
        assert_eq!(opts.deadline_ms, Some(0));
        let err = execute(&cmd, &opts).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        assert!(parse_args(&["run".into(), "p.ta".into(), "--cell-budget".into()]).is_err());
        assert!(parse_args(&[
            "run".into(),
            "p.ta".into(),
            "--deadline-ms".into(),
            "soon".into()
        ])
        .is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["run".into()]).is_err());
        let bad = write_temp("bad.ta", "T <- NOPE(R)");
        let (cmd, opts) = parse_args(&["run".into(), bad]).unwrap();
        assert!(execute(&cmd, &opts)
            .unwrap_err()
            .contains("unknown operation"));
        let good = write_temp("good.ta", "T <- COPY(R)");
        let (cmd, opts) = parse_args(&[
            "run".into(),
            good,
            "--table".into(),
            "/nonexistent.csv".into(),
        ])
        .unwrap();
        assert!(execute(&cmd, &opts).is_err());
    }
}
