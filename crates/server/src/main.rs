//! `tabular-serve` — the tabular algebra query service.
//!
//! ```sh
//! tabular-serve [--addr <host:port>] [--default-deadline-ms <N>]
//!               [--default-cell-budget <N>] [--workers <N>]
//! ```
//!
//! `--default-deadline-ms` and `--default-cell-budget` set the
//! admission-control defaults applied to every query request; clients
//! may override per request with `?deadline_ms=` / `?cell_budget=`.
//! `--workers` sizes the service's one executor, which runs requests and
//! their fan-out (default: auto from the available parallelism).

use std::process::ExitCode;

use tabular_server::{Config, Server};

const USAGE: &str = "usage: tabular-serve [--addr <host:port>] \
[--default-deadline-ms <N>] [--default-cell-budget <N>] [--workers <N>]\n\
\n\
--addr <host:port>          listen address (default 127.0.0.1:7878)\n\
--default-deadline-ms <N>   admission default: per-request wall-clock deadline\n\
--default-cell-budget <N>   admission default: per-request cumulative cell budget\n\
--workers <N>               executor threads: run requests and their fan-out (default: auto)\n\
Clients override per request with ?deadline_ms= / ?cell_budget= on\n\
POST /sessions/{id}/query.";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs an address")?.clone();
            }
            "--default-deadline-ms" => {
                let v = it.next().ok_or("--default-deadline-ms needs a number")?;
                config.default_deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --default-deadline-ms {v:?}"))?,
                );
            }
            "--default-cell-budget" => {
                let v = it.next().ok_or("--default-cell-budget needs a number")?;
                config.default_cell_budget = Some(
                    v.parse()
                        .map_err(|_| format!("bad --default-cell-budget {v:?}"))?,
                );
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a number")?;
                config.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            _ => return Err(format!("unknown flag {arg}\n{USAGE}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("tabular-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tabular-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("tabular-serve listening on {addr}"),
        Err(_) => eprintln!("tabular-serve listening"),
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tabular-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse() {
        let config = parse_args(&[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--default-deadline-ms".into(),
            "250".into(),
            "--default-cell-budget".into(),
            "100000".into(),
            "--workers".into(),
            "8".into(),
        ])
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.default_deadline_ms, Some(250));
        assert_eq!(config.default_cell_budget, Some(100_000));
        assert_eq!(config.workers, 8);
        assert_eq!(Config::default().workers, 0, "0 means auto-size");
        assert!(parse_args(&["--addr".into()]).is_err());
        assert!(parse_args(&["--default-deadline-ms".into(), "soon".into()]).is_err());
        assert!(parse_args(&["--workers".into(), "many".into()]).is_err());
        assert!(parse_args(&["--nope".into()]).is_err());
    }
}
