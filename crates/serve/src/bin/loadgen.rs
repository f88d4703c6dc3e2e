//! `rush-loadgen` — open-loop Poisson load generator for `rushd`.
//!
//! ```text
//! rush-loadgen --addr 127.0.0.1:4117 [--jobs 100] [--connections 8]
//!              [--binary] [--mean-ms 10] [--seed 7] [--epoch-ms 25]
//!              [--out PATH] [--append] [--quick] [--shutdown]
//! ```
//!
//! One thread multiplexes `--connections N` (≥ 1) concurrent nonblocking
//! connections. `--binary` negotiates the length-prefixed `RUSH1` codec.
//! `--out PATH` writes the JSON report; `--append` merges the run into an
//! existing one (for sweeps).
//!
//! Exits non-zero when any frame draws a protocol error, so CI's
//! serve-smoke step fails loudly on wire regressions.

use rush_serve::loadgen::{run, LoadgenConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rush-loadgen --addr A [--jobs N] [--connections N] [--binary] \
                     [--mean-ms F] [--seed N] [--epoch-ms T] [--out PATH] [--append] \
                     [--quick] [--shutdown]";

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"))
}

fn parse_flags(args: &[String]) -> Result<LoadgenConfig, String> {
    let mut cfg = LoadgenConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = take(&mut it, flag)?,
            "--jobs" => {
                cfg.jobs = take(&mut it, flag)?.parse().map_err(|e| format!("--jobs: {e}"))?;
            }
            "--mean-ms" => {
                cfg.mean_interarrival_ms =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--mean-ms: {e}"))?;
            }
            "--seed" => {
                cfg.seed = take(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--epoch-ms" => {
                cfg.epoch_ms =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--epoch-ms: {e}"))?;
            }
            "--connections" => {
                cfg.connections =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--binary" => cfg.binary = true,
            "--out" => cfg.out = Some(PathBuf::from(take(&mut it, flag)?)),
            "--append" => cfg.append = true,
            "--quick" => {
                let quick = LoadgenConfig::quick(cfg.addr.clone(), cfg.epoch_ms);
                cfg.jobs = quick.jobs;
                cfg.connections = quick.connections;
                cfg.mean_interarrival_ms = quick.mean_interarrival_ms;
            }
            "--shutdown" => cfg.shutdown = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_flags(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.summary(&cfg));
            if report.protocol_errors > 0 {
                eprintln!("loadgen: {} protocol errors", report.protocol_errors);
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
