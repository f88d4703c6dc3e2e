//! `rushd` — the RUSH scheduling daemon.
//!
//! ```text
//! rushd [--addr 127.0.0.1:4117] [--capacity 16] [--shards 1]
//!       [--reactors 1] [--epoch-ms 25] [--batch 32] [--ms-per-slot 1000]
//!       [--snapshot PATH] [--theta 0.9] [--delta 0.7]
//! ```
//!
//! Connections are served on `--reactors N` nonblocking epoll event loops
//! (Linux only), each speaking JSON and the negotiated binary codec.
//!
//! An epoch closes as soon as the planner is free; `--epoch-ms` is the
//! longest a submission waits for its epoch (it only fires when requests
//! never stop arriving), `--batch` the most submissions one epoch takes.
//!
//! Prints `rushd listening on ADDR` once the socket is bound, then serves
//! until a client sends the `shutdown` op, prints `rushd: served N
//! submissions …` and exits 0. When `--snapshot` is given, an existing
//! snapshot is restored on startup and a new one is written on graceful
//! shutdown. An unknown flag or a value that does not parse exits 2 with
//! the usage line; a configuration the daemon refuses exits 1.

use rush_serve::server::{serve, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"))
}

fn parse_flags(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig { addr: "127.0.0.1:4117".into(), ..ServeConfig::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = take(&mut it, flag)?,
            "--capacity" => {
                cfg.capacity =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--capacity: {e}"))?;
            }
            "--shards" => {
                cfg.shards =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--epoch-ms" => {
                cfg.epoch_ms =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--epoch-ms: {e}"))?;
            }
            "--batch" => {
                cfg.epoch_max_batch =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--batch: {e}"))?;
            }
            "--ms-per-slot" => {
                cfg.ms_per_slot =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--ms-per-slot: {e}"))?;
            }
            "--reactors" => {
                cfg.reactors =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--reactors: {e}"))?;
            }
            "--snapshot" => cfg.snapshot_path = Some(PathBuf::from(take(&mut it, flag)?)),
            "--theta" => {
                cfg.rush.theta =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--theta: {e}"))?;
            }
            "--delta" => {
                cfg.rush.delta =
                    take(&mut it, flag)?.parse().map_err(|e| format!("--delta: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(cfg)
}

const USAGE: &str = "usage: rushd [--addr A] [--capacity N] [--shards N] [--reactors N] \
                     [--epoch-ms T] [--batch N] [--ms-per-slot T] [--snapshot PATH] \
                     [--theta F] [--delta F]\n\
                     --epoch-ms T: the longest (ms) a submission waits for its epoch, \
                     which closes sooner, as soon as the planner is free";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_flags(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rushd: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("rushd listening on {}", handle.local_addr());
    match handle.join() {
        Ok(waits) => {
            println!(
                "rushd: served {} submissions (p50 wait {} us, p99 {} us); bye",
                waits.count(),
                waits.quantile(0.5),
                waits.quantile(0.99)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rushd: {e}");
            ExitCode::FAILURE
        }
    }
}
