//! `xtask` — offline workspace automation for RUSH. One subcommand:
//! `cargo xtask bench-gate --baseline A.json --candidate B.json`, the fig5
//! steady-state regression gate CI runs against the checked-in benchmark
//! numbers, plus its `--sharded` scaling-floor and `--capacity`
//! robustness modes. (Lint rules live in the crates they govern, as
//! clippy lint levels: `cargo clippy --workspace --all-targets -- -D warnings`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_gate;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  bench-gate --baseline A.json --candidate B.json [--jobs N] [--factor F]
                                fail if the candidate fig5 cached cost at
                                N jobs (default 200) exceeds F x baseline
                                (default 2.0)
  bench-gate --sharded --candidate B.json [--jobs N] [--shards S]
             [--min-speedup F]  fail if the candidate's S-shard point
                                (default 8) at N jobs (default 10000) is
                                not at least F x (default 3.0) faster
                                than its own 1-shard point
  bench-gate --capacity --candidate B.json
                                fail if, at the capacity ablation's
                                highest revocation rate, RUSH's
                                deadline-hit rate falls below the
                                deterministic delta=0 planner's (reads
                                the report's own gate object; the sim
                                is seeded, so the check is exact)

Exit codes: 0 = pass, 1 = regression, 2 = usage error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate_cmd(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn bench_gate_cmd(args: &[String]) -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut candidate: Option<PathBuf> = None;
    let mut sharded = false;
    let mut capacity = false;
    let mut jobs: Option<u64> = None;
    let mut shards: u64 = 8;
    let mut factor: f64 = 2.0;
    let mut min_speedup: f64 = 3.0;
    let mut i = 0usize;
    while i < args.len() {
        let take = |j: usize| args.get(j + 1).cloned();
        match args[i].as_str() {
            "--sharded" => sharded = true,
            "--capacity" => capacity = true,
            "--shards" => match take(i).and_then(|v| v.parse().ok()) {
                Some(s) => {
                    shards = s;
                    i += 1;
                }
                None => {
                    eprintln!("--shards needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--min-speedup" => match take(i).and_then(|v| v.parse().ok()) {
                Some(f) => {
                    min_speedup = f;
                    i += 1;
                }
                None => {
                    eprintln!("--min-speedup needs a number");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match take(i) {
                Some(p) => {
                    baseline = Some(PathBuf::from(p));
                    i += 1;
                }
                None => {
                    eprintln!("--baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--candidate" => match take(i) {
                Some(p) => {
                    candidate = Some(PathBuf::from(p));
                    i += 1;
                }
                None => {
                    eprintln!("--candidate needs a path");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match take(i).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    jobs = Some(n);
                    i += 1;
                }
                None => {
                    eprintln!("--jobs needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--factor" => match take(i).and_then(|v| v.parse().ok()) {
                Some(f) => {
                    factor = f;
                    i += 1;
                }
                None => {
                    eprintln!("--factor needs a number");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let read = |p: &PathBuf| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("cannot read {}: {e}", p.display());
            None
        }
    };
    if capacity {
        // Self-contained robustness check: the ablation report's own gate
        // object carries both hit rates, no baseline file involved.
        let Some(candidate) = candidate else {
            eprintln!("bench-gate --capacity needs --candidate");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        };
        let Some(cand_json) = read(&candidate) else {
            return ExitCode::from(2);
        };
        return match bench_gate::capacity_gate(&cand_json) {
            Ok(o) => {
                println!(
                    "bench-gate --capacity: at revocation rate {:.2} RUSH hits {:.4}, deterministic delta=0 hits {:.4} -> {}",
                    o.revocation_rate,
                    o.rush,
                    o.deterministic,
                    if o.pass { "PASS" } else { "FAIL" }
                );
                if o.pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("bench-gate --capacity: {e}");
                ExitCode::from(2)
            }
        };
    }
    if sharded {
        // Self-contained scaling check: the candidate's own 1-shard
        // point is the reference, no baseline file involved.
        let Some(candidate) = candidate else {
            eprintln!("bench-gate --sharded needs --candidate");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        };
        let Some(cand_json) = read(&candidate) else {
            return ExitCode::from(2);
        };
        let jobs = jobs.unwrap_or(10_000);
        return match bench_gate::shard_gate(&cand_json, jobs, shards, min_speedup) {
            Ok(o) => {
                println!(
                    "bench-gate --sharded: ns/event at {jobs} jobs: 1 shard {:.0}, {shards} shards {:.0} ({:.2}x speedup, floor {:.2}x) -> {}",
                    o.single,
                    o.sharded,
                    o.speedup,
                    min_speedup,
                    if o.pass { "PASS" } else { "FAIL" }
                );
                if o.pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("bench-gate --sharded: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (Some(baseline), Some(candidate)) = (baseline, candidate) else {
        eprintln!("bench-gate needs --baseline and --candidate");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let (Some(base_json), Some(cand_json)) = (read(&baseline), read(&candidate)) else {
        return ExitCode::from(2);
    };
    let jobs = jobs.unwrap_or(200);
    match bench_gate::gate(&base_json, &cand_json, jobs, factor) {
        Ok(o) => {
            println!(
                "bench-gate: cached ns/event at {jobs} jobs: baseline {:.0}, candidate {:.0} ({:.2}x, limit {:.2}x) -> {}",
                o.baseline,
                o.candidate,
                o.ratio,
                factor,
                if o.pass { "PASS" } else { "FAIL" }
            );
            if o.pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::from(2)
        }
    }
}
