//! `rush-benchmark` — the repo's one benchmark.
//!
//! Three ways in:
//!
//! * `rush-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload once and prints one JSON result line (the benchmark contract;
//!   see `BENCHMARK.json` at the repo root);
//! * `rush-benchmark run` runs every workload, untraced and traced, each in
//!   a fresh child process, prints every metric and writes a stamped result
//!   file;
//! * `rush-benchmark compare A.json B.json` applies the bounds of
//!   `BENCHMARK.json` to two such files.
//!
//! See `benchmark/README.md`.

mod driver;
mod metrics;
mod opstream;
mod phases;
mod procstat;
mod report;
mod serve_wl;
mod sim_wl;
mod stats;
mod trace;

use metrics::Outcome;
use serve_wl::ServeSpec;
use sim_wl::SimSpec;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where traced runs write their span files (git-ignored).
const TRACE_DIR: &str = "benchmark/out";

/// Seconds a run measures for unless told otherwise — the `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// The workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "serve_open_large",
    "serve_closed_large",
    "serve_closed_reads",
    "sim_rush",
];

/// One workload run, as asked for on the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Traced (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// Shrunk sizing for smoke runs; numbers are not comparable.
    pub quick: bool,
}

/// Runs one workload in this process.
fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let trace_path = PathBuf::from(TRACE_DIR).join(format!("{}.trace.json", args.workload));
    if args.workload == "sim_rush" {
        let spec = if args.quick {
            SimSpec::QUICK
        } else {
            SimSpec::FULL
        };
        return sim_wl::run(spec, args.seed, args.seconds, args.traced, &trace_path);
    }
    let spec = ServeSpec::FULL
        .into_iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?} (expected one of {WORKLOADS:?})",
                args.workload
            )
        })?;
    let spec = if args.quick { spec.quick() } else { spec };
    if args.traced {
        serve_wl::run_traced(&spec, args.seed, args.seconds, &trace_path)
    } else {
        let populations = if args.quick { 1 } else { serve_wl::POPULATIONS };
        serve_wl::run_plain(&spec, args.seed, args.seconds, populations)
    }
}

/// `--key value` pairs and bare `--switch`es after the subcommand.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> (Flags, Vec<String>) {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next_if(|next| !next.starts_with("--")).cloned();
                    flags.push((key.to_string(), value));
                }
                None => positional.push(arg.clone()),
            }
        }
        (Flags(flags), positional)
    }

    pub fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {text:?}")),
        }
    }
}

const USAGE: &str = "usage:
  rush-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  rush-benchmark run [--seed N] [--seconds S] [--runs N] [--workload NAME] [--out FILE] [--quick]
  rush-benchmark compare A.json B.json [--bench BENCHMARK.json]";

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", args.get(1..).unwrap_or(&[])),
        Some("compare") => ("compare", args.get(1..).unwrap_or(&[])),
        Some(flag) if flag.starts_with("--") => ("single", args.as_slice()),
        _ => return Err(USAGE.to_string()),
    };
    let (flags, positional) = Flags::parse(rest);
    match command {
        "single" => {
            let run = RunArgs {
                workload: flags.value("workload").ok_or(USAGE)?.to_string(),
                seed: flags.number("seed", 1)?,
                seconds: flags.number("seconds", RUN_SECONDS as f64)?,
                traced: flags.number::<u8>("trace", 0)? != 0,
                quick: flags.has("quick"),
            };
            let outcome = run_workload(&run)?;
            for note in &outcome.notes {
                eprintln!("{}: {note}", run.workload);
            }
            report::print_time_table(&run.workload, &outcome);
            println!("{}", outcome.result_line(run.traced));
            Ok(ExitCode::SUCCESS)
        }
        "run" => report::run_all(&flags),
        _ => {
            let [a, b] = positional.as_slice() else {
                return Err(USAGE.to_string());
            };
            report::compare(a, b, flags.value("bench").unwrap_or("BENCHMARK.json"))
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("rush-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
