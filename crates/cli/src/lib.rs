//! Implementation of the `rush-cli` command-line tool.
//!
//! Subcommands:
//!
//! * `workload` — generate a PUMA-style workload and print/save it in the
//!   portable text format.
//! * `compare`  — run a workload (generated or loaded) under a set of
//!   schedulers and print the comparison table.
//! * `gantt`    — run one scheduler with tracing and print an ASCII Gantt
//!   chart of container usage.
//! * `serve`    — run the `rushd` scheduling daemon in the foreground.
//! * `loadgen`  — drive a running daemon with an open-loop Poisson load.
//!
//! All parsing is hand-rolled (`--key value` flags) so the binary carries
//! no extra dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use rush_core::RushConfig;
use rush_metrics::gantt::{utilization, Gantt, GanttSpan};
use rush_planner::RushScheduler;
use rush_metrics::table::{fmt_f64, Table};
use rush_prob::stats::FiveNumber;
use rush_sched::{Edf, Fair, Fifo, Rrh, Speculative};
use rush_sim::cluster::ClusterSpec;
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::JobSpec;
use rush_sim::perturb::Interference;
use rush_sim::trace::TraceEvent;
use rush_sim::Scheduler;
use rush_workload::persist;
use rush_workload::{generate, Experiment, WorkloadConfig};
use std::collections::HashMap;

/// Parsed command line: subcommand + `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// The subcommand name.
    pub command: String,
    /// Flag map.
    pub flags: HashMap<String, String>,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a usage message when no subcommand is given or a flag is
/// missing its value.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(usage)?.clone();
    if command.starts_with("--") {
        return Err(usage());
    }
    let mut flags = HashMap::new();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--").ok_or(format!("unexpected argument {a}"))?;
        let value = it.next().ok_or(format!("flag --{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(Cli { command, flags })
}

/// The usage string.
pub fn usage() -> String {
    "usage: rush-cli <command> [--flag value]...\n\
     commands:\n\
       workload  --jobs N --ratio R --seed S [--interarrival T] [--out FILE]\n\
       compare   --jobs N --ratio R --seed S [--interarrival T] [--load FILE]\n\
                 [--schedulers rush,fifo,edf,rrh,fair,spec-edf]\n\
       gantt     --scheduler NAME --jobs N --seed S [--width W]\n\
       dashboard --jobs N --seed S [--at SLOT]\n\
       serve     [--addr A] [--capacity N] [--shards N] [--epoch-ms T]\n\
                 [--reactors N] [--batch N] [--ms-per-slot T]\n\
                 [--snapshot FILE] [--theta F] [--delta F]\n\
       loadgen   --addr A [--jobs N] [--connections N] [--binary true]\n\
                 [--mean-ms F] [--seed S] [--epoch-ms T] [--out FILE]\n\
                 [--append true] [--shutdown true]\n"
        .to_owned()
}

/// The value of `--key`, or `default` when the flag is absent. A value
/// that does not parse is an error naming the flag, never the default.
fn flag<T: std::str::FromStr>(cli: &Cli, key: &str, default: T) -> Result<T, String> {
    match cli.flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

fn experiment(seed: u64) -> Experiment {
    Experiment::new(ClusterSpec::paper_testbed(8).expect("static cluster"))
        .with_interference(Interference::LogNormal { cv: 0.25 })
        .with_sim_seed(seed)
}

fn build_workload(cli: &Cli) -> Result<(Experiment, Vec<JobSpec>), String> {
    let seed: u64 = flag(cli, "seed", 1)?;
    let exp = experiment(seed);
    if let Some(path) = cli.flags.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let jobs = persist::from_text(&text).map_err(|e| e.to_string())?;
        return Ok((exp, jobs));
    }
    let cfg = WorkloadConfig {
        jobs: flag(cli, "jobs", 40)?,
        budget_ratio: flag(cli, "ratio", 1.5)?,
        mean_interarrival: flag(cli, "interarrival", 45.0)?,
        seed,
        ..Default::default()
    };
    let jobs = generate(&cfg, &exp).map_err(|e| e.to_string())?;
    Ok((exp, jobs))
}

fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "rush" => Box::new(RushScheduler::new(RushConfig::default())),
        "cora" => Box::new(RushScheduler::cora()),
        "fifo" => Box::new(Fifo::new()),
        "edf" => Box::new(Edf::new()),
        "rrh" => Box::new(Rrh::new()),
        "fair" => Box::new(Fair::new()),
        "spec-edf" => Box::new(Speculative::new(Edf::new(), 1.5)),
        "spec-fifo" => Box::new(Speculative::new(Fifo::new(), 1.5)),
        other => return Err(format!("unknown scheduler {other}")),
    })
}

/// `workload` subcommand: generate and print/save.
///
/// # Errors
///
/// Propagates generation and I/O failures as strings.
pub fn cmd_workload(cli: &Cli) -> Result<String, String> {
    let (_, jobs) = build_workload(cli)?;
    let text = persist::to_text(&jobs);
    if let Some(path) = cli.flags.get("out") {
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
        Ok(format!("wrote {} jobs to {path}\n", jobs.len()))
    } else {
        Ok(text)
    }
}

/// `compare` subcommand: run schedulers and print the table.
///
/// # Errors
///
/// Propagates workload and simulation failures as strings.
pub fn cmd_compare(cli: &Cli) -> Result<String, String> {
    let (exp, jobs) = build_workload(cli)?;
    let names: Vec<String> = cli
        .flags
        .get("schedulers")
        .map(|s| s.split(',').map(str::to_owned).collect())
        .unwrap_or_else(|| {
            vec!["rush".into(), "fifo".into(), "edf".into(), "rrh".into()]
        });
    let mut t = Table::new([
        "scheduler", "mean_util", "zero_util", "median_lat", "q3_lat", "met", "makespan",
    ]);
    for name in names {
        let mut sched = scheduler_by_name(&name)?;
        let r = exp.run(jobs.clone(), sched.as_mut()).map_err(|e| e.to_string())?;
        let utils = r.utility_vector();
        let lat: Vec<f64> = r.time_aware_outcomes().filter_map(|o| o.latency()).collect();
        let met = lat.iter().filter(|&&l| l <= 0.0).count();
        let s = FiveNumber::from_samples(&lat);
        t.row([
            name,
            fmt_f64(utils.iter().sum::<f64>() / utils.len() as f64, 3),
            fmt_f64(r.zero_utility_fraction(1e-3), 3),
            fmt_f64(s.median, 1),
            fmt_f64(s.q3, 1),
            format!("{}/{}", met, lat.len()),
            r.makespan.to_string(),
        ]);
    }
    Ok(t.render())
}

/// `gantt` subcommand: run one scheduler with tracing and render the chart.
///
/// # Errors
///
/// Propagates workload and simulation failures as strings.
pub fn cmd_gantt(cli: &Cli) -> Result<String, String> {
    let (exp, jobs) = build_workload(cli)?;
    let name = cli.flags.get("scheduler").cloned().unwrap_or_else(|| "rush".into());
    let width: usize = flag(cli, "width", 100)?;
    let mut sched = scheduler_by_name(&name)?;
    let capacity = exp.cluster().capacity();
    let sim_cfg = SimConfig::new(exp.cluster().clone())
        .with_interference(exp.interference().clone())
        .with_trace(true)
        .with_max_slots(10_000_000);
    let r = Simulation::new(sim_cfg, jobs)
        .map_err(|e| e.to_string())?
        .run(sched.as_mut())
        .map_err(|e| e.to_string())?;
    let trace = r.trace.expect("tracing enabled");
    let mut g = Gantt::new();
    let mut spans = Vec::new();
    for e in trace.events() {
        if let TraceEvent::TaskStarted { job, container, at, duration, .. }
        | TraceEvent::TaskSpeculated { job, container, at, duration, .. } = *e
        {
            let span = GanttSpan {
                container,
                start: at,
                duration,
                label: (b'a' + (job.0 % 26) as u8) as char,
            };
            g.span(span);
            spans.push(span);
        }
    }
    let mut out = format!("{name} on {capacity} containers\n");
    out.push_str(&g.render(width));
    out.push_str(&format!("utilization: {:.0}%\n", utilization(&spans, capacity) * 100.0));
    Ok(out)
}

/// `dashboard` subcommand: one CA pass over a snapshot of the workload at
/// slot `--at` (jobs arrived by then, progress approximated from elapsed
/// time), rendered as the paper's Fig. 2 monitoring table.
///
/// The snapshot is replayed into the shared planner kernel
/// ([`rush_planner::PlannerCore`]) as a typed event stream — one arrival
/// per job (kernel ids ascend in arrival order, which is the planning
/// order), one sample per approximated completed task, then a `Tick` at
/// the snapshot slot — so the CLI exercises exactly the state machine the
/// daemon and simulator adapter run.
///
/// # Errors
///
/// Propagates workload and planning failures as strings.
pub fn cmd_dashboard(cli: &Cli) -> Result<String, String> {
    use rush_core::plan::render_dashboard;
    use rush_planner::{EventOutcome, PlannerCore, PlannerEvent};
    let (exp, jobs) = build_workload(cli)?;
    let at: u64 = flag(cli, "at", 120)?;
    let arrived: Vec<&JobSpec> = jobs.iter().filter(|j| j.arrival() <= at).collect();
    if arrived.is_empty() {
        return Ok(format!("no jobs arrived by slot {at}\n"));
    }
    let capacity = exp.cluster().capacity();
    let mut kernel = PlannerCore::new(RushConfig::default(), capacity)
        .map_err(|e| e.to_string())?
        .with_retirement(false);
    // Approximate progress: assume tasks completed in arrival order at the
    // template's mean rate on a fair share of the cluster.
    let share = (capacity as usize / arrived.len()).max(1);
    for j in &arrived {
        let mean_rt = (j.total_base_runtime() / j.tasks().len() as f64).max(1.0);
        let age = at.saturating_sub(j.arrival());
        let done = ((age as f64 / mean_rt) * share as f64) as usize;
        let done = done.min(j.tasks().len().saturating_sub(1));
        let outcome = kernel
            .apply(PlannerEvent::JobArrival {
                id: None,
                spec: rush_planner::JobSpec {
                    label: j.label().to_owned(),
                    utility: *j.utility(),
                    tasks: j.tasks().len() as u64,
                    arrived_slot: j.arrival(),
                    runtime_hint: None,
                    parked: false,
                },
            })
            .map_err(|e| e.to_string())?;
        let EventOutcome::Arrived { job } = outcome else {
            return Err(format!("unexpected arrival outcome {outcome:?}"));
        };
        for t in &j.tasks()[..done] {
            kernel
                .apply(PlannerEvent::TaskSample {
                    job,
                    runtime: t.base_runtime().round() as u64,
                })
                .map_err(|e| e.to_string())?;
        }
    }
    kernel.apply(PlannerEvent::Tick { now_slot: at }).map_err(|e| e.to_string())?;
    let labels: Vec<&str> = arrived.iter().map(|j| j.label()).collect();
    Ok(format!(
        "RUSH plan at slot {at} ({} active jobs)\n{}",
        arrived.len(),
        render_dashboard(kernel.plan(), &labels)
    ))
}

/// Builds a daemon config from `serve` subcommand flags.
///
/// # Errors
///
/// Returns a message when a numeric flag fails to parse.
pub fn serve_config(cli: &Cli) -> Result<rush_serve::ServeConfig, String> {
    let mut cfg = rush_serve::ServeConfig {
        addr: cli.flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:4117".into()),
        ..rush_serve::ServeConfig::default()
    };
    cfg.capacity = flag(cli, "capacity", cfg.capacity)?;
    cfg.epoch_ms = flag(cli, "epoch-ms", cfg.epoch_ms)?;
    cfg.epoch_max_batch = flag(cli, "batch", cfg.epoch_max_batch)?;
    cfg.ms_per_slot = flag(cli, "ms-per-slot", cfg.ms_per_slot)?;
    cfg.shards = flag(cli, "shards", cfg.shards)?;
    cfg.reactors = flag(cli, "reactors", cfg.reactors)?;
    cfg.snapshot_path = cli.flags.get("snapshot").map(std::path::PathBuf::from);
    cfg.rush.theta = flag(cli, "theta", cfg.rush.theta)?;
    cfg.rush.delta = flag(cli, "delta", cfg.rush.delta)?;
    Ok(cfg)
}

/// `serve` subcommand: run the daemon in the foreground until a client
/// sends the `shutdown` op, then report submit-wait quantiles.
///
/// # Errors
///
/// Propagates bind/snapshot failures as strings.
pub fn cmd_serve(cli: &Cli) -> Result<String, String> {
    let cfg = serve_config(cli)?;
    let handle = rush_serve::serve(cfg).map_err(|e| e.to_string())?;
    println!("rushd listening on {}", handle.local_addr());
    let waits = handle.join().map_err(|e| e.to_string())?;
    Ok(format!(
        "served {} submissions (p50 wait {} us, p99 {} us)\n",
        waits.count(),
        waits.quantile(0.5),
        waits.quantile(0.99)
    ))
}

/// Builds a load-generator config from `loadgen` subcommand flags.
///
/// # Errors
///
/// Returns a message when a numeric flag fails to parse.
pub fn loadgen_config(cli: &Cli) -> Result<rush_serve::loadgen::LoadgenConfig, String> {
    Ok(rush_serve::loadgen::LoadgenConfig {
        addr: cli.flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:4117".into()),
        jobs: flag(cli, "jobs", 100)?,
        connections: flag(cli, "connections", 8)?,
        binary: flag(cli, "binary", false)?,
        mean_interarrival_ms: flag(cli, "mean-ms", 10.0)?,
        seed: flag(cli, "seed", 7)?,
        epoch_ms: flag(cli, "epoch-ms", 25)?,
        report_samples: flag(cli, "report-samples", true)?,
        shutdown: flag(cli, "shutdown", false)?,
        append: flag(cli, "append", false)?,
        out: cli.flags.get("out").map(std::path::PathBuf::from),
    })
}

/// `loadgen` subcommand: drive a running daemon and summarize latency.
///
/// # Errors
///
/// Propagates connection and protocol failures as strings.
pub fn cmd_loadgen(cli: &Cli) -> Result<String, String> {
    let cfg = loadgen_config(cli)?;
    let report = rush_serve::loadgen::run(&cfg).map_err(|e| e.to_string())?;
    if report.protocol_errors > 0 {
        return Err(format!("loadgen hit {} protocol errors", report.protocol_errors));
    }
    Ok(format!(
        "loadgen: {} submitted over {} conns ({}), {} admitted, {} deferred, {} rejected; \
         p50 {} us, p99 {} us, p999 {} us; {:.0} sub/s; \
         {:.1}% within epoch deadline; {} epochs\n",
        report.submitted,
        cfg.connections,
        cfg.codec(),
        report.admitted,
        report.deferred,
        report.rejected,
        report.client_latency_us.quantile(0.5),
        report.client_latency_us.quantile(0.99),
        report.client_latency_us.quantile(0.999),
        report.submissions_per_sec(),
        100.0 * report.within_deadline_frac(),
        report.epochs,
    ))
}

/// Dispatches a parsed CLI to its subcommand.
///
/// # Errors
///
/// Returns the usage string for unknown commands and propagates subcommand
/// failures.
pub fn run(cli: &Cli) -> Result<String, String> {
    match cli.command.as_str() {
        "workload" => cmd_workload(cli),
        "compare" => cmd_compare(cli),
        "gantt" => cmd_gantt(cli),
        "dashboard" => cmd_dashboard(cli),
        "serve" => cmd_serve(cli),
        "loadgen" => cmd_loadgen(cli),
        _ => Err(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(cmd: &str, flags: &[(&str, &str)]) -> Cli {
        Cli {
            command: cmd.into(),
            flags: flags.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        }
    }

    #[test]
    fn parse_happy_path() {
        let args: Vec<String> =
            ["compare", "--jobs", "10", "--seed", "3"].iter().map(|s| s.to_string()).collect();
        let c = parse(&args).unwrap();
        assert_eq!(c.command, "compare");
        assert_eq!(c.flags.get("jobs").unwrap(), "10");
        assert_eq!(c.flags.get("seed").unwrap(), "3");
    }

    #[test]
    fn parse_rejects_missing_command_and_values() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--jobs".into()]).is_err());
        let args: Vec<String> = ["compare", "--jobs"].iter().map(|s| s.to_string()).collect();
        assert!(parse(&args).is_err());
        let args: Vec<String> = ["compare", "jobs", "3"].iter().map(|s| s.to_string()).collect();
        assert!(parse(&args).is_err());
    }

    #[test]
    fn unknown_command_yields_usage() {
        let err = run(&cli("frobnicate", &[])).unwrap_err();
        assert!(err.contains("usage:"));
    }

    #[test]
    fn workload_prints_portable_text() {
        let out = cmd_workload(&cli(
            "workload",
            &[("jobs", "4"), ("seed", "2"), ("interarrival", "100")],
        ))
        .unwrap();
        assert!(out.starts_with("# rush workload v1"));
        let jobs = persist::from_text(&out).unwrap();
        assert_eq!(jobs.len(), 4);
    }

    #[test]
    fn compare_renders_requested_schedulers() {
        let out = cmd_compare(&cli(
            "compare",
            &[("jobs", "5"), ("seed", "2"), ("schedulers", "fifo,edf"), ("interarrival", "120")],
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        assert!(out.contains("edf"));
        assert!(!out.contains("rush\n"));
    }

    #[test]
    fn compare_rejects_unknown_scheduler() {
        let err = cmd_compare(&cli(
            "compare",
            &[("jobs", "3"), ("schedulers", "quantum"), ("interarrival", "200")],
        ))
        .unwrap_err();
        assert!(err.contains("unknown scheduler"));
    }

    #[test]
    fn gantt_renders_rows() {
        let out = cmd_gantt(&cli(
            "gantt",
            &[("jobs", "3"), ("seed", "2"), ("scheduler", "fifo"), ("width", "40"), ("interarrival", "150")],
        ))
        .unwrap();
        assert!(out.contains("fifo on 48 containers"));
        assert!(out.contains("c0"));
        assert!(out.contains("utilization:"));
    }

    #[test]
    fn dashboard_renders_projection_table() {
        let out = cmd_dashboard(&cli(
            "dashboard",
            &[("jobs", "6"), ("seed", "3"), ("at", "900"), ("interarrival", "60")],
        ))
        .unwrap();
        assert!(out.contains("RUSH plan at slot 900"));
        assert!(out.contains("proj_done"));
        // Nothing arrived yet at slot 0.
        let out = cmd_dashboard(&cli(
            "dashboard",
            &[("jobs", "3"), ("seed", "3"), ("at", "0"), ("interarrival", "500")],
        ))
        .unwrap();
        assert!(out.contains("no jobs arrived"));
    }

    #[test]
    fn serve_config_parses_flags_and_defaults() {
        let cfg = serve_config(&cli(
            "serve",
            &[("capacity", "4"), ("epoch-ms", "7"), ("batch", "3"), ("theta", "0.8")],
        ))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:4117");
        assert_eq!(cfg.capacity, 4);
        assert_eq!(cfg.epoch_ms, 7);
        assert_eq!(cfg.epoch_max_batch, 3);
        assert!((cfg.rush.theta - 0.8).abs() < 1e-12);
        assert!(cfg.snapshot_path.is_none());
    }

    #[test]
    fn loadgen_config_parses_flags_and_defaults() {
        let cfg = loadgen_config(&cli(
            "loadgen",
            &[("addr", "127.0.0.1:9"), ("jobs", "5"), ("shutdown", "true")],
        ))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:9");
        assert_eq!(cfg.jobs, 5);
        assert_eq!(cfg.connections, 8);
        assert!(!cfg.binary);
        assert!(cfg.shutdown);
        assert!(!cfg.append);
        assert!(cfg.out.is_none());

        let cfg = loadgen_config(&cli(
            "loadgen",
            &[
                ("connections", "64"),
                ("binary", "true"),
                ("append", "true"),
            ],
        ))
        .unwrap();
        assert_eq!(cfg.connections, 64);
        assert!(cfg.binary);
        assert!(cfg.append);
        assert_eq!(cfg.codec(), "binary");
    }

    #[test]
    fn serve_rejects_malformed_flag_values() {
        let err = serve_config(&cli("serve", &[("capacity", "4O96")])).unwrap_err();
        assert!(err.contains("--capacity") && err.contains("4O96"), "{err}");
        let err = serve_config(&cli("serve", &[("epoch-ms", "5ms")])).unwrap_err();
        assert!(err.contains("--epoch-ms"), "{err}");
        // Absent flags still take the daemon's defaults.
        let defaults = rush_serve::ServeConfig::default();
        let cfg = serve_config(&cli("serve", &[])).unwrap();
        assert_eq!((cfg.capacity, cfg.epoch_ms), (defaults.capacity, defaults.epoch_ms));
    }

    #[test]
    fn loadgen_rejects_malformed_flag_values() {
        let err = loadgen_config(&cli("loadgen", &[("jobs", "1e3")])).unwrap_err();
        assert!(err.contains("--jobs") && err.contains("1e3"), "{err}");
        let err = cmd_loadgen(&cli("loadgen", &[("shutdown", "yes")])).unwrap_err();
        assert!(err.contains("--shutdown"), "{err}");
        let cfg = loadgen_config(&cli("loadgen", &[])).unwrap();
        assert_eq!((cfg.jobs, cfg.epoch_ms, cfg.shutdown), (100, 25, false));
    }

    #[test]
    fn compare_rejects_malformed_flag_values() {
        let err = cmd_compare(&cli("compare", &[("jobs", "3x"), ("schedulers", "fifo")]))
            .unwrap_err();
        assert!(err.contains("--jobs") && err.contains("3x"), "{err}");
        let err = cmd_compare(&cli("compare", &[("ratio", "1,5")])).unwrap_err();
        assert!(err.contains("--ratio"), "{err}");
        // Absent flags still generate the default 40-job workload.
        let (_, jobs) = build_workload(&cli("compare", &[])).unwrap();
        assert_eq!(jobs.len(), 40);
    }

    #[test]
    fn frontend_is_not_a_flag() {
        // There is one frontend and nothing selects it: `--frontend` is
        // ignored like every flag the subcommand does not know.
        let cfg = serve_config(&cli("serve", &[("frontend", "threads"), ("reactors", "2")])).unwrap();
        assert_eq!(cfg.frontend, rush_serve::Frontend::Reactor);
        assert_eq!(cfg.reactors, 2);
        assert!(!usage().contains("--frontend"));
        assert!(!usage().contains("--workers"));
    }

    #[test]
    fn loadgen_refuses_zero_connections() {
        let err = cmd_loadgen(&cli("loadgen", &[("connections", "0")])).unwrap_err();
        assert!(err.contains("connections must be >= 1"), "{err}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loadgen_drives_a_live_daemon_over_the_binary_codec() {
        let handle = rush_serve::serve(rush_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..serve_config(&cli("serve", &[("epoch-ms", "5")])).unwrap()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();
        let out = cmd_loadgen(&cli(
            "loadgen",
            &[
                ("addr", &addr),
                ("jobs", "8"),
                ("connections", "4"),
                ("binary", "true"),
                ("mean-ms", "2"),
                ("epoch-ms", "5"),
                ("shutdown", "true"),
            ],
        ))
        .unwrap();
        assert!(out.contains("8 submitted"), "{out}");
        assert!(out.contains("4 conns (binary)"), "{out}");
        let waits = handle.join().unwrap();
        assert_eq!(waits.count(), 8);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loadgen_drives_a_live_daemon_to_shutdown() {
        // serve+loadgen end to end through the CLI layer: bind on an
        // ephemeral port, point loadgen at it with --shutdown, and check
        // both summaries.
        let handle = rush_serve::serve(rush_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..serve_config(&cli("serve", &[("epoch-ms", "5")])).unwrap()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();
        let out = cmd_loadgen(&cli(
            "loadgen",
            &[
                ("addr", &addr),
                ("jobs", "6"),
                ("connections", "2"),
                ("mean-ms", "2"),
                ("epoch-ms", "5"),
                ("shutdown", "true"),
            ],
        ))
        .unwrap();
        assert!(out.contains("6 submitted"), "{out}");
        assert!(out.contains("within epoch deadline"), "{out}");
        let waits = handle.join().unwrap();
        assert_eq!(waits.count(), 6);
    }

    #[test]
    fn workload_round_trips_through_load() {
        let dir = std::env::temp_dir().join("rush-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.txt");
        let path_s = path.to_string_lossy().into_owned();
        cmd_workload(&cli(
            "workload",
            &[("jobs", "4"), ("seed", "9"), ("out", &path_s), ("interarrival", "100")],
        ))
        .unwrap();
        let out = cmd_compare(&cli(
            "compare",
            &[("load", &path_s), ("schedulers", "fifo"), ("seed", "9")],
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        std::fs::remove_file(path).ok();
    }
}
