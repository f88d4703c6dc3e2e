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
//! * `dashboard` — one CA pass over a workload snapshot, as the paper's
//!   Fig. 2 monitoring table.
//!
//! The daemon is its own binary (`rushd`, in `rush-serve`).
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
use rush_sched::{Edf, Fair, Fifo, Rrh, Speculative};
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::JobSpec;
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
       dashboard --jobs N --seed S [--at SLOT]\n"
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

fn build_workload(cli: &Cli) -> Result<(Experiment, Vec<JobSpec>), String> {
    let seed: u64 = flag(cli, "seed", 1)?;
    let exp = Experiment::paper_testbed(seed);
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
        let s = r.summary();
        let lat = s.latency.as_ref().ok_or("no time-aware job declared a budget")?;
        t.row([
            name,
            fmt_f64(s.mean_utility, 3),
            fmt_f64(s.zero_utility_fraction, 3),
            fmt_f64(lat.median, 1),
            fmt_f64(lat.q3, 1),
            s.met_of_n(),
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
/// The snapshot is loaded into the shared planner kernel
/// ([`rush_planner::PlannerCore`]) through the calls the daemon makes —
/// one `admit` per job (kernel ids ascend in arrival order, which is the
/// planning order), one `ingest_sample` per approximated completed task,
/// then `plan_at` the snapshot slot — so the CLI plans exactly as
/// `rushd` does. At most `tasks - 1` tasks count as done, so no job
/// retires before the plan.
///
/// # Errors
///
/// Propagates workload and planning failures as strings.
pub fn cmd_dashboard(cli: &Cli) -> Result<String, String> {
    use rush_core::plan::render_dashboard;
    use rush_planner::PlannerCore;
    let (exp, jobs) = build_workload(cli)?;
    let at: u64 = flag(cli, "at", 120)?;
    let arrived: Vec<&JobSpec> = jobs.iter().filter(|j| j.arrival() <= at).collect();
    if arrived.is_empty() {
        return Ok(format!("no jobs arrived by slot {at}\n"));
    }
    let capacity = exp.cluster().capacity();
    let mut kernel =
        PlannerCore::new(RushConfig::default(), capacity).map_err(|e| e.to_string())?;
    // Approximate progress: assume tasks completed in arrival order at the
    // template's mean rate on a fair share of the cluster.
    let share = (capacity as usize / arrived.len()).max(1);
    for j in &arrived {
        let mean_rt = (j.total_base_runtime() / j.tasks().len() as f64).max(1.0);
        let age = at.saturating_sub(j.arrival());
        let done = ((age as f64 / mean_rt) * share as f64) as usize;
        let done = done.min(j.tasks().len().saturating_sub(1));
        let job = kernel.admit(rush_planner::JobSpec {
            label: j.label().to_owned(),
            utility: *j.utility(),
            tasks: j.tasks().len() as u64,
            arrived_slot: j.arrival(),
            runtime_hint: None,
            parked: false,
        });
        for t in &j.tasks()[..done] {
            kernel
                .ingest_sample(job, t.base_runtime().round() as u64)
                .map_err(|e| e.to_string())?;
        }
    }
    kernel.plan_at(at).map_err(|e| e.to_string())?;
    let labels: Vec<&str> = arrived.iter().map(|j| j.label()).collect();
    Ok(format!(
        "RUSH plan at slot {at} ({} active jobs)\n{}",
        arrived.len(),
        render_dashboard(kernel.plan(), &labels)
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

    /// The table is pinned byte for byte on three seeded snapshots: at slot
    /// 100 a job has no sample yet and is sized from the prior, at slot 600
    /// some jobs are impossible. Any change to how the CLI loads the
    /// kernel, or to planning itself, shows up here; a deliberate one
    /// re-records the fixtures.
    #[test]
    fn dashboard_output_is_pinned() {
        for (jobs, seed, at, want) in [
            ("12", "7", "100", include_str!("../tests/fixtures/dashboard_jobs12_seed7_at100.txt")),
            ("12", "7", "300", include_str!("../tests/fixtures/dashboard_jobs12_seed7_at300.txt")),
            ("30", "3", "600", include_str!("../tests/fixtures/dashboard_jobs30_seed3_at600.txt")),
        ] {
            let out =
                cmd_dashboard(&cli("dashboard", &[("jobs", jobs), ("seed", seed), ("at", at)]))
                    .unwrap();
            assert_eq!(out, want, "--jobs {jobs} --seed {seed} --at {at}");
        }
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
    fn serve_and_loadgen_are_not_subcommands() {
        // `rushd` is the daemon's only launcher; there is no load subcommand.
        for cmd in ["serve", "loadgen"] {
            let err = run(&cli(cmd, &[("addr", "127.0.0.1:0")])).unwrap_err();
            assert!(err.contains("usage:") && !err.contains(cmd), "{err}");
        }
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
