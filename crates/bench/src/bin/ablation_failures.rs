//! Ablation A4 — task-failure extension (the paper's future work).
//!
//! Injects Bernoulli task failures and compares RUSH with failure-aware
//! demand inflation (`η/(1−p̂)`) against RUSH without it and against FIFO,
//! at increasing failure rates.

use rush_bench::{flag, parse_args, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_planner::RushScheduler;
use rush_metrics::table::{fmt_f64, Table};
use rush_sched::Fifo;
use rush_sim::perturb::FailureModel;
use rush_sim::Scheduler;
use rush_workload::{generate, Experiment, WorkloadConfig};

fn main() {
    let args = parse_args();
    let jobs: usize = flag(&args, "jobs", 60);
    let seed: u64 = flag(&args, "seed", 1);
    let ratio: f64 = flag(&args, "ratio", 1.5);

    println!("Ablation A4: task failures (budget {ratio}x, {jobs} jobs)\n");
    let mut t = Table::new([
        "p_fail", "scheduler", "mean_util", "zero_util", "median_lat", "met", "failures",
    ]);
    for p_fail in [0.0f64, 0.05, 0.15, 0.3] {
        let exp = Experiment::paper_testbed(seed);
        let cfg = WorkloadConfig {
            jobs,
            budget_ratio: ratio,
            mean_interarrival: CALIBRATED_INTERARRIVAL,
            seed,
            ..Default::default()
        };
        let workload = generate(&cfg, &exp).expect("workload");
        // Failures are injected at simulation level, identically for all
        // schedulers (same sim seed).
        let run = |sched: &mut dyn Scheduler| {
            let cfg = rush_sim::engine::SimConfig::new(exp.cluster().clone())
                .with_interference(exp.interference().clone())
                .with_failures(FailureModel::Bernoulli { p: p_fail })
                .with_seed(seed)
                .with_max_slots(10_000_000);
            rush_sim::engine::Simulation::new(cfg, workload.clone())
                .expect("sim")
                .run(sched)
                .expect("run")
        };
        let mut aware = RushScheduler::new(RushConfig::default());
        let mut blind =
            RushScheduler::new(RushConfig { failure_aware: false, ..Default::default() });
        let mut fifo = Fifo::new();
        for (name, result) in [
            ("RUSH", run(&mut aware)),
            ("RUSH-noFA", run(&mut blind)),
            ("FIFO", run(&mut fifo)),
        ] {
            let s = result.summary();
            t.row([
                fmt_f64(p_fail, 2),
                name.to_owned(),
                fmt_f64(s.mean_utility, 3),
                fmt_f64(s.zero_utility_fraction, 3),
                fmt_f64(s.latency.as_ref().expect("time-aware jobs").median, 1),
                s.met_of_n(),
                result.failed_attempts.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Expectation: failure-aware inflation keeps RUSH's provision honest as");
    println!("rework grows; without it the planner persistently under-budgets.");
}
