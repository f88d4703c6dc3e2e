//! Ablation A6 — bursty arrivals.
//!
//! The paper evaluates Poisson arrivals only; real clusters see bursts.
//! This experiment replays the same job population with on/off burst
//! arrivals (same long-run rate) and asks whether RUSH's reservation-based
//! planning degrades more or less gracefully than the baselines.

use rush_bench::{flag, parse_args, summary_cells, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_planner::RushScheduler;
use rush_metrics::table::Table;
use rush_sched::{Edf, Fifo, Rrh};
use rush_sim::Scheduler;
use rush_workload::{generate, ArrivalProcess, Experiment, WorkloadConfig};

fn main() {
    let args = parse_args();
    let jobs: usize = flag(&args, "jobs", 60);
    let seed: u64 = flag(&args, "seed", 1);
    let ratio: f64 = flag(&args, "ratio", 1.5);

    println!("Ablation A6: Poisson vs bursty arrivals (budget {ratio}x, {jobs} jobs)\n");
    let mut t =
        Table::new(["arrivals", "scheduler", "mean_util", "zero_util", "median_lat", "q3_lat", "met"]);
    for (name, process) in [
        ("poisson", ArrivalProcess::Poisson),
        ("burst-5", ArrivalProcess::Bursty { burst: 5 }),
        ("burst-10", ArrivalProcess::Bursty { burst: 10 }),
    ] {
        let exp = Experiment::paper_testbed(seed);
        let cfg = WorkloadConfig {
            jobs,
            budget_ratio: ratio,
            mean_interarrival: CALIBRATED_INTERARRIVAL,
            arrivals: process,
            seed,
            ..Default::default()
        };
        let workload = generate(&cfg, &exp).expect("workload");
        let mut rush = RushScheduler::new(RushConfig::default());
        let mut fifo = Fifo::new();
        let mut edf = Edf::new();
        let mut rrh = Rrh::new();
        let mut set: [(&str, &mut dyn Scheduler); 4] = [
            ("RUSH", &mut rush),
            ("FIFO", &mut fifo),
            ("EDF", &mut edf),
            ("RRH", &mut rrh),
        ];
        for (sched, result) in exp.compare(&workload, &mut set).expect("compare") {
            t.row([name.to_owned(), sched].into_iter().chain(summary_cells(&result)));
        }
    }
    println!("{}", t.render());
    println!("Reading the result: mild bursts are handled fine (RUSH's planning can");
    println!("even exploit the idle gaps between bursts), but under heavy bursts");
    println!("RUSH falls behind greedy triage (RRH): a big burst delivers many cold");
    println!("jobs at once, so an entire wave is planned on prior-based demand");
    println!("estimates and some jobs are wrongly deferred as hopeless. A real");
    println!("limitation of estimate-driven reservation under strongly correlated");
    println!("arrivals, outside the paper's Poisson evaluation.");
}
