//! Figure 4 — latency of time-sensitive and -critical jobs under budget
//! pressure.
//!
//! Reproduces: boxplots of `latency = runtime − budget` for the
//! completion-time sensitive + critical jobs of the 100-job PUMA-mix
//! workload, with budgets at 2×, 1.5× and 1× the benchmarked runtime,
//! under RUSH, FIFO, EDF and RRH.
//!
//! Paper's finding: RUSH's third quartile stays below 0 at every ratio
//! (≥ 75 % of time-aware jobs meet their budget); FIFO/EDF suffer
//! head-of-line blocking and RRH sacrifices sensitive jobs to critical
//! ones.
//!
//! Flags: `--jobs N`, `--seed S`, `--interarrival T`, `--quick` (CI mode:
//! a small fleet and the tightest budget ratio only).

use rush_bench::{flag, parse_args, run_comparison_at, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_metrics::table::{fmt_f64, Table};

fn main() {
    let args = parse_args();
    let quick = args.contains_key("quick");
    let jobs: usize = flag(&args, "jobs", if quick { 25 } else { 100 });
    let seed: u64 = flag(&args, "seed", 1);
    let interarrival: f64 = flag(&args, "interarrival", CALIBRATED_INTERARRIVAL);
    let ratios: &[f64] = if quick { &[1.0] } else { &[2.0, 1.5, 1.0] };

    println!("Figure 4: latency (runtime - budget) of sensitive+critical jobs");
    println!(
        "{jobs} jobs, PUMA mix, Poisson({interarrival}) arrivals, paper testbed (48 containers)\n"
    );

    let mut t = Table::new([
        "budget", "scheduler", "whisk_lo", "q1", "median", "q3", "whisk_hi", "outliers",
        "met_budget",
    ]);
    for &ratio in ratios {
        let results = run_comparison_at(jobs, ratio, seed, RushConfig::default(), interarrival);
        for (name, result) in &results {
            let row = result.summary();
            let s = row.latency.as_ref().expect("time-aware jobs");
            t.row([
                format!("{ratio}x"),
                name.clone(),
                fmt_f64(s.whisker_lo, 1),
                fmt_f64(s.q1, 1),
                fmt_f64(s.median, 1),
                fmt_f64(s.q3, 1),
                fmt_f64(s.whisker_hi, 1),
                s.outliers.len().to_string(),
                row.met_of_n(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Paper shape: RUSH q3 <= 0 at every ratio; baselines' medians blow up");
    println!("as the ratio tightens to 1x.");
}
