//! Figure 6 — CDFs of achieved job utilities under budget pressure.
//!
//! Reproduces: the empirical CDF of all 100 jobs' achieved utilities for
//! budget ratios 2×, 1.5× and 1×, under RUSH, FIFO, EDF and RRH.
//!
//! Paper's finding: RUSH's CDF sits to the right of every baseline (more
//! jobs at higher utility), most visibly at ratio 1× where the baselines
//! leave > 50 % of jobs at zero utility.
//!
//! Flags: `--jobs N`, `--seed S`, `--interarrival T`, `--quick` (CI mode:
//! a small fleet and the tightest budget ratio only).

use rush_bench::{flag, parse_args, run_comparison_at, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_metrics::series::{grid, CdfCurve};
use rush_metrics::table::{fmt_f64, Table};

fn main() {
    let args = parse_args();
    let quick = args.contains_key("quick");
    let jobs: usize = flag(&args, "jobs", if quick { 25 } else { 100 });
    let seed: u64 = flag(&args, "seed", 1);
    let interarrival: f64 = flag(&args, "interarrival", CALIBRATED_INTERARRIVAL);
    let ratios: &[f64] = if quick { &[1.0] } else { &[2.0, 1.5, 1.0] };

    println!("Figure 6: CDF of achieved job utilities (all {jobs} jobs)");
    println!("utility range 0..5 (priority W in 1..5)\n");

    let xs = grid(0.0, 5.0, 11);
    for &ratio in ratios {
        let results = run_comparison_at(jobs, ratio, seed, RushConfig::default(), interarrival);
        println!("budget = {ratio}x benchmarked runtime");
        let mut headers = vec!["scheduler".to_owned(), "zero-util".to_owned(), "mean".to_owned()];
        headers.extend(xs.iter().map(|x| format!("F({x:.1})")));
        let mut t = Table::new(headers);
        for (name, result) in &results {
            let utils = result.utility_vector();
            let curve = CdfCurve::from_samples(name.clone(), &utils, &xs);
            let s = result.summary();
            let mut row = vec![
                name.clone(),
                fmt_f64(s.zero_utility_fraction, 2),
                fmt_f64(s.mean_utility, 2),
            ];
            row.extend(curve.points.iter().map(|&(_, y)| fmt_f64(y, 2)));
            t.row(row);
        }
        println!("{}", t.render());
    }
    println!("Paper shape: RUSH's F(x) is lowest at small x (fewest low-utility");
    println!("jobs) and its zero-utility fraction stays far below the baselines'.");
}
