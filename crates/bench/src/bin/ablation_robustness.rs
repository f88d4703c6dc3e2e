//! Ablation A1 — what does the robustness margin buy?
//!
//! Sweeps the entropy threshold δ (0 = trust the reference distribution)
//! on the tight-budget (1×) workload and reports utility and
//! budget-compliance of the time-aware jobs. The paper's thesis: the KL
//! margin protects scheduling decisions against estimation error,
//! especially early in each job's life.

use rush_bench::{flag, parse_args, run_comparison, summary_cells};
use rush_core::RushConfig;
use rush_metrics::table::{fmt_f64, Table};

fn main() {
    let args = parse_args();
    let jobs: usize = flag(&args, "jobs", 60);
    let seed: u64 = flag(&args, "seed", 1);
    let ratio: f64 = flag(&args, "ratio", 1.0);

    println!("Ablation A1: entropy threshold delta sweep (budget ratio {ratio}x)\n");
    let mut t = Table::new(["delta", "mean_util", "zero_util", "median_lat", "q3_lat", "met"]);
    for delta in [0.0f64, 0.35, 0.7, 1.4] {
        let cfg = RushConfig::default().with_delta(delta);
        let results = run_comparison(jobs, ratio, seed, cfg);
        let (_, rush) = results.iter().find(|(n, _)| n == "RUSH").expect("RUSH present");
        t.row([fmt_f64(delta, 2)].into_iter().chain(summary_cells(rush)));
    }
    println!("{}", t.render());
    println!("Reading the result: at saturation-level contention, end-to-end latency");
    println!("is queueing-dominated and the delta margin changes little — the");
    println!("robustness payoff lives in the per-job coverage guarantee (Fig. 3 /");
    println!("ablation A2a), i.e. not promising budgets that the demand's tail will");
    println!("break, rather than in aggregate throughput.");
}
