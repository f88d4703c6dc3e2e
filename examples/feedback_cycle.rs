//! Watch RUSH's feedback cycle converge: the projected completion times
//! and robust demands of the CA plan, recomputed as runtime samples
//! accumulate — the data the paper's enhanced HTTP interface (Fig. 2)
//! displays, including the "impossible job" red-row flag.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example feedback_cycle
//! ```

use rush::core::plan::{compute_plan, PlanInput};
use rush::core::RushConfig;
use rush::metrics::table::{fmt_f64, Table};
use rush::prob::dist::{Continuous, Gaussian};
use rush::prob::rng::seeded_rng;
use rush::utility::TimeUtility;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RushConfig::default();
    let capacity = 16u32;
    let truth = Gaussian::new(30.0, 12.0)?; // true task runtime, hidden
    let mut rng = seeded_rng(11);

    // One job: 60 tasks, sigmoid budget 300 slots. We replay the DE/CA
    // cycle at increasing progress points.
    let total_tasks = 60usize;
    let utility = TimeUtility::sigmoid(300.0, 5.0, 0.05)?;
    let all_runtimes: Vec<u64> =
        (0..total_tasks).map(|_| truth.sample(&mut rng).round().max(1.0) as u64).collect();

    println!("one job: {total_tasks} tasks ~ N(30, 12) (hidden), budget 300, capacity {capacity}\n");
    let mut t = Table::new(["done", "eta", "R", "target", "level", "desired_now", "impossible"]);
    for done in [0usize, 2, 5, 10, 20, 40, 55] {
        let samples: Vec<u64> = all_runtimes[..done].to_vec();
        let age: f64 = samples.iter().sum::<u64>() as f64 / capacity as f64; // rough elapsed
        let inputs = vec![PlanInput {
            key: 0,
            generation: None,
            samples: samples.into(),
            remaining_tasks: total_tasks - done,
            failed_attempts: 0,
            age,
            utility,
        }];
        let plan = compute_plan(&cfg, capacity, &inputs)?;
        let e = &plan.entries[0];
        t.row([
            done.to_string(),
            e.eta.to_string(),
            e.task_len.to_string(),
            fmt_f64(e.target, 1),
            fmt_f64(e.level, 3),
            e.desired_now.to_string(),
            e.impossible.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("With no samples the cold prior (60±20) over-estimates demand; as");
    println!("samples arrive, η converges to ~30·remaining and the plan relaxes.");
    Ok(())
}
