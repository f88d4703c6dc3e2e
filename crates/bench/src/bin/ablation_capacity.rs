//! Ablation A5 — spot revocation: the δ-ball vs deterministic planning.
//!
//! Sweeps the spot-market scenarios of `rush_workload::spot` (revocation
//! duty cycle 0 → 0.7 on half the cluster) against a δ sweep of the RUSH
//! planner, with FIFO and EDF as scheduler baselines. Budgets are
//! calibrated on the *nominal* 48-container cluster, so every revocation
//! eats directly into the planning margin: a deterministic planner (δ = 0,
//! which trusts the reference distribution exactly) keeps admitting and
//! ordering as if the capacity were still there, while the δ-ball's
//! inflated demand η absorbs the shock.
//!
//! The headline metric is the deadline-hit rate among completion-time
//! critical and sensitive jobs (latency ≤ 0). Results are written to
//! `BENCH_ablation_capacity.json` (override with `--out PATH`). The run
//! gates itself ([`capacity_gate`], exit 1): at the sweep's highest
//! revocation rate, RUSH at the default δ must meet at least as many
//! deadlines as the deterministic δ = 0 planner.
//!
//! Flags: `--jobs N`, `--seed N`, `--ratio X`, `--out PATH`, `--quick`.

use rush_bench::{capacity_gate, flag, parse_args, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_metrics::table::{fmt_f64, Table};
use rush_planner::RushScheduler;
use rush_sched::{Edf, Fifo};
use rush_sim::outcome::{SimResult, Summary};
use rush_workload::{generate, spot_scenarios, Experiment, WorkloadConfig};
use std::process::ExitCode;

/// One measured cell of the sweep.
struct Point {
    scenario: &'static str,
    revocation_rate: f64,
    scheduler: String,
    /// RUSH's ambiguity radius; `None` for the non-RUSH baselines.
    delta: Option<f64>,
    row: Summary,
}

impl Point {
    fn hit_rate(&self) -> f64 {
        if self.row.time_aware == 0 {
            1.0
        } else {
            self.row.met as f64 / self.row.time_aware as f64
        }
    }
}

/// The cell of `sched` (one of the schedulers every scenario runs) at the
/// sweep's highest revocation rate.
fn at_top<'a>(points: &'a [Point], top_rate: f64, sched: &str) -> &'a Point {
    points
        .iter()
        .find(|p| p.revocation_rate == top_rate && p.scheduler == sched)
        .expect("every scenario runs RUSH, RUSH-d0, FIFO and EDF")
}

fn main() -> ExitCode {
    let args = parse_args();
    let quick = args.contains_key("quick");
    let jobs: usize = flag(&args, "jobs", if quick { 24 } else { 60 });
    let seed: u64 = flag(&args, "seed", 1);
    let ratio: f64 = flag(&args, "ratio", 2.0);
    // Lighter than the paper's ~80 % contention point: the sweep measures
    // how much *capacity shock* each planner absorbs, so the calm scenario
    // must start comfortably feasible.
    let interarrival: f64 = flag(&args, "interarrival", 2.0 * CALIBRATED_INTERARRIVAL);
    let out_path: String = flag(&args, "out", "BENCH_ablation_capacity.json".to_owned());

    let default_delta = RushConfig::default().delta;
    let deltas: Vec<f64> =
        if quick { vec![0.0, default_delta] } else { vec![0.0, 0.35, default_delta] };
    let scenarios: Vec<_> = if quick {
        let all = spot_scenarios();
        vec![all[0], all[3]]
    } else {
        spot_scenarios().to_vec()
    };

    println!(
        "Ablation A5: spot revocation x delta (budget {ratio}x, {jobs} jobs, seed {seed})\n"
    );

    // One workload, calibrated once on the calm nominal cluster: every
    // scenario and scheduler replays the same jobs.
    let base = Experiment::paper_testbed(seed);
    let cfg = WorkloadConfig {
        jobs,
        budget_ratio: ratio,
        mean_interarrival: interarrival,
        seed,
        ..Default::default()
    };
    let workload = generate(&cfg, &base).expect("workload");
    let capacity = base.cluster().capacity();
    let horizon = workload.iter().map(|j| j.arrival()).max().unwrap_or(0) + 20_000;

    let mut t = Table::new([
        "scenario", "rate", "scheduler", "hit_rate", "met", "mean_util", "zero_util",
    ]);
    let mut points: Vec<Point> = Vec::new();
    for s in &scenarios {
        let model = s.cluster_model(capacity, horizon);
        model.validate().expect("scenario model");
        let exp = base.clone().with_cluster_model(&model);
        let mut runs: Vec<(String, Option<f64>, SimResult)> = Vec::new();
        for &delta in &deltas {
            let mut rush = RushScheduler::new(RushConfig { delta, ..Default::default() });
            let label = if (delta - default_delta).abs() < 1e-9 {
                "RUSH".to_owned()
            } else {
                format!("RUSH-d{delta}")
            };
            let result = exp.run(workload.clone(), &mut rush).expect("rush run");
            runs.push((label, Some(delta), result));
        }
        let mut fifo = Fifo::new();
        runs.push(("FIFO".to_owned(), None, exp.run(workload.clone(), &mut fifo).expect("fifo")));
        let mut edf = Edf::new();
        runs.push(("EDF".to_owned(), None, exp.run(workload.clone(), &mut edf).expect("edf")));
        for (name, delta, result) in &runs {
            let p = Point {
                scenario: s.name,
                revocation_rate: s.revocation_rate,
                scheduler: name.clone(),
                delta: *delta,
                row: result.summary(),
            };
            t.row([
                p.scenario.to_owned(),
                fmt_f64(p.revocation_rate, 2),
                p.scheduler.clone(),
                fmt_f64(p.hit_rate(), 3),
                p.row.met_of_n(),
                fmt_f64(p.row.mean_utility, 3),
                fmt_f64(p.row.zero_utility_fraction, 3),
            ]);
            points.push(p);
        }
    }
    println!("{}", t.render());

    let top_rate = scenarios.iter().map(|s| s.revocation_rate).fold(0.0f64, f64::max);
    let rush_top = at_top(&points, top_rate, "RUSH");
    let det_top = at_top(&points, top_rate, "RUSH-d0");
    println!(
        "gate: at rate {top_rate} RUSH (delta {default_delta}) hits {:.3}, \
         deterministic delta=0 hits {:.3}",
        rush_top.hit_rate(),
        det_top.hit_rate()
    );

    let json = render_json(&points, jobs, seed, ratio, default_delta, top_rate, quick);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }
    if !capacity_gate(rush_top.row.met, det_top.row.met) {
        eprintln!(
            "gate FAILED: at rate {top_rate} RUSH met {} deadlines, the deterministic delta=0 \
             planner {}",
            rush_top.row.met_of_n(),
            det_top.row.met_of_n()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON: the workspace builds offline, without serde.
#[allow(clippy::too_many_arguments)]
fn render_json(
    points: &[Point],
    jobs: usize,
    seed: u64,
    ratio: f64,
    default_delta: f64,
    top_rate: f64,
    quick: bool,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"benchmark\": \"ablation_capacity\",");
    let _ = writeln!(s, "  \"unit\": \"deadline_hit_rate\",");
    let _ = writeln!(s, "  \"jobs\": {jobs},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"budget_ratio\": {ratio},");
    let _ = writeln!(s, "  \"default_delta\": {default_delta},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let delta = p.delta.map_or("null".to_owned(), |d| format!("{d}"));
        let _ = writeln!(
            s,
            "    {{\"scenario\": \"{}\", \"revocation_rate\": {}, \"scheduler\": \"{}\", \"delta\": {}, \"hit_rate\": {:.4}, \"met\": {}, \"total\": {}, \"mean_utility\": {:.4}, \"zero_utility_fraction\": {:.4}}}{}",
            p.scenario,
            p.revocation_rate,
            p.scheduler,
            delta,
            p.hit_rate(),
            p.row.met,
            p.row.time_aware,
            p.row.mean_utility,
            p.row.zero_utility_fraction,
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let hit_rate = |sched| at_top(points, top_rate, sched).hit_rate();
    let _ = writeln!(s, "  \"gate\": {{");
    let _ = writeln!(s, "    \"revocation_rate\": {top_rate},");
    let _ = writeln!(s, "    \"rush_hit_rate\": {:.4},", hit_rate("RUSH"));
    let _ = writeln!(s, "    \"deterministic_hit_rate\": {:.4},", hit_rate("RUSH-d0"));
    let _ = writeln!(s, "    \"fifo_hit_rate\": {:.4},", hit_rate("FIFO"));
    let _ = writeln!(s, "    \"edf_hit_rate\": {:.4}", hit_rate("EDF"));
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}
