//! The reproduction as data: every figure and ablation of the paper's
//! evaluation (Sec. V) is one entry of [`FIGURES`], its name and the
//! function that builds its report.
//!
//! A report is title lines, tables and closing text. A simulated table is
//! one [`sweep`]: an axis, a scheduler set, a builder that turns an axis
//! point into jobs, a simulator and a RUSH configuration, and a row
//! formatter. Every parameter is a constant: the `figures` bin writes each
//! report to `results/<name>.txt`, and CI fails when a change moves one of
//! them. A figure panics on workload-generation and simulator errors;
//! every input is a constant, so one is a bug.

use crate::{capacity_gate, fatal, CALIBRATED_INTERARRIVAL};
use rush_core::config::EstimatorKind;
use rush_core::RushConfig;
use rush_estimator::{DistributionEstimator, EmpiricalEstimator, GaussianEstimator, MeanEstimator};
use rush_metrics::series::{grid, CdfCurve};
use rush_metrics::table::{fmt_f64, Table};
use rush_planner::RushScheduler;
use rush_prob::dist::{Continuous, Gaussian};
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_prob::stats::FiveNumber;
use rush_sched::{Edf, Fifo, Rrh, Speculative};
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::JobSpec;
use rush_sim::outcome::{SimResult, Summary};
use rush_sim::perturb::{FailureModel, Interference};
use rush_sim::Scheduler;
use rush_workload::{
    generate, spot_scenarios, ArrivalProcess, Experiment, SpotScenario, WorkloadConfig,
};
use std::fmt::Write as _;
use std::iter::once;

/// A figure's report, and whether its gate (if any) passed.
pub type Report = (String, bool);

/// A figure: the name `figures` takes (the result file's stem) and what it
/// runs.
pub type Figure = (&'static str, fn() -> Report);

/// Every figure, in the order `figures` runs them with no argument.
pub const FIGURES: &[Figure] = &[
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("ablation_robustness", ablation_robustness),
    ("ablation_estimator", ablation_estimator),
    ("ablation_theta", ablation_theta),
    ("ablation_failures", ablation_failures),
    ("sweep_reserve", sweep_reserve),
    ("ablation_bursty", ablation_bursty),
    ("ablation_speculation", ablation_speculation),
    ("ablation_locality", ablation_locality),
    ("ablation_capacity", ablation_capacity),
];

/// Seed of every workload, simulation and coverage draw.
const SEED: u64 = 1;

/// Budgets at 2×, 1.5× and 1× the benchmarked runtime (Figs. 4 and 6).
const RATIOS: [f64; 3] = [2.0, 1.5, 1.0];

/// What one axis point runs: the jobs, the simulator that replays them and
/// the configuration RUSH plans them with.
struct Setup {
    jobs: Vec<JobSpec>,
    sim: SimConfig,
    rush: RushConfig,
}

/// A scheduler a sweep runs: its row label, and how to build it, fresh for
/// every run, from the axis point's RUSH configuration.
struct Sched(&'static str, fn(RushConfig) -> Box<dyn Scheduler>);

const RUSH: Sched = Sched("RUSH", rush);
const FIFO: Sched = Sched("FIFO", |_| Box::new(Fifo::new()));
const EDF: Sched = Sched("EDF", |_| Box::new(Edf::new()));
const RRH: Sched = Sched("RRH", |_| Box::new(Rrh::new()));

/// The paper's four schedulers.
const PAPER: &[Sched] = &[RUSH, FIFO, EDF, RRH];
/// Sweeps of a RUSH knob print only RUSH's row.
const RUSH_ONLY: &[Sched] = &[RUSH];

/// RUSH planning with `config`.
fn rush(config: RushConfig) -> Box<dyn Scheduler> {
    Box::new(RushScheduler::new(config))
}

/// Runs every scheduler at every point of `xs` on what `setup` builds for
/// it, appends `table` with one `row(x, scheduler, result)` per run to
/// `out`, and returns the runs.
fn sweep<X: Copy, R: IntoIterator<Item = String>>(
    out: &mut String,
    mut table: Table,
    xs: &[X],
    schedulers: &[Sched],
    setup: impl Fn(X) -> Setup,
    row: impl Fn(X, &str, &SimResult) -> R,
) -> Vec<(X, &'static str, SimResult)> {
    let mut runs = Vec::new();
    for &x in xs {
        let Setup { jobs, sim, rush } = setup(x);
        for &Sched(name, build) in schedulers {
            let result = Simulation::new(sim.clone(), jobs.clone())
                .and_then(|s| s.run(&mut *build(rush)))
                .expect("simulation");
            table.row(row(x, name, &result));
            runs.push((x, name, result));
        }
    }
    push_table(out, &table);
    runs
}

fn push_table(out: &mut String, table: &Table) {
    out.push_str(&table.render());
    out.push('\n');
}

/// `workload`'s jobs, calibrated on `exp`, replayed on `exp`'s cluster and
/// interference at [`SEED`], with RUSH at its defaults. This is the one
/// place a figure's simulator is built: a figure that needs what
/// `Experiment` does not carry (failures, a remote-read penalty, capacity
/// events) sets it on `sim`.
fn on(exp: &Experiment, workload: WorkloadConfig) -> Setup {
    Setup {
        jobs: generate(&workload, exp).expect("workload generation"),
        sim: SimConfig::new(exp.cluster().clone())
            .with_interference(exp.interference().clone())
            .with_seed(SEED)
            .with_max_slots(10_000_000),
        rush: RushConfig::default(),
    }
}

/// `jobs` PUMA-mix jobs with budgets at `ratio`× their solo runtime and
/// Poisson arrivals at [`CALIBRATED_INTERARRIVAL`].
fn workload(jobs: usize, ratio: f64) -> WorkloadConfig {
    WorkloadConfig {
        jobs,
        budget_ratio: ratio,
        mean_interarrival: CALIBRATED_INTERARRIVAL,
        seed: SEED,
        ..Default::default()
    }
}

/// [`on`] the paper testbed (48 containers, log-normal interference).
fn testbed(jobs: usize, ratio: f64) -> Setup {
    on(&Experiment::paper_testbed(SEED), workload(jobs, ratio))
}

/// The paper's workload (Figs. 4 and 6): 100 jobs on the [`testbed`].
fn paper_workload(ratio: f64) -> Setup {
    testbed(100, ratio)
}

/// The probability that the DE + WCDE provision `η` covers the true
/// remaining demand of a 101-task job whose runtimes are N(60, 20), after
/// `n_samples` of its tasks were observed, with `de` at θ = 0.9 and radius
/// `delta`, estimated over 100 independent sample draws.
///
/// The remaining demand is `N((101−n)·60, √(101−n)·20)`, so coverage is
/// evaluated in closed form instead of re-simulating.
fn coverage(de: &dyn DistributionEstimator, n_samples: usize, delta: f64) -> f64 {
    const TASKS: usize = 101;
    const REPETITIONS: usize = 100;
    let truth = Gaussian::new(60.0, 20.0).expect("static");
    let remaining = TASKS.saturating_sub(n_samples);
    if remaining == 0 {
        return 1.0;
    }
    let rem_total =
        Gaussian::new(remaining as f64 * 60.0, (remaining as f64).sqrt() * 20.0).expect("static");
    let mut covered = 0.0;
    for rep in 0..REPETITIONS {
        let mut rng = seeded_rng(derive_seed(SEED, rep as u64));
        let samples: Vec<u64> =
            (0..n_samples).map(|_| truth.sample(&mut rng).round().max(1.0) as u64).collect();
        let est = de.estimate(&samples, remaining).expect("estimate");
        let eta = rush_core::wcde::worst_case_quantile(&est.pmf, 0.9, delta).expect("wcde").eta;
        // P(v ≤ η) under the true remaining-demand distribution.
        covered += rem_total.cdf(eta as f64);
    }
    covered / REPETITIONS as f64
}

/// The latency boxplot of a run's time-aware jobs.
fn latency(s: &Summary) -> &FiveNumber {
    s.latency.as_ref().expect("time-aware jobs with budgets")
}

/// The `mean_util, zero_util, median_lat, q3_lat, met` cells most
/// ablation rows end with.
fn summary_cells(result: &SimResult) -> [String; 5] {
    let s = result.summary();
    let lat = latency(&s);
    [
        fmt_f64(s.mean_utility, 3),
        fmt_f64(s.zero_utility_fraction, 3),
        fmt_f64(lat.median, 1),
        fmt_f64(lat.q3, 1),
        s.met_of_n(),
    ]
}

/// Fig. 3. The paper: with only 25 samples no δ reaches the θ = 0.9 target;
/// with ≥ 35 samples, δ ≥ 0.7 does.
fn fig3() -> Report {
    const SAMPLES: [usize; 5] = [15, 25, 35, 45, 55];
    let mut out = String::from(
        "Figure 3: P(eta >= v) vs samples and entropy threshold delta\n\
         job: 101 tasks ~ N(60, 20); theta = 0.9; 100 repetitions\n\n",
    );
    let mut t = Table::new(once("delta".to_owned()).chain(SAMPLES.map(|n| format!("{n} samples"))));
    let de = GaussianEstimator::new(1024);
    for delta in [0.0, 0.1, 0.35, 0.7, 1.05, 1.4] {
        t.row(once(fmt_f64(delta, 2)).chain(SAMPLES.map(|n| fmt_f64(coverage(&de, n, delta), 3))));
    }
    push_table(&mut out, &t);
    out.push_str(
        "target: theta = 0.9. Paper shape: row delta>=0.7 crosses 0.9\n\
         from 35 samples on; the 25-sample column stays below it.\n",
    );
    (out, true)
}

/// Fig. 4. The paper: RUSH's third latency quartile stays below 0 at every
/// ratio; FIFO/EDF suffer head-of-line blocking, RRH sacrifices sensitive
/// jobs to critical ones.
fn fig4() -> Report {
    let mut out = String::from(
        "Figure 4: latency (runtime - budget) of sensitive+critical jobs\n\
         100 jobs, PUMA mix, Poisson(45) arrivals, paper testbed (48 containers)\n\n",
    );
    let boxplot = ["whisk_lo", "q1", "median", "q3", "whisk_hi", "outliers", "met_budget"];
    let t = Table::new(["budget", "scheduler"].into_iter().chain(boxplot));
    sweep(&mut out, t, &RATIOS, PAPER, paper_workload, |ratio, sched, r| {
        let s = r.summary();
        let lat = latency(&s);
        let quartiles = [lat.whisker_lo, lat.q1, lat.median, lat.q3, lat.whisker_hi];
        [format!("{ratio}x"), sched.to_owned()]
            .into_iter()
            .chain(quartiles.map(|v| fmt_f64(v, 1)))
            .chain([lat.outliers.len().to_string(), s.met_of_n()])
    });
    out.push_str(
        "Paper shape: RUSH q3 <= 0 at every ratio; baselines' medians blow up\n\
         as the ratio tightens to 1x.\n",
    );
    (out, true)
}

/// Fig. 6. The paper: RUSH's utility CDF sits right of every baseline, most
/// visibly at 1× where the baselines leave > 50 % of jobs at zero.
fn fig6() -> Report {
    let mut out = String::from(
        "Figure 6: CDF of achieved job utilities (all 100 jobs)\n\
         utility range 0..5 (priority W in 1..5)\n\n",
    );
    let xs = grid(0.0, 5.0, 11);
    for ratio in RATIOS {
        let _ = writeln!(out, "budget = {ratio}x benchmarked runtime");
        let cdf = xs.iter().map(|x| format!("F({x:.1})"));
        let t =
            Table::new(["scheduler", "zero-util", "mean"].map(String::from).into_iter().chain(cdf));
        sweep(&mut out, t, &[ratio], PAPER, paper_workload, |_, sched, r| {
            let s = r.summary();
            let curve = CdfCurve::from_samples("", &r.utility_vector(), &xs);
            let cdf = curve.points.iter().map(|&(_, y)| y);
            let values = [s.zero_utility_fraction, s.mean_utility].into_iter().chain(cdf);
            once(sched.to_owned()).chain(values.map(|v| fmt_f64(v, 2))).collect::<Vec<_>>()
        });
    }
    out.push_str(
        "Paper shape: RUSH's F(x) is lowest at small x (fewest low-utility\n\
         jobs) and its zero-utility fraction stays far below the baselines'.\n",
    );
    (out, true)
}

/// A1: what does the robustness margin buy on the tight-budget workload?
fn ablation_robustness() -> Report {
    let mut out = String::from("Ablation A1: entropy threshold delta sweep (budget ratio 1x)\n\n");
    let t = Table::new(["delta", "mean_util", "zero_util", "median_lat", "q3_lat", "met"]);
    let setup = |delta| Setup { rush: RushConfig::default().with_delta(delta), ..testbed(60, 1.0) };
    sweep(&mut out, t, &[0.0, 0.35, 0.7, 1.4], RUSH_ONLY, setup, |delta, _, r| {
        once(fmt_f64(delta, 2)).chain(summary_cells(r))
    });
    out.push_str(
        "Reading the result: at saturation-level contention, end-to-end latency\n\
         is queueing-dominated and the delta margin changes little — the\n\
         robustness payoff lives in the per-job coverage guarantee (Fig. 3 /\n\
         ablation A2a), i.e. not promising budgets that the demand's tail will\n\
         break, rather than in aggregate throughput.\n",
    );
    (out, true)
}

/// A2: the mean estimator's impulse reference makes the KL ball degenerate,
/// which is why the paper defaults to the Gaussian one.
fn ablation_estimator() -> Report {
    let mut out =
        String::from("Ablation A2a: coverage P(eta >= v) by estimator class (delta 0.7)\n\n");
    let mut t = Table::new(["samples", "mean", "gaussian", "empirical"]);
    let (mean, gaussian) = (MeanEstimator::new(1024), GaussianEstimator::new(1024));
    let des: [&dyn DistributionEstimator; 3] =
        [&mean, &gaussian, &EmpiricalEstimator::new(1024, 500)];
    for n in [15, 25, 35, 55] {
        t.row(once(n.to_string()).chain(des.map(|de| fmt_f64(coverage(de, n, 0.7), 3))));
    }
    push_table(&mut out, &t);
    out.push_str("Ablation A2b: full workload (ratio 1.5x, 40 jobs) by estimator\n\n");
    let estimators = [
        ("mean", EstimatorKind::Mean),
        ("gaussian", EstimatorKind::Gaussian),
        ("empirical", EstimatorKind::Empirical { resamples: 200 }),
    ];
    let t = Table::new(["estimator", "mean_util", "zero_util"]);
    let setup =
        |(_, kind)| Setup { rush: RushConfig::default().with_estimator(kind), ..testbed(40, 1.5) };
    sweep(&mut out, t, &estimators, RUSH_ONLY, setup, |(name, _), _, r| {
        let [mean, zero, ..] = summary_cells(r);
        [name.to_owned(), mean, zero]
    });
    out.push_str(
        "Expectation: the mean estimator's impulse reference caps its coverage;\n\
         gaussian and empirical reach the theta target with enough samples.\n",
    );
    (out, true)
}

/// A3: low θ under-provisions, θ → 1 reserves capacity for demand that
/// almost never materializes.
fn ablation_theta() -> Report {
    let mut out = String::from("Ablation A3: theta sweep (budget ratio 1.5x, 60 jobs)\n\n");
    let t = Table::new(["theta", "mean_util", "zero_util", "median_lat", "q3_lat", "met"]);
    let setup = |theta| Setup { rush: RushConfig::default().with_theta(theta), ..testbed(60, 1.5) };
    sweep(&mut out, t, &[0.5, 0.75, 0.9, 0.99], RUSH_ONLY, setup, |theta, _, r| {
        once(fmt_f64(theta, 2)).chain(summary_cells(r))
    });
    out.push_str(
        "Reading the result: higher theta buys per-job completion confidence at\n\
         the cost of reserved capacity; under heavy contention the q3 latency\n\
         grows with theta while mean utility drifts slightly down — the\n\
         conservatism knob behaves as designed.\n",
    );
    (out, true)
}

/// A4: Bernoulli task failures, injected identically for every scheduler,
/// with and without failure-aware inflation `η/(1−p̂)`.
fn ablation_failures() -> Report {
    let mut out = String::from("Ablation A4: task failures (budget 1.5x, 60 jobs)\n\n");
    let headers =
        ["p_fail", "scheduler", "mean_util", "zero_util", "median_lat", "met", "failures"];
    let no_fa = Sched("RUSH-noFA", |config| rush(RushConfig { failure_aware: false, ..config }));
    let setup = |p| {
        let s = testbed(60, 1.5);
        Setup { sim: s.sim.with_failures(FailureModel::Bernoulli { p }), ..s }
    };
    let ps = [0.0, 0.05, 0.15, 0.3];
    sweep(&mut out, Table::new(headers), &ps, &[RUSH, no_fa, FIFO], setup, |p, sched, r| {
        let [mean, zero, median, _, met] = summary_cells(r);
        [fmt_f64(p, 2), sched.to_owned(), mean, zero, median, met, r.failed_attempts.to_string()]
    });
    out.push_str(
        "Expectation: failure-aware inflation keeps RUSH's provision honest as\n\
         rework grows; without it the planner persistently under-budgets.\n",
    );
    (out, true)
}

/// A5: the share of capacity reserved for insensitive jobs
/// (`RushConfig::insensitive_reserve`).
fn sweep_reserve() -> Report {
    let mut out = String::from("ratio 1.5x, 40 jobs\n");
    let headers = ["reserve", "mean_util", "zero", "median_lat", "q3_lat", "met", "makespan"];
    let setup = |reserve| Setup {
        rush: RushConfig { insensitive_reserve: reserve, ..Default::default() },
        ..testbed(40, 1.5)
    };
    let reserves = [0.5, 0.75, 0.9, 0.95, 1.0];
    sweep(&mut out, Table::new(headers), &reserves, RUSH_ONLY, setup, |reserve, _, r| {
        let [mean, _, median, q3, met] = summary_cells(r);
        let zero = fmt_f64(r.summary().zero_utility_fraction, 2);
        [fmt_f64(reserve, 2), mean, zero, median, q3, met, r.makespan.to_string()]
    });
    (out, true)
}

/// A6: the same job population with on/off burst arrivals at the same
/// long-run rate (the paper evaluates Poisson arrivals only).
fn ablation_bursty() -> Report {
    let mut out =
        String::from("Ablation A6: Poisson vs bursty arrivals (budget 1.5x, 60 jobs)\n\n");
    let headers =
        ["arrivals", "scheduler", "mean_util", "zero_util", "median_lat", "q3_lat", "met"];
    let processes = [
        ("poisson", ArrivalProcess::Poisson),
        ("burst-5", ArrivalProcess::Bursty { burst: 5 }),
        ("burst-10", ArrivalProcess::Bursty { burst: 10 }),
    ];
    let setup = |(_, arrivals)| {
        on(&Experiment::paper_testbed(SEED), WorkloadConfig { arrivals, ..workload(60, 1.5) })
    };
    sweep(&mut out, Table::new(headers), &processes, PAPER, setup, |(name, _), sched, r| {
        [name.to_owned(), sched.to_owned()].into_iter().chain(summary_cells(r))
    });
    out.push_str(
        "Reading the result: mild bursts are handled fine (RUSH's planning can\n\
         even exploit the idle gaps between bursts), but under heavy bursts\n\
         RUSH falls behind greedy triage (RRH): a big burst delivers many cold\n\
         jobs at once, so an entire wave is planned on prior-based demand\n\
         estimates and some jobs are wrongly deferred as hopeless. A real\n\
         limitation of estimate-driven reservation under strongly correlated\n\
         arrivals, outside the paper's Poisson evaluation.\n",
    );
    (out, true)
}

/// A7: speculative re-execution of stragglers (Zaharia et al., OSDI'08)
/// against robust provisioning, and both combined.
fn ablation_speculation() -> Report {
    let mut out = String::from(
        "Ablation A7: stragglers (p=0.15, 6x) — robustness vs speculation\n\
         60 jobs, budget 1.5x\n\n",
    );
    let headers =
        ["scheduler", "mean_util", "zero_util", "median_lat", "q3_lat", "met", "spec", "killed"];
    let schedulers = [
        EDF,
        Sched("EDF+spec", |_| Box::new(Speculative::new(Edf::new(), 1.5))),
        RUSH,
        Sched("RUSH+spec", |config| Box::new(Speculative::new(RushScheduler::new(config), 1.5))),
    ];
    let setup = |p| {
        let stragglers = Interference::Straggler { p, slowdown: 6.0 };
        on(&Experiment::paper_testbed(SEED).with_interference(stragglers), workload(60, 1.5))
    };
    sweep(&mut out, Table::new(headers), &[0.15], &schedulers, setup, |_, sched, r| {
        let attempts = [r.speculative_attempts, r.killed_attempts].map(|n| n.to_string());
        once(sched.to_owned()).chain(summary_cells(r)).chain(attempts)
    });
    out.push_str(
        "Reading the result: robust provisioning absorbs stragglers better than\n\
         speculation bolted onto a deadline scheduler (RUSH's tail metrics lead),\n\
         while speculation helps the medians of both — at the cost of duplicate\n\
         work that can eat into the tail under contention. The mechanisms are\n\
         orthogonal mitigations of the same uncertainty, as the paper's related\n\
         work frames them.\n",
    );
    (out, true)
}

/// A8: HDFS-style data placement under a remote-read penalty; the engine's
/// data-local task pick recovers most of it.
fn ablation_locality() -> Report {
    let mut out = String::from("Ablation A8: remote-read penalty sweep (40 jobs, budget 1.5x)\n\n");
    let t = Table::new(["penalty", "scheduler", "mean_util", "met", "locality"]);
    let setup = |penalty| {
        let placed = WorkloadConfig { assign_locality: true, ..workload(40, 1.5) };
        let s = on(&Experiment::paper_testbed(SEED), placed);
        Setup { sim: s.sim.with_remote_penalty(penalty), ..s }
    };
    sweep(&mut out, t, &[1.0, 1.25, 1.5, 2.0], &[RUSH, FIFO], setup, |penalty, sched, r| {
        let [mean, _, _, _, met] = summary_cells(r);
        [fmt_f64(penalty, 2), sched.to_owned(), mean, met, fmt_f64(r.locality_rate(), 2)]
    });
    out.push_str(
        "The engine's data-local task pick keeps the hit rate well above the\n\
         1/6 random baseline; residual remote reads tax utilities roughly in\n\
         proportion to the penalty.\n",
    );
    (out, true)
}

/// A9's workload size and budget ratio.
const A9_JOBS: usize = 60;
const A9_RATIO: f64 = 2.0;
/// Where A9 writes its JSON report.
const CAPACITY_REPORT: &str = "BENCH_ablation_capacity.json";

/// A9: spot revocation (duty cycle 0 → 0.7 on half the cluster) against a
/// δ sweep. Budgets are calibrated on the nominal cluster, so every
/// revocation eats into the planning margin: δ = 0 trusts the reference
/// distribution and keeps ordering as if the capacity were still there,
/// while the δ-ball's inflated η absorbs the shock.
fn ablation_capacity() -> Report {
    let mut out = format!(
        "Ablation A9: spot revocation x delta (budget {A9_RATIO}x, {A9_JOBS} jobs, seed {SEED})\n\n"
    );
    let headers = ["scenario", "rate", "scheduler", "hit_rate", "met", "mean_util", "zero_util"];
    let schedulers = [
        Sched("RUSH-d0", |config| rush(RushConfig { delta: 0.0, ..config })),
        Sched("RUSH-d0.35", |config| rush(RushConfig { delta: 0.35, ..config })),
        RUSH,
        FIFO,
        EDF,
    ];
    let setup = |scenario: SpotScenario| {
        // Lighter than the paper's ~80 % contention point: the calm
        // scenario must start comfortably feasible.
        let light = WorkloadConfig {
            mean_interarrival: 2.0 * CALIBRATED_INTERARRIVAL,
            ..workload(A9_JOBS, A9_RATIO)
        };
        let exp = Experiment::paper_testbed(SEED);
        let s = on(&exp, light);
        let horizon = s.jobs.iter().map(JobSpec::arrival).max().unwrap_or(0) + 20_000;
        let model = scenario.cluster_model(exp.cluster().capacity(), horizon);
        model.validate().expect("scenario model");
        Setup { sim: s.sim.with_capacity_events(model.sim_events()), ..s }
    };
    let t = Table::new(headers);
    let runs = sweep(&mut out, t, &spot_scenarios(), &schedulers, setup, |scenario, sched, r| {
        let [mean, zero, _, _, met] = summary_cells(r);
        let (name, rate) = (scenario.name.to_owned(), fmt_f64(scenario.revocation_rate, 2));
        [name, rate, sched.to_owned(), fmt_f64(hit_rate(&r.summary()), 3), met, mean, zero]
    });
    let pass = capacity_report(&runs, &mut out);
    (out, pass)
}

/// Deadline-hit rate among the time-aware jobs (1 when there are none).
fn hit_rate(s: &Summary) -> f64 {
    if s.time_aware == 0 {
        1.0
    } else {
        s.met as f64 / s.time_aware as f64
    }
}

/// A9's gate: writes [`CAPACITY_REPORT`] and checks, with
/// [`capacity_gate`], that at the highest revocation rate swept RUSH at the
/// default δ meets at least as many deadlines as the deterministic δ = 0
/// planner. The verdict line prints both hit rates either way.
fn capacity_report(runs: &[(SpotScenario, &str, SimResult)], out: &mut String) -> bool {
    let default_delta = RushConfig::default().delta;
    let top_rate = runs.iter().map(|(sc, ..)| sc.revocation_rate).fold(0.0f64, f64::max);
    let at_top = |sched: &str| {
        let top = runs.iter().find(|(sc, s, _)| sc.revocation_rate >= top_rate && *s == sched);
        top.expect("every scenario runs RUSH, RUSH-d0, FIFO and EDF").2.summary()
    };
    let (planned, det) = (at_top("RUSH"), at_top("RUSH-d0"));
    let _ = writeln!(
        out,
        "gate: at rate {top_rate} RUSH (delta {default_delta}) hits {:.3}, \
         deterministic delta=0 hits {:.3}",
        hit_rate(&planned),
        hit_rate(&det)
    );

    // Hand-rolled JSON: the workspace builds offline, without serde.
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"benchmark\": \"ablation_capacity\",");
    let _ = writeln!(s, "  \"unit\": \"deadline_hit_rate\",");
    let _ = writeln!(s, "  \"jobs\": {A9_JOBS},");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"budget_ratio\": {A9_RATIO},");
    let _ = writeln!(s, "  \"default_delta\": {default_delta},");
    let _ = writeln!(s, "  \"points\": [");
    for (i, (sc, sched, result)) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        // A RUSH row runs at the default δ or at the one its name carries.
        let delta = match *sched {
            "RUSH" => default_delta.to_string(),
            name => name.strip_prefix("RUSH-d").unwrap_or("null").to_owned(),
        };
        let r = result.summary();
        let _ = writeln!(
            s,
            "    {{\"scenario\": \"{}\", \"revocation_rate\": {}, \"scheduler\": \"{sched}\", \"delta\": {delta}, \"hit_rate\": {:.4}, \"met\": {}, \"total\": {}, \"mean_utility\": {:.4}, \"zero_utility_fraction\": {:.4}}}{comma}",
            sc.name,
            sc.revocation_rate,
            hit_rate(&r),
            r.met,
            r.time_aware,
            r.mean_utility,
            r.zero_utility_fraction,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"gate\": {{");
    let _ = writeln!(s, "    \"revocation_rate\": {top_rate},");
    let _ = writeln!(s, "    \"rush_hit_rate\": {:.4},", hit_rate(&planned));
    let _ = writeln!(s, "    \"deterministic_hit_rate\": {:.4},", hit_rate(&det));
    let _ = writeln!(s, "    \"fifo_hit_rate\": {:.4},", hit_rate(&at_top("FIFO")));
    let _ = writeln!(s, "    \"edf_hit_rate\": {:.4}", hit_rate(&at_top("EDF")));
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    if let Err(e) = std::fs::write(CAPACITY_REPORT, &s) {
        fatal(&format!("cannot write {CAPACITY_REPORT}: {e}"));
    }
    let _ = writeln!(out, "wrote {CAPACITY_REPORT}");
    capacity_gate(planned.met, det.met)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_improves_with_samples_and_delta() {
        let de = GaussianEstimator::new(1024);
        let lo = coverage(&de, 15, 0.0);
        let hi = coverage(&de, 55, 0.7);
        assert!(hi > lo, "coverage {hi} should beat {lo}");
        assert!(hi > 0.9);
    }

    #[test]
    fn coverage_of_a_complete_job_is_one() {
        assert_eq!(coverage(&MeanEstimator::new(1024), 101, 0.7), 1.0);
        assert_eq!(coverage(&MeanEstimator::new(1024), 150, 0.7), 1.0, "no underflow");
    }

    #[test]
    fn every_figure_has_a_unique_name_and_a_checked_in_result() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|(other, _)| other != name), "duplicate figure {name}");
            let path = format!("{results}/{name}.txt");
            assert!(std::path::Path::new(&path).is_file(), "{path} is not checked in");
        }
    }
}
