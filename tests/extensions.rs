//! Integration tests of the extension features: task failures end-to-end
//! with RUSH, workload persistence round-trips through the experiment
//! driver, bursty arrivals, the CoRA comparison mode, and the LP reference
//! against a real workload's plan.

use rush::core::RushConfig;
use rush::planner::RushScheduler;
use rush::sched::Fifo;
use rush::sim::cluster::ClusterSpec;
use rush::sim::engine::{SimConfig, Simulation};
use rush::sim::perturb::{FailureModel, Interference};
use rush::workload::persist::{from_text, to_text};
use rush::workload::{generate, ArrivalProcess, Experiment, WorkloadConfig};

fn cluster() -> ClusterSpec {
    ClusterSpec::paper_testbed(4).unwrap()
}

#[test]
fn rush_completes_workload_under_failures() {
    let exp = Experiment::new(cluster()).with_sim_seed(3);
    let cfg = WorkloadConfig {
        jobs: 10,
        budget_ratio: 2.0,
        mean_interarrival: 80.0,
        max_map_tasks: 16,
        seed: 3,
        ..Default::default()
    };
    let workload = generate(&cfg, &exp).unwrap();
    let sim_cfg = SimConfig::new(cluster())
        .with_interference(Interference::LogNormal { cv: 0.25 })
        .with_failures(FailureModel::Bernoulli { p: 0.15 })
        .with_seed(3)
        .with_max_slots(10_000_000);
    let mut rush = RushScheduler::new(RushConfig::default());
    let r = Simulation::new(sim_cfg, workload).unwrap().run(&mut rush).unwrap();
    assert_eq!(r.outcomes.len(), 10);
    assert!(r.failed_attempts > 0, "p=0.15 over hundreds of tasks must fail sometimes");
}

#[test]
fn persisted_workload_reproduces_the_same_simulation() {
    let exp = Experiment::new(cluster()).with_sim_seed(7);
    let cfg = WorkloadConfig {
        jobs: 8,
        budget_ratio: 1.5,
        mean_interarrival: 60.0,
        max_map_tasks: 12,
        seed: 7,
        ..Default::default()
    };
    let original = generate(&cfg, &exp).unwrap();
    let text = to_text(&original);
    let restored = from_text(&text).unwrap();

    let mut f1 = Fifo::new();
    let mut f2 = Fifo::new();
    let r1 = exp.run(original, &mut f1).unwrap();
    let r2 = exp.run(restored, &mut f2).unwrap();
    assert_eq!(r1.outcomes, r2.outcomes, "persisted workload must replay identically");
    assert_eq!(r1.makespan, r2.makespan);
}

#[test]
fn bursty_arrivals_flow_through_the_driver() {
    let exp = Experiment::new(cluster()).with_sim_seed(4);
    let cfg = WorkloadConfig {
        jobs: 12,
        budget_ratio: 2.0,
        mean_interarrival: 50.0,
        arrivals: ArrivalProcess::Bursty { burst: 4 },
        max_map_tasks: 12,
        seed: 4,
        ..Default::default()
    };
    let workload = generate(&cfg, &exp).unwrap();
    // Bursts of 4 share arrival slots 1 apart.
    assert!(workload[1].arrival() - workload[0].arrival() <= 1);
    let mut rush = RushScheduler::new(RushConfig::default());
    let r = exp.run(workload, &mut rush).unwrap();
    assert_eq!(r.outcomes.len(), 12);
}

#[test]
fn cora_mode_runs_and_is_less_conservative() {
    // CoRA (δ=0, mean estimator) and RUSH both complete the workload;
    // their plans differ because RUSH provisions the robust quantile.
    let exp = Experiment::new(cluster()).with_sim_seed(5);
    let cfg = WorkloadConfig {
        jobs: 8,
        budget_ratio: 1.5,
        mean_interarrival: 60.0,
        max_map_tasks: 12,
        seed: 5,
        ..Default::default()
    };
    let workload = generate(&cfg, &exp).unwrap();
    let mut cora = RushScheduler::cora();
    let mut rush = RushScheduler::new(RushConfig::default());
    let rc = exp.run(workload.clone(), &mut cora).unwrap();
    let rr = exp.run(workload, &mut rush).unwrap();
    assert_eq!(rc.outcomes.len(), 8);
    assert_eq!(rr.outcomes.len(), 8);
}

#[test]
fn lp_reference_validates_a_real_plan_level() {
    use rush::core::onion::{peel, OnionJob, Shifted};
    use rush_oracle::lp::max_min_level_lp;
    use rush::utility::TimeUtility;
    // A realistic mid-run state: three jobs with different slack.
    let utils = [
        TimeUtility::sigmoid(120.0, 5.0, 0.1).unwrap(),
        TimeUtility::sigmoid(400.0, 3.0, 0.02).unwrap(),
        TimeUtility::sigmoid(250.0, 4.0, 0.05).unwrap(),
    ];
    let shifted: Vec<Shifted<'_>> =
        utils.iter().map(|u| Shifted::new(u, 20.0)).collect();
    let jobs: Vec<OnionJob<'_>> = shifted
        .iter()
        .zip([600u64, 900, 700])
        .map(|(u, demand)| OnionJob { demand, utility: u })
        .collect();
    let lp = max_min_level_lp(&jobs, 12, 1e-3, 1e6).unwrap();
    let targets = peel(&jobs, 12, 1e-3, 1e6).unwrap();
    let onion_min = targets.iter().map(|t| t.level).fold(f64::INFINITY, f64::min);
    assert!(
        (lp - onion_min).abs() < 0.05,
        "LP {lp} vs onion {onion_min} on a shifted mid-run instance"
    );
}
