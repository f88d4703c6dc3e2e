//! The experiment driver: replay one workload under several schedulers
//! with identical randomness.

use rush_core::cluster::ClusterModel;
use rush_sim::cluster::{CapacityEvent, ClusterSpec};
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::JobSpec;
use rush_sim::outcome::SimResult;
use rush_sim::perturb::Interference;
use rush_sim::{Scheduler, SimError};

/// A reusable experiment environment: cluster topology + interference
/// model + simulation seed.
///
/// Running the *same* jobs under different schedulers reuses the same
/// seed, so every scheduler faces an identically perturbed cluster — the
/// comparisons in Figs. 4 and 6 are paired.
#[derive(Debug, Clone)]
pub struct Experiment {
    cluster: ClusterSpec,
    interference: Interference,
    capacity_events: Vec<CapacityEvent>,
    sim_seed: u64,
    max_slots: u64,
}

impl Experiment {
    /// Creates an experiment on `cluster` with the default mild
    /// interference (log-normal, CV 0.2) and seed 0.
    pub fn new(cluster: ClusterSpec) -> Self {
        Experiment {
            cluster,
            interference: Interference::default(),
            capacity_events: Vec::new(),
            sim_seed: 0,
            max_slots: 10_000_000,
        }
    }

    /// The environment of the paper's Figs. 4 and 6: the six-node,
    /// 48-container testbed under mild shared-cloud interference
    /// (log-normal, CV 0.25).
    ///
    /// # Panics
    ///
    /// Never in practice: the testbed shape is static and valid.
    pub fn paper_testbed(seed: u64) -> Self {
        Experiment::new(ClusterSpec::paper_testbed(8).expect("static cluster is valid"))
            .with_interference(Interference::LogNormal { cv: 0.25 })
            .with_sim_seed(seed)
    }

    /// Sets the interference model.
    pub fn with_interference(mut self, interference: Interference) -> Self {
        self.interference = interference;
        self
    }

    /// Schedules a capacity trajectory (spot revocations, failure bursts)
    /// applied to every [`Experiment::run`]. Budget calibration via
    /// [`Experiment::benchmark`] deliberately ignores it: the paper
    /// benchmarks each job on the *nominal* cluster, so churn erodes the
    /// margin instead of inflating the budgets.
    pub fn with_capacity_events(mut self, events: Vec<CapacityEvent>) -> Self {
        self.capacity_events = events;
        self
    }

    /// [`Experiment::with_capacity_events`] from a typed
    /// [`ClusterModel`]'s event stream.
    pub fn with_cluster_model(self, model: &ClusterModel) -> Self {
        self.with_capacity_events(model.sim_events())
    }

    /// Sets the simulation seed (interference draws).
    pub fn with_sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Sets the safety horizon.
    pub fn with_max_slots(mut self, max_slots: u64) -> Self {
        self.max_slots = max_slots;
        self
    }

    /// The cluster topology.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The interference model.
    pub fn interference(&self) -> &Interference {
        &self.interference
    }

    /// Runs `jobs` to completion under `scheduler`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    pub fn run<S: Scheduler + ?Sized>(
        &self,
        jobs: Vec<JobSpec>,
        scheduler: &mut S,
    ) -> Result<SimResult, SimError> {
        let cfg = SimConfig::new(self.cluster.clone())
            .with_interference(self.interference.clone())
            .with_capacity_events(self.capacity_events.clone())
            .with_seed(self.sim_seed)
            .with_max_slots(self.max_slots);
        Simulation::new(cfg, jobs)?.run(scheduler)
    }

    /// Runs the same jobs under every named scheduler, returning
    /// `(name, result)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on the first scheduler whose run fails.
    pub fn compare(
        &self,
        jobs: &[JobSpec],
        schedulers: &mut [(&str, &mut dyn Scheduler)],
    ) -> Result<Vec<(String, SimResult)>, SimError> {
        let mut out = Vec::with_capacity(schedulers.len());
        for (name, sched) in schedulers.iter_mut() {
            let result = self.run(jobs.to_vec(), *sched)?;
            out.push(((*name).to_owned(), result));
        }
        Ok(out)
    }

    /// Benchmarks one job: its runtime when run **alone** on the full
    /// cluster (the paper's budget-calibration measurement), with
    /// benchmark-specific interference randomness.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn benchmark(&self, job: &JobSpec, bench_seed: u64) -> Result<u64, SimError> {
        let solo = JobSpec::builder(job.label())
            .arrival(0)
            .tasks(job.tasks().iter().copied())
            .utility(*job.utility())
            .build()?;
        let cfg = SimConfig::new(self.cluster.clone())
            .with_interference(self.interference.clone())
            .with_seed(bench_seed)
            .with_max_slots(self.max_slots);
        let mut fifo = rush_sim::scheduler::FcfsTaskOrder;
        let result = Simulation::new(cfg, vec![solo])?.run(&mut fifo)?;
        Ok(result.outcomes[0].runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_sim::job::{Phase, TaskSpec};
    use rush_utility::TimeUtility;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 4).unwrap()
    }

    fn job(label: &str, arrival: u64, tasks: usize) -> JobSpec {
        JobSpec::builder(label)
            .arrival(arrival)
            .tasks((0..tasks).map(|_| TaskSpec::new(20.0, Phase::Map)))
            .utility(TimeUtility::constant(1.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn run_and_compare_are_paired() {
        let exp = Experiment::new(cluster()).with_sim_seed(5);
        let jobs = vec![job("a", 0, 6), job("b", 10, 6)];
        let mut f1 = rush_sched::Fifo::new();
        let mut f2 = rush_sched::Fifo::new();
        let mut pair: [(&str, &mut dyn Scheduler); 2] =
            [("fifo1", &mut f1), ("fifo2", &mut f2)];
        let results = exp.compare(&jobs, &mut pair).unwrap();
        assert_eq!(results.len(), 2);
        // Identical scheduler + identical seed ⇒ identical outcomes.
        assert_eq!(results[0].1.makespan, results[1].1.makespan);
        assert_eq!(
            results[0].1.utility_vector(),
            results[1].1.utility_vector()
        );
    }

    #[test]
    fn benchmark_measures_solo_runtime() {
        let exp = Experiment::new(cluster())
            .with_interference(Interference::None);
        // 8 tasks of 20 slots on 8 containers: one wave.
        let rt = exp.benchmark(&job("solo", 500, 8), 1).unwrap();
        assert_eq!(rt, 20);
        // 16 tasks: two waves.
        let rt = exp.benchmark(&job("solo", 500, 16), 1).unwrap();
        assert_eq!(rt, 40);
    }

    #[test]
    fn interference_changes_benchmark() {
        let exp_noisy = Experiment::new(cluster())
            .with_interference(Interference::LogNormal { cv: 0.6 });
        let a = exp_noisy.benchmark(&job("x", 0, 8), 1).unwrap();
        let b = exp_noisy.benchmark(&job("x", 0, 8), 2).unwrap();
        assert_ne!(a, b, "different benchmark seeds should differ under noise");
    }

    #[test]
    fn capacity_events_apply_to_runs_but_not_benchmarks() {
        use rush_sim::cluster::{CapacityChange, CapacityEvent};
        let events = vec![
            CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 6 } },
            CapacityEvent { at: 120, change: CapacityChange::Restock { n: 6 } },
        ];
        let calm = Experiment::new(cluster()).with_interference(Interference::None);
        let churned = calm.clone().with_capacity_events(events);
        let jobs = vec![job("a", 0, 16), job("b", 0, 16)];
        let mut f1 = rush_sched::Fifo::new();
        let mut f2 = rush_sched::Fifo::new();
        let full = calm.run(jobs.clone(), &mut f1).unwrap();
        let starved = churned.run(jobs.clone(), &mut f2).unwrap();
        assert!(
            starved.makespan > full.makespan,
            "revocation must slow the run: {} vs {}",
            starved.makespan,
            full.makespan
        );
        // Budget calibration sees the nominal cluster either way.
        let a = calm.benchmark(&jobs[0], 1).unwrap();
        let b = churned.benchmark(&jobs[0], 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_model_trajectory_lowers_onto_runs() {
        use rush_core::cluster::ClusterModel;
        let model = ClusterModel::tiered(4, 0, 4).with_spot_churn(1, 0, 100, 60, 4, 3);
        let exp = Experiment::new(cluster())
            .with_interference(Interference::None)
            .with_cluster_model(&model);
        let jobs = vec![job("a", 0, 16)];
        let mut fifo = rush_sched::Fifo::new();
        let calm = Experiment::new(cluster())
            .with_interference(Interference::None)
            .run(jobs.clone(), &mut rush_sched::Fifo::new())
            .unwrap();
        let churned = exp.run(jobs, &mut fifo).unwrap();
        assert!(churned.makespan > calm.makespan);
    }

    #[test]
    fn accessors() {
        let exp = Experiment::new(cluster());
        assert_eq!(exp.cluster().capacity(), 8);
        assert_eq!(*exp.interference(), Interference::default());
    }
}
