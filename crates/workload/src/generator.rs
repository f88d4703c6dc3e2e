//! The randomized workload generator with budget calibration.
//!
//! Reproduces the paper's evaluation workload: jobs drawn round-robin from
//! the eight PUMA templates, dataset sizes uniform in 1–10 GB, Poisson
//! arrivals, priorities `W ∈ 1..5`, a 20/60/20 sensitivity mix, and time
//! budgets set to `budget_ratio ×` each job's benchmarked solo runtime.

use crate::experiment::Experiment;
use crate::templates::{puma_templates, JobTemplate};
use rand::Rng;
use rush_prob::dist::{Continuous, Exponential};
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_sim::job::{JobSpec, Phase, TaskSpec};
use rush_sim::{SimError, Slot};
use rush_utility::Sensitivity;

/// How job arrival times are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times with the config's
    /// mean (the paper's process).
    Poisson,
    /// On/off bursts: `burst` jobs arrive back-to-back (1 slot apart), then
    /// the cluster idles so that the *long-run* mean inter-arrival time
    /// still matches the config — a stress pattern for reservation-based
    /// schedulers.
    Bursty {
        /// Jobs per burst (≥ 1).
        burst: u32,
    },
}

/// Workload-generation parameters (defaults = the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of jobs (paper: 100).
    pub jobs: usize,
    /// Mean inter-arrival time in slots (paper: 130 s).
    pub mean_interarrival: f64,
    /// The arrival process shape (paper: Poisson).
    pub arrivals: ArrivalProcess,
    /// Dataset size range in GB, uniform (paper: 1–10).
    pub dataset_gb: (f64, f64),
    /// Priority weight range, inclusive (paper: 1–5).
    pub priority: (u32, u32),
    /// Fraction of completion-time-critical jobs (paper: 0.2).
    pub critical_frac: f64,
    /// Fraction of completion-time-sensitive jobs (paper: 0.6); the
    /// remainder is insensitive.
    pub sensitive_frac: f64,
    /// Time budget as a multiple of the benchmarked runtime (paper: 2,
    /// 1.5, 1).
    pub budget_ratio: f64,
    /// Cap on map tasks per job (keeps simulations tractable).
    pub max_map_tasks: usize,
    /// Assign each map task a random input-data node (HDFS-style
    /// placement), enabling the simulator's remote-execution penalty.
    pub assign_locality: bool,
    /// Master seed for all generation randomness.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            jobs: 100,
            mean_interarrival: 130.0,
            arrivals: ArrivalProcess::Poisson,
            dataset_gb: (1.0, 10.0),
            priority: (1, 5),
            critical_frac: 0.2,
            sensitive_frac: 0.6,
            budget_ratio: 2.0,
            max_map_tasks: 96,
            assign_locality: false,
            seed: 0,
        }
    }
}

impl WorkloadConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for out-of-range fields.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.jobs == 0 {
            return Err(SimError::InvalidConfig { reason: "jobs must be > 0" });
        }
        if !(self.mean_interarrival.is_finite() && self.mean_interarrival > 0.0) {
            return Err(SimError::InvalidConfig { reason: "mean_interarrival must be > 0" });
        }
        if !(self.dataset_gb.0 > 0.0 && self.dataset_gb.1 >= self.dataset_gb.0) {
            return Err(SimError::InvalidConfig { reason: "dataset_gb range invalid" });
        }
        if self.priority.0 == 0 || self.priority.1 < self.priority.0 {
            return Err(SimError::InvalidConfig { reason: "priority range invalid" });
        }
        if !(0.0..=1.0).contains(&self.critical_frac)
            || !(0.0..=1.0).contains(&self.sensitive_frac)
            || self.critical_frac + self.sensitive_frac > 1.0
        {
            return Err(SimError::InvalidConfig { reason: "sensitivity mix invalid" });
        }
        if !(self.budget_ratio.is_finite() && self.budget_ratio > 0.0) {
            return Err(SimError::InvalidConfig { reason: "budget_ratio must be > 0" });
        }
        if self.max_map_tasks == 0 {
            return Err(SimError::InvalidConfig { reason: "max_map_tasks must be > 0" });
        }
        if let ArrivalProcess::Bursty { burst } = self.arrivals {
            if burst == 0 {
                return Err(SimError::InvalidConfig { reason: "burst must be >= 1" });
            }
        }
        Ok(())
    }
}

/// Draws the task list of one job instance from its template.
fn draw_tasks<R: Rng + ?Sized>(
    template: &JobTemplate,
    gb: f64,
    max_maps: usize,
    rng: &mut R,
) -> Vec<TaskSpec> {
    let maps = template.map_tasks(gb, max_maps);
    let reduces = template.reduce_tasks(gb);
    let mut tasks = Vec::with_capacity(maps + reduces);
    for _ in 0..maps {
        tasks.push(TaskSpec::new(template.map_runtime.sample(rng), Phase::Map));
    }
    for _ in 0..reduces {
        tasks.push(TaskSpec::new(template.reduce_runtime.sample(rng), Phase::Reduce));
    }
    tasks
}

/// Generates the paper's evaluation workload on the experiment's cluster.
///
/// Each job is benchmarked solo on the cluster (with the experiment's
/// interference model) to fix its time budget at
/// `budget_ratio × benchmarked runtime`; its utility follows its
/// sensitivity class.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for invalid parameters; simulator errors
/// from the benchmark runs.
pub fn generate(cfg: &WorkloadConfig, exp: &Experiment) -> Result<Vec<JobSpec>, SimError> {
    cfg.validate()?;
    let templates = puma_templates();
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xA11));
    let interarrival = Exponential::from_mean(cfg.mean_interarrival)
        .expect("validated mean_interarrival");

    // Sensitivity mix assigned deterministically by quota, then shuffled by
    // arrival randomness (the i-th job's class depends only on cfg).
    let n_crit = (cfg.jobs as f64 * cfg.critical_frac).round() as usize;
    let n_sens = (cfg.jobs as f64 * cfg.sensitive_frac).round() as usize;
    let mut classes: Vec<Sensitivity> = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        classes.push(if i < n_crit {
            Sensitivity::Critical
        } else if i < n_crit + n_sens {
            Sensitivity::Sensitive
        } else {
            Sensitivity::Insensitive
        });
    }
    // Fisher–Yates with the workload RNG.
    for i in (1..classes.len()).rev() {
        let j = rng.gen_range(0..=i);
        classes.swap(i, j);
    }

    let mut jobs = Vec::with_capacity(cfg.jobs);
    let mut arrival = 0f64;
    for i in 0..cfg.jobs {
        let template = &templates[i % templates.len()];
        let gb = rng.gen_range(cfg.dataset_gb.0..=cfg.dataset_gb.1);
        let mut tasks = draw_tasks(template, gb, cfg.max_map_tasks, &mut rng);
        if cfg.assign_locality {
            let nodes = exp.cluster().nodes().len() as u32;
            for t in tasks.iter_mut() {
                if t.phase() == Phase::Map {
                    *t = t.with_preference(rush_sim::NodeId(rng.gen_range(0..nodes)));
                }
            }
        }
        let priority = rng.gen_range(cfg.priority.0..=cfg.priority.1);
        arrival += match cfg.arrivals {
            ArrivalProcess::Poisson => interarrival.sample(&mut rng),
            ArrivalProcess::Bursty { burst } => {
                // Last job of each burst waits out the idle period that
                // restores the long-run mean.
                if (i as u32 + 1).is_multiple_of(burst) {
                    (cfg.mean_interarrival - 1.0) * burst as f64 + 1.0
                } else {
                    1.0
                }
            }
        };
        let arrival_slot = arrival.round() as Slot;

        // Benchmark pass: solo runtime on the full cluster.
        let probe = JobSpec::builder(template.name)
            .tasks(tasks.iter().copied())
            .utility(rush_utility::TimeUtility::constant(1.0).expect("static utility"))
            .build()?;
        let bench = exp.benchmark(&probe, derive_seed(cfg.seed, 0xBE000 + i as u64))?;
        let budget = ((bench as f64 * cfg.budget_ratio).round() as Slot).max(1);

        let sensitivity = classes[i];
        let utility = sensitivity
            .utility_for(budget as f64, priority as f64)
            .map_err(|_| SimError::InvalidConfig { reason: "utility construction failed" })?;
        jobs.push(
            JobSpec::builder(template.name)
                .arrival(arrival_slot)
                .tasks(tasks)
                .utility(utility)
                .priority(priority)
                .sensitivity(sensitivity)
                .budget(budget)
                .build()?,
        );
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_sim::cluster::ClusterSpec;

    fn small_cfg(jobs: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig { jobs, max_map_tasks: 24, seed, ..Default::default() }
    }

    fn exp() -> Experiment {
        Experiment::new(ClusterSpec::homogeneous(2, 8).unwrap())
    }

    #[test]
    fn generates_requested_count_with_mix() {
        let cfg = small_cfg(40, 3);
        let jobs = generate(&cfg, &exp()).unwrap();
        assert_eq!(jobs.len(), 40);
        let crit = jobs.iter().filter(|j| j.sensitivity() == Sensitivity::Critical).count();
        let sens = jobs.iter().filter(|j| j.sensitivity() == Sensitivity::Sensitive).count();
        let insens =
            jobs.iter().filter(|j| j.sensitivity() == Sensitivity::Insensitive).count();
        assert_eq!(crit, 8);
        assert_eq!(sens, 24);
        assert_eq!(insens, 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small_cfg(10, 42);
        let a = generate(&cfg, &exp()).unwrap();
        let b = generate(&cfg, &exp()).unwrap();
        assert_eq!(a, b);
        let c = generate(&small_cfg(10, 43), &exp()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn budgets_scale_with_ratio() {
        let mut cfg = small_cfg(8, 7);
        cfg.budget_ratio = 1.0;
        let tight = generate(&cfg, &exp()).unwrap();
        cfg.budget_ratio = 2.0;
        let loose = generate(&cfg, &exp()).unwrap();
        for (t, l) in tight.iter().zip(loose.iter()) {
            let bt = t.budget().unwrap();
            let bl = l.budget().unwrap();
            assert!(
                (bl as f64 - 2.0 * bt as f64).abs() <= 2.0,
                "budget {bl} should be ~2x {bt}"
            );
        }
    }

    #[test]
    fn arrivals_are_increasing_and_poisson_scaled() {
        let cfg = WorkloadConfig { jobs: 60, max_map_tasks: 16, seed: 9, ..Default::default() };
        let jobs = generate(&cfg, &exp()).unwrap();
        let arrivals: Vec<u64> = jobs.iter().map(|j| j.arrival()).collect();
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let span = *arrivals.last().unwrap() as f64;
        let mean_gap = span / (jobs.len() - 1) as f64;
        assert!(
            (mean_gap - 130.0).abs() < 60.0,
            "mean inter-arrival {mean_gap} should be near 130"
        );
    }

    #[test]
    fn priorities_within_range() {
        let jobs = generate(&small_cfg(30, 11), &exp()).unwrap();
        assert!(jobs.iter().all(|j| (1..=5).contains(&j.priority())));
    }

    #[test]
    fn templates_rotate() {
        let jobs = generate(&small_cfg(16, 1), &exp()).unwrap();
        let mut labels: Vec<&str> = jobs.iter().map(|j| j.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8, "all eight templates used");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let exp = exp();
        for cfg in [
            WorkloadConfig { jobs: 0, ..Default::default() },
            WorkloadConfig { mean_interarrival: 0.0, ..Default::default() },
            WorkloadConfig { dataset_gb: (0.0, 5.0), ..Default::default() },
            WorkloadConfig { dataset_gb: (5.0, 1.0), ..Default::default() },
            WorkloadConfig { priority: (0, 5), ..Default::default() },
            WorkloadConfig { priority: (3, 2), ..Default::default() },
            WorkloadConfig { critical_frac: 0.9, sensitive_frac: 0.9, ..Default::default() },
            WorkloadConfig { budget_ratio: 0.0, ..Default::default() },
            WorkloadConfig { max_map_tasks: 0, ..Default::default() },
        ] {
            assert!(generate(&cfg, &exp).is_err(), "{cfg:?} must be rejected");
        }
    }

    #[test]
    fn bursty_arrivals_cluster_and_keep_long_run_mean() {
        let cfg = WorkloadConfig {
            jobs: 20,
            arrivals: ArrivalProcess::Bursty { burst: 5 },
            mean_interarrival: 40.0,
            max_map_tasks: 8,
            seed: 2,
            ..Default::default()
        };
        let jobs = generate(&cfg, &exp()).unwrap();
        let arrivals: Vec<u64> = jobs.iter().map(|j| j.arrival()).collect();
        // Within a burst: 1-slot gaps.
        assert_eq!(arrivals[1] - arrivals[0], 1);
        assert_eq!(arrivals[2] - arrivals[1], 1);
        // Long-run rate matches the mean within rounding.
        let span = (arrivals[19] - arrivals[0]) as f64;
        let mean_gap = span / 19.0;
        assert!((mean_gap - 40.0).abs() < 12.0, "mean gap {mean_gap}");
        assert!(generate(
            &WorkloadConfig {
                arrivals: ArrivalProcess::Bursty { burst: 0 },
                ..Default::default()
            },
            &exp()
        )
        .is_err());
    }

    #[test]
    fn locality_assignment_covers_maps_only() {
        let cfg = WorkloadConfig {
            jobs: 6,
            assign_locality: true,
            max_map_tasks: 12,
            seed: 13,
            ..Default::default()
        };
        let jobs = generate(&cfg, &exp()).unwrap();
        for j in &jobs {
            for t in j.tasks() {
                match t.phase() {
                    rush_sim::job::Phase::Map => assert!(t.preferred_node().is_some()),
                    rush_sim::job::Phase::Reduce => assert!(t.preferred_node().is_none()),
                }
            }
        }
        // Without the flag, nothing is assigned.
        let plain = generate(
            &WorkloadConfig { jobs: 2, max_map_tasks: 8, seed: 13, ..Default::default() },
            &exp(),
        )
        .unwrap();
        assert!(plain.iter().all(|j| j.tasks().iter().all(|t| t.preferred_node().is_none())));
    }

    #[test]
    fn budgets_are_positive_and_plausible() {
        let jobs = generate(&small_cfg(12, 21), &exp()).unwrap();
        for j in jobs {
            let b = j.budget().unwrap();
            assert!(b >= 1);
            // The solo benchmark can't beat the longest single task; with
            // ratio 2 the budget must exceed the mean task runtime.
            assert!(b as f64 > 30.0, "budget {b} suspiciously small");
        }
    }
}
