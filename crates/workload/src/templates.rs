//! The eight PUMA-like job templates.
//!
//! PUMA (Purdue MapReduce Benchmarks) spans CPU-bound counting jobs,
//! shuffle-heavy sorts and skewed join/classification workloads. We model
//! each template by its input-split size (which sets the map-task count for
//! a dataset), its reduce-task scaling, and per-phase task-runtime
//! distributions. Values are synthetic but preserve the heterogeneity the
//! paper relies on: task means spanning ~35–90 slots, symmetric and
//! right-skewed shapes, and different map/reduce balances.

use rand::Rng;
use rush_prob::dist::{Continuous, Gaussian, LogNormal};

/// The runtime distribution family of one task phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuntimeDist {
    /// Symmetric Gaussian runtimes (CPU-bound phases).
    Gaussian {
        /// Mean runtime in slots.
        mean: f64,
        /// Standard deviation in slots.
        std: f64,
    },
    /// Right-skewed log-normal runtimes (I/O- or shuffle-bound phases,
    /// prone to stragglers).
    LogNormal {
        /// Mean runtime in slots.
        mean: f64,
        /// Standard deviation in slots.
        std: f64,
    },
}

impl RuntimeDist {
    /// Draws one task runtime (slots, ≥ 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let v = match *self {
            RuntimeDist::Gaussian { mean, std } => {
                Gaussian::new(mean, std).expect("template params valid").sample(rng)
            }
            RuntimeDist::LogNormal { mean, std } => {
                LogNormal::from_mean_std(mean, std).expect("template params valid").sample(rng)
            }
        };
        v.max(1.0)
    }

    /// The distribution's mean runtime.
    pub fn mean(&self) -> f64 {
        match *self {
            RuntimeDist::Gaussian { mean, .. } | RuntimeDist::LogNormal { mean, .. } => mean,
        }
    }
}

/// One job template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTemplate {
    /// Template name (PUMA workload).
    pub name: &'static str,
    /// Input-split size: one map task per `split_mb` of dataset.
    pub split_mb: u32,
    /// Map-task runtime distribution.
    pub map_runtime: RuntimeDist,
    /// Reduce-task runtime distribution.
    pub reduce_runtime: RuntimeDist,
    /// Reduce tasks per 10 GB of input (minimum 1).
    pub reduces_per_10gb: u32,
}

impl JobTemplate {
    /// Number of map tasks for a dataset of `gb` gigabytes, capped at
    /// `max_maps`.
    pub fn map_tasks(&self, gb: f64, max_maps: usize) -> usize {
        let maps = (gb * 1024.0 / self.split_mb as f64).ceil() as usize;
        maps.clamp(1, max_maps.max(1))
    }

    /// Number of reduce tasks for a dataset of `gb` gigabytes.
    pub fn reduce_tasks(&self, gb: f64) -> usize {
        ((self.reduces_per_10gb as f64 * gb / 10.0).round() as usize).max(1)
    }
}

/// The eight templates of the paper's evaluation mix.
pub fn puma_templates() -> [JobTemplate; 8] {
    [
        JobTemplate {
            name: "WordCount",
            split_mb: 128,
            map_runtime: RuntimeDist::Gaussian { mean: 55.0, std: 15.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 40.0, std: 10.0 },
            reduces_per_10gb: 4,
        },
        JobTemplate {
            name: "TeraSort",
            split_mb: 128,
            map_runtime: RuntimeDist::Gaussian { mean: 45.0, std: 10.0 },
            reduce_runtime: RuntimeDist::LogNormal { mean: 90.0, std: 45.0 },
            reduces_per_10gb: 8,
        },
        JobTemplate {
            name: "InvertedIndex",
            split_mb: 128,
            map_runtime: RuntimeDist::Gaussian { mean: 70.0, std: 20.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 60.0, std: 20.0 },
            reduces_per_10gb: 4,
        },
        JobTemplate {
            name: "SelfJoin",
            split_mb: 256,
            map_runtime: RuntimeDist::LogNormal { mean: 60.0, std: 30.0 },
            reduce_runtime: RuntimeDist::LogNormal { mean: 75.0, std: 35.0 },
            reduces_per_10gb: 4,
        },
        JobTemplate {
            name: "SequenceCount",
            split_mb: 128,
            map_runtime: RuntimeDist::Gaussian { mean: 65.0, std: 18.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 50.0, std: 15.0 },
            reduces_per_10gb: 4,
        },
        JobTemplate {
            name: "HistogramMovies",
            split_mb: 256,
            map_runtime: RuntimeDist::Gaussian { mean: 35.0, std: 8.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 30.0, std: 8.0 },
            reduces_per_10gb: 1,
        },
        JobTemplate {
            name: "HistogramRatings",
            split_mb: 256,
            map_runtime: RuntimeDist::Gaussian { mean: 38.0, std: 9.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 32.0, std: 9.0 },
            reduces_per_10gb: 1,
        },
        JobTemplate {
            name: "MovieClassification",
            split_mb: 256,
            map_runtime: RuntimeDist::LogNormal { mean: 80.0, std: 40.0 },
            reduce_runtime: RuntimeDist::Gaussian { mean: 55.0, std: 15.0 },
            reduces_per_10gb: 2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_prob::rng::seeded_rng;

    #[test]
    fn eight_distinct_templates() {
        let ts = puma_templates();
        let mut names: Vec<&str> = ts.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn map_task_counts_scale_with_dataset() {
        let wc = puma_templates()[0];
        assert_eq!(wc.map_tasks(1.0, 1000), 8); // 1024/128
        assert_eq!(wc.map_tasks(10.0, 1000), 80);
        assert_eq!(wc.map_tasks(10.0, 48), 48); // cap
        assert_eq!(wc.map_tasks(0.01, 1000), 1); // floor
    }

    #[test]
    fn reduce_task_counts() {
        let ts = puma_templates();
        let terasort = ts[1];
        assert_eq!(terasort.reduce_tasks(10.0), 8);
        assert_eq!(terasort.reduce_tasks(1.0), 1); // floor at 1
        let hist = ts[5];
        assert_eq!(hist.reduce_tasks(10.0), 1);
    }

    #[test]
    fn runtime_samples_positive_and_near_mean() {
        let mut rng = seeded_rng(3);
        for t in puma_templates() {
            let n = 4000;
            let mean: f64 =
                (0..n).map(|_| t.map_runtime.sample(&mut rng)).sum::<f64>() / n as f64;
            let expected = t.map_runtime.mean();
            assert!(
                (mean - expected).abs() / expected < 0.06,
                "{}: sampled {mean} vs {expected}",
                t.name
            );
        }
    }

    #[test]
    fn lognormal_templates_are_right_skewed() {
        let mut rng = seeded_rng(4);
        let sj = puma_templates()[3];
        let mut samples: Vec<f64> = (0..4000).map(|_| sj.map_runtime.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[2000];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(median < mean, "median {median} < mean {mean}");
    }

    #[test]
    fn samples_are_at_least_one_slot() {
        let mut rng = seeded_rng(5);
        let d = RuntimeDist::Gaussian { mean: 2.0, std: 10.0 };
        for _ in 0..500 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
    }
}
