//! Stage-level breakdown of one CA pass: estimate+WCDE vs onion peel vs
//! continuous mapping, at growing job counts. Used to decide where
//! incrementalization effort pays off (companion to `fig5`). The mapping
//! is timed twice on the same inputs — the segment-emitting
//! `map_continuous` and the planner's run-length `map_profile` — and the
//! whole table is printed for the paper testbed (`--capacity`, default 48)
//! and for a 4096-container fleet.

use rand::Rng;
use rush_bench::{flag, parse_args};
use rush_core::mapping::{map_continuous, map_profile, MapJob, OccupationProfile};
use rush_core::onion::{peel, OnionJob, Shifted};
use rush_core::plan::PlanInput;
use rush_core::wcde::worst_case_quantile;
use rush_core::RushConfig;
use rush_estimator::DistributionEstimator;
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_utility::TimeUtility;
use std::time::Instant;

fn synth_jobs(n: usize, seed: u64) -> Vec<PlanInput<'static>> {
    let mut rng = seeded_rng(derive_seed(seed, n as u64));
    (0..n)
        .map(|_| {
            let observed = rng.gen_range(5..40);
            let remaining = rng.gen_range(5..80);
            let mean: f64 = rng.gen_range(30.0..90.0);
            let samples: Vec<u64> = (0..observed)
                .map(|_| (mean + rng.gen_range(-15.0f64..15.0)).max(1.0) as u64)
                .collect();
            let budget = rng.gen_range(200.0..4000.0);
            PlanInput {
                samples: samples.into(),
                remaining_tasks: remaining,
                running: 0,
                failed_attempts: 0,
                age: rng.gen_range(0.0..200.0),
                utility: TimeUtility::sigmoid(budget, rng.gen_range(1.0..5.0), 10.0 / budget)
                    .expect("valid utility"),
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let reps: usize = flag(&args, "reps", 3);
    let capacity: u32 = flag(&args, "capacity", 48);
    for capacity in [capacity, 4096] {
        profile(reps, capacity);
    }
}

fn profile(reps: usize, capacity: u32) {
    let cfg = RushConfig::default();
    let de = cfg.estimator();
    let mut occupation = OccupationProfile::default();

    println!("capacity {capacity}");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>15}",
        "jobs", "est+wcde_ms", "peel_ms", "map_ms", "map_profile_ms"
    );
    for &n in &[100usize, 500, 1000] {
        let jobs = synth_jobs(n, 1);
        let (mut t_est, mut t_peel, mut t_map, mut t_profile) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut etas = Vec::with_capacity(n);
            let mut task_lens = Vec::with_capacity(n);
            for j in &jobs {
                let est = de.estimate(&j.samples, j.remaining_tasks).unwrap();
                let eta = worst_case_quantile(&est.pmf, cfg.theta, cfg.delta).unwrap().eta;
                etas.push(eta);
                task_lens.push(est.mean_task_runtime.ceil().max(1.0) as u64);
            }
            t_est += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let shifted: Vec<Shifted<'_>> =
                jobs.iter().map(|j| Shifted::new(&j.utility, j.age)).collect();
            let onion_jobs: Vec<OnionJob<'_>> = shifted
                .iter()
                .zip(&etas)
                .map(|(u, &eta)| OnionJob { demand: eta, utility: u })
                .collect();
            let targets = peel(&onion_jobs, capacity, cfg.tolerance, cfg.horizon).unwrap();
            t_peel += t1.elapsed().as_secs_f64();

            let t2 = Instant::now();
            let mut target_of = vec![0.0f64; n];
            let mut lax_of = vec![false; n];
            for t in &targets {
                target_of[t.job] = t.deadline;
                lax_of[t.job] = t.lax;
            }
            let map_jobs: Vec<MapJob> = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let nt = job.remaining_tasks as u64;
                    let r = if nt > 0 { etas[i].div_ceil(nt).max(task_lens[i]) } else { task_lens[i] };
                    MapJob { tasks: nt, task_len: r, target: target_of[i].max(1.0) as u64, lax: lax_of[i] }
                })
                .collect();
            let _ = map_continuous(&map_jobs, capacity).unwrap();
            t_map += t2.elapsed().as_secs_f64();

            let t3 = Instant::now();
            let _ = map_profile(&map_jobs, capacity, &mut occupation).unwrap();
            t_profile += t3.elapsed().as_secs_f64();
        }
        let r = reps as f64;
        println!(
            "{n:>6} {:>12.2} {:>12.2} {:>12.2} {:>15.3}",
            t_est * 1e3 / r,
            t_peel * 1e3 / r,
            t_map * 1e3 / r,
            t_profile * 1e3 / r
        );
    }
}
