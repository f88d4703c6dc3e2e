//! Micro-benchmarks of the individual RUSH algorithms: the REM closed
//! form, the WCDE bisection, the onion peel and the continuous mapping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rush_core::mapping::{map_continuous, map_profile, MapJob, OccupationProfile};
use rush_core::onion::{peel, OnionJob};
use rush_core::{rem, wcde};
use rush_prob::dist::{Continuous, Gaussian};
use rush_prob::Pmf;
use rush_utility::TimeUtility;

fn reference(bins: usize) -> Pmf {
    Gaussian::new(bins as f64 / 2.0, bins as f64 / 12.0)
        .unwrap()
        .quantize(bins, 1)
        .unwrap()
        .with_support_floor(1e-12)
        .unwrap()
}

fn bench_rem(c: &mut Criterion) {
    let mut group = c.benchmark_group("rem_closed_form");
    group.sample_size(20);
    for bins in [128usize, 512, 2048] {
        let phi = reference(bins);
        group.bench_with_input(BenchmarkId::from_parameter(bins), &phi, |b, phi| {
            b.iter(|| rem::min_kl(std::hint::black_box(phi), bins / 2, 0.9).unwrap());
        });
    }
    group.finish();
}

fn bench_wcde(c: &mut Criterion) {
    let mut group = c.benchmark_group("wcde_bisection");
    group.sample_size(20);
    for bins in [128usize, 512, 2048] {
        let phi = reference(bins);
        group.bench_with_input(BenchmarkId::from_parameter(bins), &phi, |b, phi| {
            b.iter(|| wcde::worst_case_quantile(std::hint::black_box(phi), 0.9, 0.7).unwrap());
        });
    }
    group.finish();
}

fn bench_onion(c: &mut Criterion) {
    let mut group = c.benchmark_group("onion_peel");
    group.sample_size(10);
    for n in [10usize, 50, 200] {
        let utils: Vec<TimeUtility> = (0..n)
            .map(|i| {
                TimeUtility::sigmoid(100.0 + 37.0 * i as f64, 1.0 + (i % 5) as f64, 0.05)
                    .unwrap()
            })
            .collect();
        let jobs: Vec<OnionJob<'_>> = utils
            .iter()
            .enumerate()
            .map(|(i, u)| OnionJob { demand: 100 + 13 * i as u64, utility: u })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &jobs, |b, jobs| {
            b.iter(|| peel(std::hint::black_box(jobs), 48, 0.01, 1e6).unwrap());
        });
    }
    group.finish();
}

/// The segment-emitting Algorithm 4 next to the planner's run-length
/// mapper, on the paper testbed (48 containers, runs ≈ containers) and at
/// fleet scale (4096, where the profile stays a few hundred runs).
fn bench_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("continuous_mapping");
    group.sample_size(20);
    for capacity in [48u32, 4096] {
        for n in [10usize, 100, 1000] {
            let jobs: Vec<MapJob> = (0..n)
                .map(|i| MapJob {
                    tasks: 5 + (i % 20) as u64,
                    task_len: 10 + (i % 7) as u64,
                    target: 100 * (1 + i as u64),
                    lax: i % 5 == 0,
                })
                .collect();
            let id = format!("C{capacity}/{n}");
            group.bench_with_input(BenchmarkId::new("map_continuous", &id), &jobs, |b, jobs| {
                b.iter(|| map_continuous(std::hint::black_box(jobs), capacity).unwrap());
            });
            let mut profile = OccupationProfile::default();
            group.bench_with_input(BenchmarkId::new("map_profile", &id), &jobs, |b, jobs| {
                b.iter(|| {
                    map_profile(std::hint::black_box(jobs), capacity, &mut profile).unwrap().len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_rem, bench_wcde, bench_onion, bench_mapping);
criterion_main!(benches);
