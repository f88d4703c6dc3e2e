//! The staged CA pass against the complete one.
//!
//! * A map stopped at any pack position and resumed there places every job
//!   exactly where one uninterrupted `map_profile` call does, on the Fig. 5
//!   fleet shape at the paper testbed's 48 containers and at 4 096.
//! * A pass read job by job through `PlanState::entry` — strict and lax
//!   jobs, in any order, some passes never read past their solve stage —
//!   gives the entries and memo counters of `compute_plan_incremental` on a
//!   twin state, and of a cold `compute_plan`.
//! * The deferred phase, run after the peel wrote its pass back, places
//!   the lax jobs where a deferred phase inside the peel placed them: the
//!   plans' digests were recorded with the phase inside `peel_incremental`.
//!
//! Run in release too (CI does): debug builds complete every 64th pass at
//! its solve stage to spot-check it, so only a release build reads those
//! passes in stages.

use rush_core::mapping::{map_profile, MapJob, MapSummary, OccupationProfile};
use rush_core::onion::{peel, OnionJob};
use rush_core::plan::{compute_plan, compute_plan_incremental, PlanInput, PlanState};
use rush_core::RushConfig;
use rush_utility::TimeUtility;

/// xorshift64*: a deterministic stream for the fleets and event streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fig. 5's synthetic WordCount-like jobs (5–40 samples around a 30–90
/// slot mean, 5–80 tasks left, sigmoid budgets 200–4000), every fifth one
/// time-insensitive so the pass has lax jobs besides the hopeless ones.
fn fleet(n: usize, seed: u64) -> Vec<PlanInput<'static>> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let mean = rng.range(30, 90);
            let samples: Vec<u64> =
                (0..rng.range(5, 40)).map(|_| (mean + rng.range(0, 30)).saturating_sub(15).max(1)).collect();
            let budget = 200.0 + rng.unit() * 3800.0;
            let utility = if i % 5 == 4 {
                TimeUtility::constant(1.0 + rng.unit()).unwrap()
            } else {
                TimeUtility::sigmoid(budget, 1.0 + 4.0 * rng.unit(), 10.0 / budget).unwrap()
            };
            PlanInput {
                key: i as u64,
                generation: None,
                samples: samples.into(),
                remaining_tasks: rng.range(5, 80) as usize,
                failed_attempts: 0,
                age: rng.unit() * 200.0,
                utility,
            }
        })
        .collect()
}

/// The mapping inputs a pass builds from `jobs`: η and R from the plan,
/// strict targets shaved by R, lax jobs keyed on their own demand.
fn map_jobs(jobs: &[PlanInput<'_>], capacity: u32) -> Vec<MapJob> {
    let cfg = RushConfig::default();
    let plan = compute_plan(&cfg, capacity, jobs).unwrap();
    let onion: Vec<OnionJob> = plan
        .entries
        .iter()
        .zip(jobs)
        .map(|(e, j)| OnionJob { demand: e.eta, utility: j.utility, age: j.age })
        .collect();
    let mut lax = vec![false; jobs.len()];
    for t in peel(&onion, capacity, cfg.tolerance, cfg.horizon).unwrap() {
        lax[t.job] = t.lax;
    }
    jobs.iter()
        .zip(&plan.entries)
        .zip(&lax)
        .map(|((job, e), &lax)| {
            let n = job.remaining_tasks as u64;
            let r = e.eta.div_ceil(n).max(e.task_len);
            if lax {
                MapJob { tasks: n, task_len: r, target: n * r, lax: true }
            } else {
                MapJob { tasks: n, task_len: r, target: (e.target - r as f64).max(1.0) as u64, lax: false }
            }
        })
        .collect()
}

/// Stops a map at every pack position `k` and resumes it, once straight to
/// the end and once through a second stop halfway there: every summary
/// placed by `k` is already final, nothing else is, and the finished map
/// equals one `map_profile` call bit for bit.
fn resumes_at_every_position(jobs: &[MapJob], capacity: u32) {
    let whole: Vec<MapSummary> = map_profile(jobs, capacity, &mut OccupationProfile::default()).unwrap().to_vec();
    let strict = jobs.iter().filter(|j| !j.lax).count();
    assert!(strict > 0 && strict < jobs.len(), "the fleet needs strict and lax jobs");
    let mut profile = OccupationProfile::default();
    for k in 0..=jobs.len() {
        for stops in [&[k][..], &[k, k + (jobs.len() - k) / 2]] {
            profile.start(jobs, capacity).unwrap();
            for &stop in stops {
                profile.map_through(stop);
                assert_eq!(profile.mapped(), stop);
                for (i, &s) in whole.iter().enumerate() {
                    let placed = profile.position(i).unwrap() < stop;
                    assert_eq!(profile.summary(i), placed.then_some(s), "k {k}, stop {stop}, job {i}");
                }
            }
            profile.map_through(jobs.len());
            let stats = profile.last_stats();
            assert_eq!(stats.reused_prefix + stats.repacked, jobs.len());
            assert_eq!(profile.summaries(), Some(&whole[..]), "resumed at {stops:?} of {}", jobs.len());
        }
    }
    // The strict/lax boundary and a resume past the end are positions too.
    profile.start(jobs, capacity).unwrap();
    profile.map_through(strict);
    assert!(profile.summaries().is_none());
    profile.map_through(usize::MAX);
    assert_eq!(profile.summaries(), Some(&whole[..]));
}

#[test]
fn a_map_resumed_at_any_pack_position_matches_one_pass_on_48_containers() {
    for seed in [1, 2, 3] {
        resumes_at_every_position(&map_jobs(&fleet(60, seed), 48), 48);
    }
}

#[test]
fn a_map_resumed_at_any_pack_position_matches_one_pass_on_4096_containers() {
    resumes_at_every_position(&map_jobs(&fleet(160, 7), 4096), 4096);
}

/// One scheduling event on the fleet: a task completes, a job leaves, one
/// arrives, or the clock ticks.
fn event(jobs: &mut Vec<PlanInput<'static>>, rng: &mut Rng, step: u64) {
    let k = rng.range(0, jobs.len() as u64) as usize;
    match rng.range(0, 5) {
        0 | 1 => {
            let job = &mut jobs[k];
            job.samples.to_mut().push(rng.range(20, 100));
            job.remaining_tasks = job.remaining_tasks.saturating_sub(1).max(1);
        }
        2 if jobs.len() > 8 => drop(jobs.remove(k)),
        3 => {
            // An arrival's key is above every key handed out before it.
            let key = 1000 + step;
            jobs.extend(fleet(1, step * 7919 + 3).into_iter().map(|j| PlanInput { key, ..j }));
        }
        _ => jobs.iter_mut().for_each(|j| j.age += 1.0),
    }
}

/// A state read in stages against a twin that completes every pass.
fn staged_reads_match_complete_passes(capacity: u32, seed: u64) {
    let cfg = RushConfig::default();
    let mut rng = Rng(seed);
    let mut jobs = fleet(40, seed);
    let (mut staged, mut twin) = (PlanState::new(), PlanState::new());
    let (mut lax_reads, mut strict_reads) = (0, 0);
    for step in 0..80 {
        event(&mut jobs, &mut rng, step);
        let whole = compute_plan_incremental(&cfg, capacity, &jobs, &mut twin).unwrap();
        staged.solve(&cfg, capacity, &jobs).unwrap();
        let solves: Vec<_> = whole.entries.iter().map(|e| (e.eta, e.task_len)).collect();
        let got: Vec<_> = staged.solves().iter().map(|s| (s.eta, s.task_len)).collect();
        assert_eq!(got, solves, "step {step}: solve stage");
        // Some passes end at their solve stage, as an admission epoch's does.
        if step % 4 == 3 {
            continue;
        }
        for _ in 0..rng.range(1, 6) {
            let i = rng.range(0, jobs.len() as u64 + 1) as usize;
            let entry = staged.entry(i).unwrap();
            assert_eq!(entry.as_ref(), whole.entries.get(i), "step {step}: job {i}");
            if let Some(e) = entry {
                let lax = e.level <= 1e-9 || matches!(jobs[i].utility, TimeUtility::Constant { .. });
                *(if lax { &mut lax_reads } else { &mut strict_reads }) += 1;
            }
        }
        if step % 5 == 0 {
            assert_eq!(staged.finish().unwrap(), whole, "step {step}: finished");
        }
        assert_eq!(
            (staged.cache().hits(), staged.cache().misses()),
            (twin.cache().hits(), twin.cache().misses()),
            "step {step}: memo counters"
        );
    }
    assert_eq!(staged.finish().unwrap(), compute_plan(&cfg, capacity, &jobs).unwrap());
    assert!(lax_reads > 10 && strict_reads > 10, "{lax_reads} lax, {strict_reads} strict reads");
}

#[test]
fn entries_read_in_stages_match_complete_passes_on_48_containers() {
    staged_reads_match_complete_passes(48, 11);
}

#[test]
fn entries_read_in_stages_match_complete_passes_on_4096_containers() {
    staged_reads_match_complete_passes(4096, 12);
}

/// FNV-1a over the bits of every entry field, in entry order.
fn digest(entries: &[rush_core::plan::PlanEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in entries {
        eat(e.eta);
        eat(e.task_len);
        eat(e.target.to_bits());
        eat(e.level.to_bits());
        eat(u64::from(e.desired_now));
        eat(e.planned_completion);
        eat(u64::from(e.impossible));
    }
    h
}

/// The lax targets the deferred phase places after the write-back are the
/// ones it placed inside the pass: the digests of these plans were
/// recorded with the deferred phase still inside `peel_incremental`, and a
/// lax job's entry is read last, after the strict reads mapped part of the
/// pass.
#[test]
fn the_deferred_phase_after_the_write_back_places_lax_jobs_as_before() {
    let cfg = RushConfig::default();
    let mut state = PlanState::new();
    for (capacity, seed, recorded) in
        [(48, 21, 0xfe1e_222c_4aa1_0a67_u64), (48, 22, 0x1f5f_641a_781e_582c), (4096, 23, 0x1f79_694c_d220_d97e)]
    {
        let jobs = fleet(50, seed);
        let plan = compute_plan(&cfg, capacity, &jobs).unwrap();
        let lax = plan.entries.iter().enumerate().filter(|(i, e)| {
            e.level <= 1e-9 || matches!(jobs[*i].utility, TimeUtility::Constant { .. })
        });
        assert!(lax.count() >= 5, "seed {seed}: too few lax jobs");
        assert_eq!(digest(&plan.entries), recorded, "capacity {capacity}, seed {seed}");
        state.solve(&cfg, capacity, &jobs).unwrap();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| matches!(jobs[i].utility, TimeUtility::Constant { .. }));
        let read: Vec<_> = order.iter().map(|&i| (i, state.entry(i).unwrap().unwrap())).collect();
        for (i, e) in read {
            assert_eq!(e, plan.entries[i], "seed {seed}: job {i}");
        }
    }
}
