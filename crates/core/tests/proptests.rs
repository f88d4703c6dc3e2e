//! Property-based tests for the RUSH core algorithms: Theorem 1 (REM
//! closed-form optimality), WCDE monotonicity, Theorem 2 (peel targets are
//! capacity-feasible), local max-min optimality of the peel, and Theorem 3
//! (mapping completes every job by `T + R`).

use proptest::prelude::*;
use rush_core::mapping::{
    capacity_condition_holds, map_continuous, map_profile, MapJob, OccupationProfile,
};
use rush_core::onion::{peel, peel_incremental, JobEdit, OnionJob, PeelState, Target};
use rush_core::rem;
use rush_core::wcde::worst_case_quantile;
use rush_prob::Pmf;
use rush_utility::{LatestTime, TimeUtility};

fn pmf_strategy() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(0.01f64..10.0, 4..64)
        .prop_map(|ws| Pmf::from_weights(ws, 1).expect("positive weights"))
}

proptest! {
    /// Theorem 1: the closed form beats any feasible two-group reweighting
    /// and any head-tail mass split we can construct.
    #[test]
    fn rem_closed_form_is_optimal(
        phi in pmf_strategy(),
        l_frac in 0.1f64..0.9,
        theta in 0.2f64..0.95,
        alt_mass in 0.01f64..1.0,
    ) {
        let l = ((phi.bins() as f64 * l_frac) as usize).min(phi.bins() - 2);
        let star = rem::min_kl(&phi, l, theta).unwrap();
        prop_assert!(star >= 0.0);
        // Construct an arbitrary feasible alternative: head mass
        // alt_mass*theta ≤ theta, tail carries the rest, shapes follow phi.
        let head: f64 = phi.probs()[..=l].iter().sum();
        let tail = 1.0 - head;
        if tail > 1e-9 {
            let hm = alt_mass * theta;
            let ws: Vec<f64> = phi
                .probs()
                .iter()
                .enumerate()
                .map(|(i, &p)| if i <= l { p * hm / head } else { p * (1.0 - hm) / tail })
                .collect();
            let alt = Pmf::from_weights(ws, 1).unwrap();
            let alt_head: f64 = alt.probs()[..=l].iter().sum();
            prop_assert!(alt_head <= theta + 1e-9);
            let alt_kl = alt.kl_divergence(&phi).unwrap();
            prop_assert!(alt_kl + 1e-9 >= star,
                "alternative {alt_kl} beats closed form {star}");
        }
    }

    /// REM's minimal KL is monotone in the constrained head length.
    #[test]
    fn rem_min_kl_monotone(phi in pmf_strategy(), theta in 0.2f64..0.95) {
        let mut prev = 0.0;
        for l in 0..phi.bins() - 1 {
            let kl = rem::min_kl(&phi, l, theta).unwrap();
            prop_assert!(kl + 1e-9 >= prev, "KL dipped at L={l}");
            prev = kl;
        }
    }

    /// WCDE: η never undershoots the nominal quantile and is monotone in
    /// both δ and θ.
    #[test]
    fn wcde_monotone_and_dominates_nominal(
        phi in pmf_strategy(),
        theta in 0.2f64..0.95,
    ) {
        let phi = phi.with_support_floor(1e-9).unwrap();
        let nominal = phi.quantile(theta);
        let mut prev = 0;
        for delta in [0.0, 0.2, 0.5, 1.0, 2.0] {
            let r = worst_case_quantile(&phi, theta, delta).unwrap();
            prop_assert!(r.eta >= nominal, "eta {} < nominal {nominal}", r.eta);
            prop_assert!(r.eta >= prev, "eta not monotone in delta");
            prev = r.eta;
        }
        let mut prev = 0;
        for theta2 in [theta * 0.5, theta, theta + (1.0 - theta) * 0.5] {
            let r = worst_case_quantile(&phi, theta2, 0.5).unwrap();
            prop_assert!(r.eta >= prev, "eta not monotone in theta");
            prev = r.eta;
        }
    }

    /// The WCDE guarantee: no distribution within the KL ball puts its
    /// θ-quantile beyond the returned bin.
    #[test]
    fn wcde_guarantee(phi in pmf_strategy(), theta in 0.2f64..0.9, delta in 0.0f64..1.5) {
        let phi = phi.with_support_floor(1e-9).unwrap();
        let r = worst_case_quantile(&phi, theta, delta).unwrap();
        if r.eta_bin + 1 < phi.bins() {
            let kl = rem::min_kl(&phi, r.eta_bin + 1, theta).unwrap();
            prop_assert!(kl > delta, "a ball member exceeds eta: kl {kl} <= {delta}");
        }
    }
}

/// Random onion instances: sigmoid jobs with varied budgets/weights.
fn onion_instance() -> impl Strategy<Value = (Vec<(u64, f64, f64, f64)>, u32)> {
    (
        prop::collection::vec(
            (1u64..2000, 20.0f64..2000.0, 1.0f64..5.0, 0.005f64..0.5),
            1..12,
        ),
        1u32..32,
    )
}

proptest! {
    /// Theorem 2: the peel's committed targets always satisfy the
    /// prefix-capacity condition.
    #[test]
    fn peel_targets_capacity_feasible((specs, capacity) in onion_instance()) {
        let utils: Vec<TimeUtility> = specs
            .iter()
            .map(|&(_, b, w, beta)| TimeUtility::sigmoid(b, w, beta).unwrap())
            .collect();
        let jobs: Vec<OnionJob> = utils
            .iter()
            .zip(&specs)
            .map(|(&utility, &(d, ..))| OnionJob { demand: d, utility, age: 0.0 })
            .collect();
        let targets = peel(&jobs, capacity, 0.01, 1e7).unwrap();
        prop_assert_eq!(targets.len(), jobs.len());
        let mut pairs: Vec<(f64, u64)> =
            targets.iter().map(|t| (t.deadline, jobs[t.job].demand)).collect();
        pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut cum = 0u64;
        for (d, e) in pairs {
            cum += e;
            prop_assert!(
                cum as f64 <= capacity as f64 * d + 1e-6,
                "prefix demand {cum} > C*d = {}",
                capacity as f64 * d
            );
        }
    }

    /// Each peeled job's achieved level is consistent with its deadline:
    /// U(deadline) ≥ level (up to the bisection tolerance).
    #[test]
    fn peel_levels_match_deadlines((specs, capacity) in onion_instance()) {
        let utils: Vec<TimeUtility> = specs
            .iter()
            .map(|&(_, b, w, beta)| TimeUtility::sigmoid(b, w, beta).unwrap())
            .collect();
        let jobs: Vec<OnionJob> = utils
            .iter()
            .zip(&specs)
            .map(|(&utility, &(d, ..))| OnionJob { demand: d, utility, age: 0.0 })
            .collect();
        let targets = peel(&jobs, capacity, 0.01, 1e7).unwrap();
        for t in &targets {
            if t.lax {
                continue; // deferred jobs have informative deadlines only
            }
            let u_at = utils[t.job].utility(t.deadline);
            prop_assert!(
                u_at + 0.05 >= t.level,
                "job {} deadline {} gives {} < level {}",
                t.job,
                t.deadline,
                u_at,
                t.level
            );
        }
    }

    /// Local max-min optimality: tightening any single strict job's
    /// deadline to reach a meaningfully higher level, with every other
    /// job's reservation intact, must violate capacity — otherwise the
    /// peel left utility on the table.
    #[test]
    fn peel_is_locally_optimal((specs, capacity) in onion_instance()) {
        let utils: Vec<TimeUtility> = specs
            .iter()
            .map(|&(_, b, w, beta)| TimeUtility::sigmoid(b, w, beta).unwrap())
            .collect();
        let jobs: Vec<OnionJob> = utils
            .iter()
            .zip(&specs)
            .map(|(&utility, &(d, ..))| OnionJob { demand: d, utility, age: 0.0 })
            .collect();
        let targets = peel(&jobs, capacity, 0.01, 1e7).unwrap();
        let reservations: Vec<(usize, f64)> =
            targets.iter().map(|t| (t.job, t.deadline)).collect();
        for t in &targets {
            if t.lax || jobs[t.job].demand == 0 {
                continue;
            }
            // Improvement of 0.1 utility must be infeasible for bottleneck
            // jobs. (Jobs peeled in the final peel-all layer sit at their
            // sup and cannot improve by construction.)
            let improved = t.level + 0.1;
            if improved >= utils[t.job].sup() {
                continue;
            }
            let LatestTime::At(d_improved) = utils[t.job].latest_time(improved) else {
                continue;
            };
            // Build the deadline set with this job tightened.
            let mut pairs: Vec<(f64, u64)> = reservations
                .iter()
                .map(|&(j, d)| {
                    let dd = if j == t.job { d_improved } else { d };
                    (dd, jobs[j].demand)
                })
                .collect();
            pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut cum = 0u64;
            let mut feasible = true;
            for (d, e) in pairs {
                cum += e;
                if cum as f64 > capacity as f64 * d + 1e-6 {
                    feasible = false;
                    break;
                }
            }
            // If tightening is feasible the job was NOT a true bottleneck —
            // allowed only when its level is within tolerance of the layer
            // above (bisection slack) or it sits at a later layer whose
            // improvement would lower an earlier one. We tolerate feasible
            // improvements only if some *other* job's level is within 0.15
            // of this one's (they share a contested layer boundary).
            if feasible {
                let near_layer = targets.iter().any(|o| {
                    o.job != t.job && (o.level - t.level).abs() < 0.15
                });
                prop_assert!(
                    near_layer,
                    "job {} at level {} could improve to {} for free",
                    t.job,
                    t.level,
                    improved
                );
            }
        }
    }
}

proptest! {
    /// Cross-validation: the onion peel's first-layer (minimum) level
    /// agrees with the LP reference solution of the same TAS instance.
    #[test]
    fn onion_first_layer_matches_lp_reference((specs, capacity) in onion_instance()) {
        let utils: Vec<TimeUtility> = specs
            .iter()
            .map(|&(_, b, w, beta)| TimeUtility::sigmoid(b, w, beta).unwrap())
            .collect();
        let jobs: Vec<OnionJob> = utils
            .iter()
            .zip(&specs)
            .map(|(&utility, &(d, ..))| OnionJob { demand: d, utility, age: 0.0 })
            .collect();
        let lp = rush_oracle::lp::max_min_level_lp(&jobs, capacity, 1e-3, 1e7).unwrap();
        let targets = peel(&jobs, capacity, 1e-3, 1e7).unwrap();
        let onion_min = targets.iter().map(|t| t.level).fold(f64::INFINITY, f64::min);
        prop_assert!(
            (lp - onion_min).abs() < 0.05,
            "LP reference {lp} vs onion minimum level {onion_min}"
        );
    }
}

/// A cold 1000-job peel of aged sigmoids with continuous weights — every job
/// its own `ln` memo key, the shape that made a scanning memo quadratic — is
/// what a state that recorded another pass computes when told nothing
/// carried over, and agrees level for level with the frozen oracle
/// within bisection wobble (tolerance 1e-6, bound 1e-3, as in
/// `optimized_peel_matches_reference_algorithm`).
#[test]
fn cold_peel_of_continuous_weights() {
    let (capacity, tolerance, bound, horizon) = (512u32, 1e-6, 1e-3, 1e6);
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let specs: Vec<(u64, TimeUtility, f64)> = (0..1000)
        .map(|_| {
            let demand = (150.0 + 7000.0 * unit()) as u64;
            let budget = 200.0 + 3800.0 * unit();
            let weight = 1.0 + 4.0 * unit();
            let age = 200.0 * unit();
            (demand, TimeUtility::sigmoid(budget, weight, 10.0 / budget).unwrap(), age)
        })
        .collect();
    let jobs: Vec<OnionJob> =
        specs.iter().map(|&(demand, utility, age)| OnionJob { demand, utility, age }).collect();

    let fast = peel(&jobs, capacity, tolerance, horizon).unwrap();
    // Contended, not hopeless: many layers at distinct positive levels.
    let mut levels: Vec<u64> =
        fast.iter().filter(|t| !t.lax && t.level > 0.1).map(|t| t.level.to_bits()).collect();
    levels.dedup();
    assert!(levels.len() >= 50, "{} layers above 0.1", levels.len());
    let bits = |ts: &[Target]| -> Vec<(usize, u64, u64, bool)> {
        ts.iter().map(|t| (t.job, t.level.to_bits(), t.deadline.to_bits(), t.lax)).collect()
    };

    let mut state = PeelState::new();
    let first_half = &jobs[..500];
    peel_incremental(first_half, capacity, tolerance, horizon, JobEdit::COLD, &mut state).unwrap();
    let cold = peel_incremental(&jobs, capacity, tolerance, horizon, JobEdit::COLD, &mut state);
    assert_eq!(bits(&fast), bits(&cold.unwrap()));
    assert!(!state.last_stats().delta);

    let reference = rush_oracle::onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
    let by_job = |ts: &[Target]| {
        let mut v: Vec<(usize, f64, bool)> = ts.iter().map(|t| (t.job, t.level, t.lax)).collect();
        v.sort_by_key(|t| t.0);
        v
    };
    assert_eq!(reference.len(), fast.len());
    for (f, r) in by_job(&fast).iter().zip(&by_job(&reference)) {
        // Deep in overload levels collapse towards zero, where the
        // deadline-free cut (1e-9) is finer than the bisection itself.
        assert!(f.0 == r.0 && (f.2 == r.2 || r.1 <= bound), "job {}: classification", f.0);
        assert!((f.1 - r.1).abs() <= bound, "job {}: level {} vs oracle {}", f.0, f.1, r.1);
    }
}

/// Random mapping instances that satisfy the Theorem 2 condition by
/// construction: targets are assigned greedily with enough headroom.
fn feasible_mapping_instance() -> impl Strategy<Value = (Vec<MapJob>, u32)> {
    (
        prop::collection::vec((1u64..12, 1u64..30), 1..10),
        1u32..8,
    )
        .prop_map(|(tasks_lens, capacity)| {
            let mut jobs = Vec::with_capacity(tasks_lens.len());
            let mut cum = 0u64;
            for (tasks, len) in tasks_lens {
                cum += tasks * len;
                // Target exactly at the cumulative waterline: the tightest
                // deadline satisfying the prefix condition.
                let target = cum.div_ceil(capacity as u64).max(1);
                jobs.push(MapJob { tasks, task_len: len, target, lax: false });
            }
            (jobs, capacity)
        })
}

proptest! {
    /// Theorem 3: under the capacity condition, the continuous mapping
    /// completes every job no later than `T_i + R_i`.
    #[test]
    fn mapping_theorem3_bound((jobs, capacity) in feasible_mapping_instance()) {
        prop_assume!(capacity_condition_holds(&jobs, capacity));
        let placements = map_continuous(&jobs, capacity).unwrap();
        for (i, p) in placements.iter().enumerate() {
            prop_assert!(
                p.completion <= jobs[i].target + jobs[i].task_len,
                "job {i}: completion {} > T+R = {}",
                p.completion,
                jobs[i].target + jobs[i].task_len
            );
        }
    }

    /// The mapping places every task exactly once and never overlaps two
    /// segments on one container.
    #[test]
    fn mapping_conservation_and_disjointness((jobs, capacity) in feasible_mapping_instance()) {
        let placements = map_continuous(&jobs, capacity).unwrap();
        let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
        for (i, p) in placements.iter().enumerate() {
            let placed: u64 = p.segments.iter().map(|s| s.tasks).sum();
            prop_assert_eq!(placed, jobs[i].tasks, "job {} task conservation", i);
            for s in &p.segments {
                prop_assert!(s.container < capacity);
                intervals.push((s.container, s.start, s.start + s.tasks * jobs[i].task_len));
            }
        }
        intervals.sort();
        for w in intervals.windows(2) {
            let (c1, _, e1) = w[0];
            let (c2, s2, _) = w[1];
            if c1 == c2 {
                prop_assert!(e1 <= s2, "overlap on container {c1}: {:?}", w);
            }
        }
    }

    /// Lax jobs never displace strict reservations: adding a lax job leaves
    /// every strict job's completion unchanged.
    #[test]
    fn lax_jobs_never_displace_strict(
        (mut jobs, capacity) in feasible_mapping_instance(),
        lax_tasks in 1u64..10,
        lax_len in 1u64..30,
    ) {
        let before = map_continuous(&jobs, capacity).unwrap();
        jobs.push(MapJob { tasks: lax_tasks, task_len: lax_len, target: 1, lax: true });
        let after = map_continuous(&jobs, capacity).unwrap();
        for i in 0..before.len() {
            prop_assert_eq!(
                before[i].completion,
                after[i].completion,
                "strict job {} moved when a lax job was added",
                i
            );
        }
    }
}

/// Hostile mapping instances for the run-length mapper: lax jobs, targets
/// far too tight for the fleet (strict prefix + overflow spill on the same
/// queues), zero-task and target-0 jobs, a single queue, fleets on both
/// sides of `water_fill`'s stack-selection cut-off (`3·C ≤ 256`), demand
/// bursts wider than the fleet, and task lengths past 2³² where the
/// reciprocal division falls back to hardware `div`.
fn hostile_mapping_instance() -> impl Strategy<Value = (Vec<MapJob>, u32)> {
    (
        prop::collection::vec((0u64..40, 1u64..60, 0u64..400, 0u32..10), 0..24),
        0usize..6,
        0u32..4,
    )
        .prop_map(|(raw, fleet, scale)| {
            let capacity = [1u32, 7, 85, 86, 300, 4096][fleet];
            let jobs = raw
                .into_iter()
                .map(|(tasks, len, target, kind)| {
                    // One draw in four stretches every length and target by
                    // 2³² (+ the small draw, so residues still vary).
                    let stretch = |v: u64| if scale == 0 { (v << 32) + v } else { v };
                    MapJob {
                        tasks: if kind >= 8 { tasks * (capacity as u64 / 4 + 1) } else { tasks },
                        task_len: stretch(len),
                        target: stretch(target),
                        lax: kind % 4 == 0,
                    }
                })
                .collect();
            (jobs, capacity)
        })
}

proptest! {
    /// The planner's run-length mapper reports exactly what the
    /// segment-emitting Algorithm 4 would: `desired_now == active_at(0)`
    /// and `completion` per job, with the profile inside its split bound
    /// and still covering the whole fleet.
    #[test]
    fn profile_summary_matches_map_continuous((jobs, capacity) in hostile_mapping_instance()) {
        let oracle = map_continuous(&jobs, capacity).unwrap();
        let mut profile = OccupationProfile::default();
        let got = map_profile(&jobs, capacity, &mut profile).unwrap();
        prop_assert_eq!(got.len(), jobs.len());
        for (i, (s, p)) in got.iter().zip(&oracle).enumerate() {
            prop_assert_eq!(
                (s.desired_now, s.completion),
                (p.active_at(0), p.completion),
                "job {} of {:?} on {} queues", i, jobs, capacity
            );
        }
        let desired: u64 = got.iter().map(|s| s.desired_now as u64).sum();
        prop_assert!(desired <= capacity as u64);
        prop_assert!(profile.runs() <= 1 + 3 * jobs.len());
    }
}

/// The shape `serve_closed_large` maps on every replan: 4096 queues, 500
/// resident jobs of ~20 tasks, one in five lax. The profile must stay
/// within `1 + 3n` runs (it is the whole point that it does not grow with
/// the fleet) and agree with the per-container oracle job for job.
#[test]
fn profile_at_serve_scale_matches_oracle_within_run_bound() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let jobs: Vec<MapJob> = (0..500)
        .map(|i| MapJob {
            tasks: 12 + draw(17),
            task_len: 20 + draw(60),
            target: 40 + draw(1500),
            lax: i % 5 == 0,
        })
        .collect();
    let capacity = 4096;
    let oracle = map_continuous(&jobs, capacity).unwrap();
    let mut profile = OccupationProfile::default();
    let got = map_profile(&jobs, capacity, &mut profile).unwrap();
    for (i, (s, p)) in got.iter().zip(&oracle).enumerate() {
        assert_eq!((s.desired_now, s.completion), (p.active_at(0), p.completion), "job {i}");
    }
    assert!(profile.runs() <= 1 + 3 * jobs.len(), "{} runs", profile.runs());
    assert!(profile.runs() < capacity as usize / 4, "{} runs: profile tracks the fleet", profile.runs());
}

/// A deterministic stream of draws below `n` (an LCG, so the shapes below
/// are fixed without a seed parameter).
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |n| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % n
    }
}

/// Job for job, the run-length mapper against the per-container oracle.
fn assert_profile_matches_oracle(jobs: &[MapJob], capacity: u32) -> Vec<rush_core::mapping::Placement> {
    let oracle = map_continuous(jobs, capacity).unwrap();
    let mut profile = OccupationProfile::default();
    let got = map_profile(jobs, capacity, &mut profile).unwrap();
    for (i, (s, p)) in got.iter().zip(&oracle).enumerate() {
        assert_eq!((s.desired_now, s.completion), (p.active_at(0), p.completion), "job {i}");
    }
    assert!(profile.runs() <= 1 + 2 * jobs.len(), "{} runs", profile.runs());
    oracle
}

/// The shape `sim_rush` maps: the 48-container testbed, about 80 jobs, a
/// third of them lax, and strict targets tight enough that some strict jobs
/// spill into the water-fill before the lax ones run. Runs ≈ containers
/// here, so almost every fill raises a large share of the profile.
#[test]
fn profile_at_sim_scale_matches_oracle_with_strict_spills() {
    let mut draw = lcg(0x5151_7a7a_0303_c0c0);
    let jobs: Vec<MapJob> = (0..80)
        .map(|i| MapJob {
            tasks: 1 + draw(40),
            task_len: 20 + draw(100),
            target: draw(900),
            lax: i % 8 < 3,
        })
        .collect();
    let oracle = assert_profile_matches_oracle(&jobs, 48);
    let spilled = jobs
        .iter()
        .zip(&oracle)
        .filter(|(j, p)| !j.lax && p.completion > j.target + j.task_len)
        .count();
    assert!(spilled >= 5, "only {spilled} strict jobs spilled");
    assert_eq!(jobs.iter().filter(|j| j.lax).count(), 30);
}

/// The shape of Fig. 5's overloaded end: 48 containers, 1 000 jobs of
/// 5–80 tasks, most strict targets far out of reach (so nearly every strict
/// job spills), and the deferred third packed behind them.
#[test]
fn profile_at_fig5_overload_matches_oracle() {
    let mut draw = lcg(0x0f15_0f15_0f15_0f15);
    let jobs: Vec<MapJob> = (0..1000)
        .map(|i| MapJob {
            tasks: 5 + draw(76),
            task_len: 30 + draw(60),
            target: 1 + draw(4000),
            lax: i % 3 == 0,
        })
        .collect();
    let oracle = assert_profile_matches_oracle(&jobs, 48);
    let spilled = jobs
        .iter()
        .zip(&oracle)
        .filter(|(j, p)| !j.lax && p.completion > j.target + j.task_len)
        .count();
    assert!(spilled > 500, "only {spilled} strict jobs spilled");
}

/// `(job, deadline, lax)` of each target, by job, the deadline as bits.
fn placement_bits(targets: &[Target]) -> Vec<(usize, u64, bool)> {
    let mut v: Vec<_> = targets.iter().map(|t| (t.job, t.deadline.to_bits(), t.lax)).collect();
    v.sort_unstable();
    v
}

/// Deferred-heavy instances against the frozen oracle, whose deferred phase
/// sorts the committed list and scans all of it for every job. Step
/// utilities make a peeled target its budget whatever path the bisection
/// took, so every target — the deferred placements above all — must agree
/// bit for bit; the levels differ by bisection wobble only.
fn assert_peel_matches_oracle_bitwise(specs: &[(u64, TimeUtility)], capacity: u32, horizon: f64) {
    let jobs: Vec<OnionJob> =
        specs.iter().map(|&(demand, utility)| OnionJob { demand, utility, age: 0.0 }).collect();
    let tolerance = 1e-3;
    let fast = peel(&jobs, capacity, tolerance, horizon).unwrap();
    let reference = rush_oracle::onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
    assert_eq!(placement_bits(&fast), placement_bits(&reference));
    let level = |ts: &[Target], job| ts.iter().find(|t| t.job == job).map(|t| t.level);
    for t in &fast {
        let wobble = (t.level - level(&reference, t.job).unwrap()).abs();
        assert!(wobble <= tolerance, "job {}: level {} off by {wobble}", t.job, t.level);
    }
    let mut state = PeelState::new();
    let cold = peel_incremental(&jobs, capacity, tolerance, horizon, JobEdit::COLD, &mut state);
    let bits = |ts: &[Target]| -> Vec<(usize, u64, u64, bool)> {
        ts.iter().map(|t| (t.job, t.level.to_bits(), t.deadline.to_bits(), t.lax)).collect()
    };
    assert_eq!(bits(&cold.unwrap()), bits(&fast));
    // Two replayed passes through the same state, each against a cold peel
    // of its jobs: every seventh demand grows, then every eleventh job
    // leaves. Long runs of replayed layers leave many reservations for the
    // sweep state's catch-up to add at once.
    let mut grown = jobs.clone();
    for job in grown.iter_mut().step_by(7) {
        job.demand += 1 + job.demand / 8;
    }
    let same: Vec<Option<usize>> = (0..jobs.len()).map(Some).collect();
    let edit = JobEdit { prev: &same, departed: &[], tick: 0.0 };
    let warm = peel_incremental(&grown, capacity, tolerance, horizon, edit, &mut state).unwrap();
    assert!(state.last_stats().delta, "a demand edit replays");
    assert_eq!(bits(&warm), bits(&peel(&grown, capacity, tolerance, horizon).unwrap()));
    let stays = |i: &usize| i % 11 != 5;
    let kept: Vec<usize> = (0..jobs.len()).filter(stays).collect();
    let rest: Vec<OnionJob> = kept.iter().map(|&i| grown[i]).collect();
    let prev: Vec<Option<usize>> = kept.iter().map(|&i| Some(i)).collect();
    let departed: Vec<OnionJob> = (0..jobs.len()).filter(|i| !stays(i)).map(|i| grown[i]).collect();
    let edit = JobEdit { prev: &prev, departed: &departed, tick: 0.0 };
    let warm = peel_incremental(&rest, capacity, tolerance, horizon, edit, &mut state).unwrap();
    assert!(state.last_stats().delta, "a departure replays");
    assert_eq!(bits(&warm), bits(&peel(&rest, capacity, tolerance, horizon).unwrap()));
}

/// Fleet scale, shaped like `serve_closed_large`: 4 096 containers, 500
/// jobs, a fifth of them flat (constant utility) or hopeless (a budget no
/// capacity meets), the rest step deadlines that leave the fleet far from
/// full — so the last reservation is never the one broken, and each
/// deferred job's barrier is a base reservation or one the phase placed.
#[test]
fn deferred_heavy_fleet_peel_matches_oracle_bit_for_bit() {
    let mut draw = lcg(0xdefe_4096_0500_0020);
    let specs: Vec<(u64, TimeUtility)> = (0..500)
        .map(|i| {
            let weight = 1.0 + draw(4) as f64;
            let (demand, utility) = match i % 10 {
                0 => (200 + draw(4_000), TimeUtility::constant(weight)),
                1 => (20_000 + draw(40_000), TimeUtility::step(1.0 + draw(3) as f64, weight)),
                _ => (200 + draw(4_000), TimeUtility::step(40.0 + draw(1500) as f64, weight)),
            };
            (demand, utility.unwrap())
        })
        .collect();
    let lax = assert_deferred(&specs, 4096, 1e6);
    assert!(lax >= 100, "{lax} deferred jobs");
}

/// Overload on the testbed: 48 containers, 1 000 jobs, so the deferred
/// jobs' ASAP slots run past the horizon and clamp to it.
#[test]
fn overloaded_testbed_peel_matches_oracle_bit_for_bit() {
    let mut draw = lcg(0x0048_1000_c1a3_9000);
    let specs: Vec<(u64, TimeUtility)> = (0..1000)
        .map(|i| {
            let demand = 100 + draw(3_000);
            let weight = 1.0 + draw(4) as f64;
            let utility = match i % 5 {
                0 => TimeUtility::constant(weight),
                _ => TimeUtility::step(20.0 + draw(3000) as f64, weight),
            };
            (demand, utility.unwrap())
        })
        .collect();
    let horizon = 20_000.0;
    let jobs: Vec<OnionJob> =
        specs.iter().map(|&(demand, utility)| OnionJob { demand, utility, age: 0.0 }).collect();
    let clamped = peel(&jobs, 48, 1e-3, horizon)
        .unwrap()
        .iter()
        .filter(|t| t.lax && t.deadline.to_bits() == horizon.to_bits())
        .count();
    assert!(clamped >= 50, "{clamped} deferred jobs clamped at the horizon");
    assert_deferred(&specs, 48, horizon);
}

/// Checks `specs` bit for bit against the oracle; returns how many jobs
/// were deferred.
fn assert_deferred(specs: &[(u64, TimeUtility)], capacity: u32, horizon: f64) -> usize {
    assert_peel_matches_oracle_bitwise(specs, capacity, horizon);
    let jobs: Vec<OnionJob> =
        specs.iter().map(|&(demand, utility)| OnionJob { demand, utility, age: 0.0 }).collect();
    peel(&jobs, capacity, 1e-3, horizon).unwrap().iter().filter(|t| t.lax).count()
}
