//! Property-based tests for delta-peeling: randomized scheduling-event
//! streams (arrival, task sample, cancel, task failure, capacity change,
//! overload episodes) driven through the incremental planner, with every
//! step checked two ways:
//!
//! * the incremental plan must be **bit-identical** to a from-scratch
//!   `compute_plan` pass — the delta replay and the resumed layer loop
//!   share the full path's arithmetic and both pipelines run the same
//!   mapper (on recycled buffers here), so there is no tolerance to hide
//!   behind; and
//! * the peel layering must agree with the frozen `rush_oracle::onion::peel`
//!   oracle (Algorithm 3 transcribed) to within bisection wobble, exactly
//!   as the non-incremental differential suite checks.
//!
//! Job churn (arrival, cancel) is replayed, not re-peeled: the peel-level
//! stream hands `peel_incremental` each job's id as its key, the peel
//! aligns consecutive passes by them, and the stream asserts the delta path
//! on every pass after the first; three deterministic fleet-scale streams
//! (`*_fleet_replays_job_churn`: 300+ jobs, 88+ events each, one per regime
//! — supremum-capped, overloaded, contended) additionally pin the *path*:
//! layers dropped and spliced, how far the trace carried, and where a pass
//! may not give it up — each with its `ReplayStats` totals pinned exactly.
//! Hostile key lists (shuffled, duplicated, all fresh, …) must still
//! replay bit for bit, and replay exactly when a pair stands.

use proptest::prelude::*;
use rush_core::onion::{self, OnionJob, PeelState};
use rush_core::plan::{compute_plan, compute_plan_incremental, PlanInput, PlanState};
use rush_core::RushConfig;
use rush_utility::TimeUtility;

/// (samples, remaining, failed, budget, weight, age)
type RawJob = (Vec<u64>, usize, usize, f64, f64, f64);

fn job_strategy() -> impl Strategy<Value = RawJob> {
    (
        prop::collection::vec(1u64..200, 0..24), // samples
        1usize..60,                              // remaining tasks
        0usize..4,                               // failed attempts
        100.0f64..3000.0,                        // utility budget
        1.0f64..5.0,                             // utility weight
        0.0f64..150.0,                           // age
    )
}

/// Job `key` of a stream: keys are handed out in arrival order, as the
/// planner kernel hands out job ids.
fn build_input(key: u64, raw: &RawJob) -> PlanInput<'static> {
    let (samples, remaining, failed, budget, weight, age) = raw;
    PlanInput {
        key,
        generation: None,
        samples: samples.clone().into(),
        remaining_tasks: *remaining,
        failed_attempts: *failed,
        age: *age,
        utility: TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap(),
    }
}

/// A stream's first jobs, keyed in order.
fn build_fleet(raw: &[RawJob]) -> Vec<PlanInput<'static>> {
    raw.iter().enumerate().map(|(k, raw)| build_input(k as u64, raw)).collect()
}

/// One scheduling event. Selectors are reduced modulo the current fleet
/// size when applied, so shrunk cases stay valid.
#[derive(Clone, Debug)]
enum Ev {
    /// A task completed: one more runtime sample for the estimator.
    Sample { sel: usize, val: u64 },
    /// A new job enters the cluster.
    Arrival(RawJob),
    /// A job is cancelled and leaves the fleet.
    Cancel { sel: usize },
    /// A task attempt failed (bumps the failure-inflation factor).
    Failure { sel: usize },
    /// The cluster shrinks or grows.
    Capacity { cap: u32 },
    /// Overload episode: one job suddenly needs far more work than the
    /// cluster can serve before its deadline.
    Overload { sel: usize, tasks: usize },
}

fn event_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0usize..64, 1u64..200).prop_map(|(sel, val)| Ev::Sample { sel, val }),
        job_strategy().prop_map(Ev::Arrival),
        (0usize..64).prop_map(|sel| Ev::Cancel { sel }),
        (0usize..64).prop_map(|sel| Ev::Failure { sel }),
        (4u32..64).prop_map(|cap| Ev::Capacity { cap }),
        (0usize..64, 200usize..600).prop_map(|(sel, tasks)| Ev::Overload { sel, tasks }),
    ]
}

/// Bit-exact plan comparison: every entry field, including float bits.
fn assert_plans_identical(
    a: &rush_core::plan::Plan,
    b: &rush_core::plan::Plan,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        prop_assert_eq!(x.eta, y.eta);
        prop_assert_eq!(x.task_len, y.task_len);
        prop_assert_eq!(x.target.to_bits(), y.target.to_bits());
        prop_assert_eq!(x.level.to_bits(), y.level.to_bits());
        prop_assert_eq!(x.desired_now, y.desired_now);
        prop_assert_eq!(x.planned_completion, y.planned_completion);
        prop_assert_eq!(x.impossible, y.impossible);
    }
    Ok(())
}

/// Long steady-state stream: enough events to cross the debug-build
/// spot-check interval (64 passes) more than twice, so `cargo test`
/// actually executes the every-N-events from-scratch comparison inside
/// `compute_plan_incremental` — not just the per-step checks made here.
#[test]
fn long_stream_crosses_spot_check_interval() {
    let cfg = RushConfig::default();
    let mut jobs: Vec<PlanInput<'static>> = (0..6)
        .map(|i| {
            build_input(i, &(
                vec![40 + i * 11, 60 + i * 7],
                8 + i as usize * 5,
                0,
                600.0 + i as f64 * 300.0,
                1.0 + i as f64 * 0.5,
                0.0,
            ))
        })
        .collect();
    let mut state = PlanState::new();
    let _ = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
    for e in 0..140u64 {
        let k = (e as usize) % jobs.len();
        jobs[k].samples.to_mut().push(30 + (e * 13) % 70);
        let full = compute_plan(&cfg, 16, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert_eq!(full, inc, "event {e}: incremental plan diverged");
    }
}

/// A fleet driven through `peel_incremental` by hand-picked churn, every
/// pass checked against a from-scratch peel (bitwise), the frozen oracle
/// (bisection wobble) and — the point of these streams — for the *path* it
/// took: a pass that silently re-peels, or gives the trace up before the
/// edit can matter, fails here.
struct Fleet {
    capacity: u32,
    tolerance: f64,
    /// How far a level may sit from the frozen oracle's (bisection wobble);
    /// `None` skips the oracle.
    oracle_bound: Option<f64>,
    /// Each job's id, its key: ids ascend in arrival order.
    ids: Vec<u64>,
    utilities: Vec<TimeUtility>,
    demands: Vec<u64>,
    /// Slots since each job arrived: its utility is shifted by it.
    ages: Vec<f64>,
    /// The slot ticks a ticking fleet cycles through: before every pass
    /// after the first, every job ages by the next one.
    ticks: &'static [f64],
    next_id: u64,
    state: PeelState,
    /// The previous pass: ids and peel order.
    prev_ids: Vec<u64>,
    prev_order: Vec<onion::Target>,
    passes: usize,
    /// Passes whose resume bound was checked.
    bounded: usize,
    /// Layers peeled by the passes after the first.
    peeled: usize,
    path: Path,
}

/// `ReplayStats` summed over a stream's passes: the path it took. Each
/// stream pins its totals exactly, so a rule that turns more conservative
/// fails even while every answer stays bit-identical. A change that moves
/// the path on purpose updates the constants and says why.
#[derive(Debug, Default, PartialEq)]
struct Path {
    replayed_layers: usize,
    verified_probes: usize,
    refreshed_probes: usize,
    dropped_layers: usize,
    spliced_layers: usize,
    /// Passes that replayed to the end (`resumed_at` is `None`).
    full_replays: usize,
    /// `resumed_at` summed over the passes that resumed.
    resumed_at: usize,
}

const FLEET_HORIZON: f64 = 1e6;

impl Fleet {
    fn new(capacity: u32, tolerance: f64, oracle_bound: Option<f64>) -> Self {
        Fleet {
            capacity,
            tolerance,
            oracle_bound,
            ids: Vec::new(),
            utilities: Vec::new(),
            demands: Vec::new(),
            ages: Vec::new(),
            ticks: &[],
            next_id: 0,
            state: PeelState::new(),
            prev_ids: Vec::new(),
            prev_order: Vec::new(),
            passes: 0,
            bounded: 0,
            peeled: 0,
            path: Path::default(),
        }
    }

    fn arrive(&mut self, utility: TimeUtility, demand: u64) {
        self.arrive_aged(utility, demand, 0.0);
    }

    fn arrive_aged(&mut self, utility: TimeUtility, demand: u64, age: f64) {
        self.ids.push(self.next_id);
        self.next_id += 1;
        self.utilities.push(utility);
        self.demands.push(demand);
        self.ages.push(age);
    }

    fn depart(&mut self, at: usize) {
        self.ids.remove(at);
        self.utilities.remove(at);
        self.demands.remove(at);
        self.ages.remove(at);
    }

    /// Index of the `nth` job (wrapping) whose weight is `weight`.
    fn nth_of_weight(&self, weight: f64, nth: usize) -> usize {
        let run: Vec<usize> = (0..self.ids.len())
            .filter(|&i| (self.utilities[i].weight() - weight).abs() < 1e-9)
            .collect();
        run[nth % run.len()]
    }

    /// One pass. `edits_only_jobs`: the step changed the job set and nothing
    /// else, so no probe before the first edited job's layer can have moved
    /// unless a load did — which `bounded_resume` says this regime rules out.
    fn pass(&mut self, what: &str, bounded_resume: bool) {
        let tick = match self.ticks {
            [] => 0.0,
            _ if self.passes == 0 => 0.0,
            ticks => ticks[(self.passes - 1) % ticks.len()],
        };
        for age in &mut self.ages {
            *age += tick;
        }
        let jobs: Vec<OnionJob> = self
            .demands
            .iter()
            .zip(&self.utilities)
            .zip(&self.ages)
            .map(|((&demand, &utility), &age)| OnionJob { demand, utility, age })
            .collect();
        let (cap, tol) = (self.capacity, self.tolerance);
        let full = onion::peel(&jobs, cap, tol, FLEET_HORIZON).unwrap();
        let inc =
            onion::peel_incremental(&self.ids, &jobs, cap, tol, FLEET_HORIZON, &mut self.state)
                .unwrap();
        assert_eq!(inc.len(), full.len(), "{what}");
        for (a, b) in inc.iter().zip(&full) {
            assert!(
                a.job == b.job
                    && a.level.to_bits() == b.level.to_bits()
                    && a.deadline.to_bits() == b.deadline.to_bits()
                    && a.lax == b.lax,
                "{what}: replay {a:?} vs from scratch {b:?}"
            );
        }
        if let Some(bound) = self.oracle_bound {
            let naive = rush_oracle::onion::peel(&jobs, cap, tol, FLEET_HORIZON).unwrap();
            let by_job = |ts: &[onion::Target]| {
                let mut v: Vec<(usize, f64, bool)> =
                    ts.iter().map(|t| (t.job, t.level, t.lax)).collect();
                v.sort_by_key(|t| t.0);
                v
            };
            for (f, r) in by_job(&inc).iter().zip(&by_job(&naive)) {
                // Under deep overload levels collapse towards zero, where the
                // deadline-free cut (1e-9) is finer than the bisection itself.
                assert!(
                    f.0 == r.0 && (f.2 == r.2 || r.1 <= bound),
                    "{what}: oracle classification"
                );
                assert!(
                    (f.1 - r.1).abs() <= bound,
                    "{what}: job {} level {} vs oracle {}",
                    f.0,
                    f.1,
                    r.1
                );
            }
        }

        let stats = self.state.last_stats();
        assert_eq!(
            stats.delta,
            self.passes > 0,
            "{what}: must replay, not re-peel ({stats:?})"
        );
        if self.passes > 0 {
            let path = &mut self.path;
            path.replayed_layers += stats.replayed_layers;
            path.verified_probes += stats.verified_probes;
            path.refreshed_probes += stats.refreshed_probes;
            path.dropped_layers += stats.dropped_layers;
            path.spliced_layers += stats.spliced_layers;
            path.full_replays += usize::from(stats.resumed_at.is_none());
            path.resumed_at += stats.resumed_at.unwrap_or(0);
            self.peeled += self.ids.len();
            // Every job here peels in a layer of its own, so a job's place
            // in the peel order is its layer. A departed job's is read off
            // the recorded order; an arrival lands at most one layer per
            // spliced sibling after the recorded layer it precedes. Deferred
            // jobs have no place in the order: no bound.
            let place = |order: &[onion::Target], job: usize| {
                order.iter().filter(|t| !t.lax).position(|t| t.job == job)
            };
            let only_in = |ids: &[u64], other: &[u64]| -> Vec<usize> {
                (0..ids.len()).filter(|&i| other.binary_search(&ids[i]).is_err()).collect()
            };
            let gone = only_in(&self.prev_ids, &self.ids);
            let arrived = only_in(&self.ids, &self.prev_ids);
            let bounds: Option<Vec<usize>> = gone
                .iter()
                .map(|&i| place(&self.prev_order, i))
                .chain(arrived.iter().map(|&j| {
                    place(&inc, j).map(|q| q.saturating_sub(arrived.len()))
                }))
                .collect();
            if let (true, Some(bounds), Some(at)) = (bounded_resume, bounds, stats.resumed_at) {
                let first_edit = bounds.iter().copied().min().unwrap_or(usize::MAX);
                assert!(
                    at >= first_edit,
                    "{what}: resumed at recorded layer {at}, before the edit at {first_edit} ({stats:?})"
                );
                self.bounded += 1;
            }
        }
        self.passes += 1;
        self.prev_ids.clone_from(&self.ids);
        self.prev_order = inc;
    }
}

/// The churn both fleet streams run: departures from the front, the middle
/// and the back of a weight class's run, arrival batches of 1–6, and passes
/// where a departure, an arrival, a fresh sample and a capacity change land
/// together. `job(k)` is the stream's k-th `(utility, demand)`.
fn churn(
    fleet: &mut Fleet,
    weights: usize,
    events: usize,
    loads_bind: bool,
    job: impl Fn(usize) -> (TimeUtility, u64),
) {
    let mut made = fleet.ids.len();
    let base_capacity = fleet.capacity;
    for e in 0..events {
        let weight = 1.0 + (e % weights) as f64;
        let run = fleet.ids.len() / weights;
        match e % 8 {
            0 => fleet.depart(fleet.nth_of_weight(weight, 0)),
            1 => fleet.depart(fleet.nth_of_weight(weight, run / 2)),
            2 => fleet.depart(fleet.nth_of_weight(weight, run.saturating_sub(1))),
            3 | 6 => {
                for _ in 0..1 + e % 6 {
                    let (u, d) = job(made);
                    made += 1;
                    fleet.arrive(u, d);
                }
            }
            4 => {
                // Two departures and a batch in one pass.
                fleet.depart(fleet.nth_of_weight(weight, run / 3));
                fleet.depart(fleet.nth_of_weight(1.0 + ((e + 1) % weights) as f64, run / 2));
                for _ in 0..2 {
                    let (u, d) = job(made);
                    made += 1;
                    fleet.arrive(u, d);
                }
            }
            5 => {
                let k = (e * 7) % fleet.demands.len();
                fleet.demands[k] = fleet.demands[k] / 2 + 40 + (e as u64 * 13) % 300;
            }
            _ => {
                // Everything at once.
                fleet.depart(fleet.nth_of_weight(weight, run / 4));
                let (u, d) = job(made);
                made += 1;
                fleet.arrive(u, d);
                let k = (e * 11) % fleet.demands.len();
                fleet.demands[k] += 25;
                fleet.capacity = base_capacity - (e as u32 % 3);
            }
        }
        // Demand and capacity moves shift loads, and may rightly flip a
        // probe above the edited jobs; pure job-set edits are bounded.
        fleet.pass(
            &format!("event {e}"),
            !loads_bind && !matches!(e % 8, 5 | 7),
        );
    }
}

/// The benchmark's shape: ample capacity and five utility weights, so every
/// level is capped by a class supremum — long runs of single `never` probes
/// under each, a handful of feasible probes between them, and no boundary
/// in sight. A departure drops one layer, an arrival splices one in.
#[test]
fn supremum_capped_fleet_replays_job_churn() {
    let job = |k: usize| {
        let budget = 400.0 + 37.0 * (k % 11) as f64;
        let utility = TimeUtility::sigmoid(budget, 1.0 + (k % 5) as f64, 5.0 / budget).unwrap();
        (utility, 50 + (k as u64 * 97) % 400)
    };
    let mut fleet = Fleet::new(1 << 16, 0.01, Some(0.05));
    for k in 0..320 {
        let (u, d) = job(k);
        fleet.arrive(u, d);
    }
    fleet.pass("first pass", false);
    churn(&mut fleet, 5, 96, false, job);
    assert_eq!(
        fleet.path,
        Path {
            replayed_layers: 30189,
            verified_probes: 47436,
            refreshed_probes: 10,
            dropped_layers: 60,
            spliced_layers: 96,
            full_replays: 60,
            resumed_at: 9805,
        }
    );
    assert!(fleet.passes >= 81 && fleet.ids.len() >= 300);
    // The path, not just the answer: most passes never reach the real loop,
    // and the bound above was actually put to the test.
    assert!(
        fleet.path.full_replays * 2 > fleet.passes,
        "{} of {}",
        fleet.path.full_replays,
        fleet.passes
    );
    assert!(
        fleet.path.dropped_layers >= 30 && fleet.path.spliced_layers >= 30,
        "{} / {}",
        fleet.path.dropped_layers,
        fleet.path.spliced_layers
    );
    assert!(
        fleet.bounded >= 10,
        "resume bound checked {} times",
        fleet.bounded
    );
}

/// Fig. 5's shape: 48 containers under 300+ jobs, so the floor itself is
/// infeasible and the peel is one long cascade of boundary violations —
/// the regime where a departure or an arrival really does move loads under
/// recorded probes, and the rules must tell which.
#[test]
fn overloaded_fleet_replays_job_churn() {
    let job = |k: usize| {
        let budget = 150.0 + 61.0 * (k % 23) as f64;
        let utility = TimeUtility::sigmoid(budget, 1.0 + (k % 4) as f64, 10.0 / budget).unwrap();
        (utility, 300 + (k as u64 * 131) % 2500)
    };
    let mut fleet = Fleet::new(48, 1e-6, Some(1e-3));
    for k in 0..310 {
        let (u, d) = job(k);
        fleet.arrive(u, d);
    }
    fleet.pass("first pass", false);
    churn(&mut fleet, 4, 88, true, job);
    assert_eq!(
        fleet.path,
        Path {
            replayed_layers: 10476,
            verified_probes: 16478,
            refreshed_probes: 238,
            dropped_layers: 17,
            spliced_layers: 0,
            full_replays: 20,
            resumed_at: 3931,
        }
    );
    assert!(fleet.passes >= 81 && fleet.ids.len() >= 300);
    // Here an edit may rightly flip a probe far above its own layer, so
    // there is no bound to hold a pass to — but the rules must still carry
    // a good part of the trace, and departures must still drop layers.
    assert!(
        fleet.path.full_replays >= 15,
        "{} full replays",
        fleet.path.full_replays
    );
    assert!(
        fleet.path.dropped_layers >= 15,
        "{} dropped layers",
        fleet.path.dropped_layers
    );
    assert!(
        fleet.path.replayed_layers * 4 >= fleet.peeled,
        "{} of {} layers",
        fleet.path.replayed_layers,
        fleet.peeled
    );
}

/// Between the two: 300 jobs that 512 containers can *almost* carry, so
/// nearly every layer bisects against a real capacity boundary and
/// converges on feasible probes with next to no slack — the probes an
/// arrival's demand has to be charged to. No oracle tier here: at this
/// size the frozen peel costs seconds per pass, and in contested layers
/// its bisection wobble compounds past any bound worth asserting.
#[test]
fn contended_fleet_replays_job_churn() {
    let job = |k: usize| {
        let budget = 400.0 + 53.0 * (k % 21) as f64;
        let utility = TimeUtility::sigmoid(budget, 1.0 + (k % 4) as f64, 10.0 / budget).unwrap();
        (utility, 300 + (k as u64 * 131) % 2500)
    };
    let mut fleet = Fleet::new(512, 1e-3, None);
    for k in 0..300 {
        let (u, d) = job(k);
        fleet.arrive(u, d);
    }
    fleet.pass("first pass", false);
    churn(&mut fleet, 4, 88, true, job);
    assert_eq!(
        fleet.path,
        Path {
            replayed_layers: 9371,
            verified_probes: 18061,
            refreshed_probes: 1209,
            dropped_layers: 12,
            spliced_layers: 28,
            full_replays: 0,
            resumed_at: 9383,
        }
    );
    assert!(fleet.passes >= 81 && fleet.ids.len() >= 290);
    // Loads move under most edits here, so few passes replay to the end —
    // but none may start over, and the rules still carry a good part of
    // every trace.
    assert!(
        fleet.path.dropped_layers + fleet.path.spliced_layers >= 30,
        "{} / {}",
        fleet.path.dropped_layers,
        fleet.path.spliced_layers
    );
    assert!(
        fleet.path.replayed_layers * 4 >= fleet.peeled,
        "{} of {} layers",
        fleet.path.replayed_layers,
        fleet.peeled
    );
}

/// The slot ticks a ticking fleet cycles through: the shape of `sim_rush`'s
/// gaps between passes, one slot most often, now and then a longer one.
const TICKS: &[f64] = &[1.0, 2.0, 3.0, 7.0, 1.0, 1.0];

/// The ticking fleets' k-th `(utility, demand)`: five weight classes of
/// sigmoids, flat enough this side of their budgets that a tick moves a
/// supremum by far less than the bisection tolerance.
fn ticking_job(k: usize) -> (TimeUtility, u64) {
    let budget = 400.0 + 37.0 * (k % 11) as f64;
    let utility = TimeUtility::sigmoid(budget, 1.0 + (k % 5) as f64, 10.0 / budget).unwrap();
    (utility, 50 + (k as u64 * 97) % 400)
}

/// `sim_rush`'s shape: 80 jobs of every age on 128 containers (two step
/// jobs above them hold the top supremum still), and nothing but the clock
/// moving between passes. Every verified probe is the tick term's work; a
/// refresh or a resume is a probe or a layer the tick really moved (a job
/// due within the tick, a lower cap, a flipped sweep).
#[test]
fn ticking_fleet_replays_slot_ticks() {
    let mut fleet = Fleet::new(128, 0.01, Some(0.05));
    fleet.ticks = TICKS;
    for k in 0..80 {
        let (utility, demand) = ticking_job(k);
        fleet.arrive_aged(utility, demand, ((k * 37) % 60) as f64);
    }
    for _ in 0..2 {
        fleet.arrive(TimeUtility::step(1e5, 6.0).unwrap(), 100);
    }
    for e in 0..40 {
        fleet.pass(&format!("tick {e}"), false);
    }
    // Nothing but the clock moved: every verified probe is the tick term's.
    assert_eq!(
        fleet.path,
        Path {
            replayed_layers: 2939,
            verified_probes: 6434,
            refreshed_probes: 20,
            dropped_layers: 0,
            spliced_layers: 0,
            full_replays: 30,
            resumed_at: 479,
        }
    );
}

/// Ticks under everything else: before every pass of the churn the fleet
/// streams run — departures, arrival batches, demand moves, capacity
/// changes — the clock moves too, on 512 containers: the tick term charged
/// together with every other kind of drift.
#[test]
fn ticking_fleet_replays_churn() {
    let mut fleet = Fleet::new(512, 0.01, Some(0.05));
    fleet.ticks = TICKS;
    for k in 0..120 {
        let (utility, demand) = ticking_job(k);
        fleet.arrive_aged(utility, demand, ((k * 37) % 60) as f64);
    }
    for _ in 0..2 {
        fleet.arrive(TimeUtility::step(1e5, 6.0).unwrap(), 100);
    }
    fleet.pass("first pass", false);
    churn(&mut fleet, 5, 64, true, ticking_job);
    assert_eq!(
        fleet.path,
        Path {
            replayed_layers: 6147,
            verified_probes: 11286,
            refreshed_probes: 134,
            dropped_layers: 29,
            spliced_layers: 61,
            full_replays: 34,
            resumed_at: 1726,
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The maintained `PlanState` (peel trace + recycled mapping buffers +
    /// keyed solve cache) survives an arbitrary event stream: after *every*
    /// event the incremental plan is bit-identical to a from-scratch pass
    /// over the same inputs.
    #[test]
    fn event_stream_plan_bit_identical_to_full(
        raw in prop::collection::vec(job_strategy(), 1..10),
        events in prop::collection::vec(event_strategy(), 4..14),
        capacity0 in 4u32..64,
    ) {
        let cfg = RushConfig::default();
        let mut jobs = build_fleet(&raw);
        let mut keys = jobs.len() as u64;
        let mut capacity = capacity0;
        let mut state = PlanState::new();

        let full = compute_plan(&cfg, capacity, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&full, &inc)?;

        for ev in &events {
            match ev {
                Ev::Sample { sel, val } => {
                    let k = sel % jobs.len();
                    jobs[k].samples.to_mut().push(*val);
                }
                Ev::Arrival(raw) => {
                    jobs.push(build_input(keys, raw));
                    keys += 1;
                }
                Ev::Cancel { sel } => {
                    if jobs.len() > 1 {
                        let k = sel % jobs.len();
                        jobs.remove(k);
                    }
                }
                Ev::Failure { sel } => {
                    let k = sel % jobs.len();
                    jobs[k].failed_attempts += 1;
                }
                Ev::Capacity { cap } => capacity = *cap,
                Ev::Overload { sel, tasks } => {
                    let k = sel % jobs.len();
                    jobs[k].remaining_tasks = *tasks;
                }
            }
            let full = compute_plan(&cfg, capacity, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&full, &inc)?;
        }
    }

    /// A typed [`rush_core::ClusterModel`] spot-churn schedule drives the
    /// capacity trajectory while demands drift between events: at every
    /// revoke/restock of the lowered stream the incremental plan must stay
    /// bit-identical to a from-scratch pass. This is the capacity-churn
    /// regime the divergence-layer replay was built for — the whole spot
    /// pool vanishes and returns, cycle after cycle.
    #[test]
    fn cluster_model_spot_churn_bit_identical_to_full(
        raw in prop::collection::vec(job_strategy(), 2..8),
        reserved in 3u32..8,
        spot in 2u32..10,
        period in 4u64..16,
        outage in 1u64..4,
        cycles in 2u32..5,
        drift in 1u64..120,
    ) {
        let cfg = RushConfig::default();
        // Revoke the entire spot pool each cycle — the worst-case swing —
        // keeping the period longer than the outage so cycles don't
        // overlap (the model validator rejects double-revocations).
        let model = rush_core::ClusterModel::tiered(reserved, 0, spot)
            .with_spot_churn(1, 2, period.max(outage + 1), outage, spot, cycles);
        model.validate().unwrap();

        let mut jobs = build_fleet(&raw);
        let mut state = PlanState::new();
        let full = compute_plan(&cfg, model.total_capacity(), &jobs).unwrap();
        let inc =
            compute_plan_incremental(&cfg, model.total_capacity(), &jobs, &mut state).unwrap();
        assert_plans_identical(&full, &inc)?;

        for (step, ev) in model.events.iter().enumerate() {
            // Demand drift between capacity events: a fresh sample lands
            // on one job, as it would in a live cluster.
            let k = step % jobs.len();
            jobs[k].samples.to_mut().push(drift + (step as u64 * 13) % 70);
            let capacity = model.capacity_at(ev.at);
            let full = compute_plan(&cfg, capacity, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&full, &inc)?;
        }
    }

    /// The peel layer alone, under the same event kinds, agrees with the
    /// frozen naive oracle at every step of the stream. The incremental
    /// peel is checked bitwise against the optimized full peel (they share
    /// every probe's arithmetic), and both against the naive peel at a
    /// coarser bound that absorbs bisection wobble — the same two-tier
    /// comparison the non-incremental differential suite uses.
    #[test]
    fn event_stream_peel_matches_naive_oracle(
        raw in prop::collection::vec((1u64..4000, 100.0f64..3000.0, 1.0f64..5.0), 2..20),
        events in prop::collection::vec(event_strategy(), 4..14),
        capacity0 in 4u32..64,
    ) {
        let tolerance = 1e-6;
        let bound = 1e-3;
        let horizon = 1e6;
        let mut utilities: Vec<TimeUtility> = raw
            .iter()
            .map(|(_, budget, weight)| {
                TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap()
            })
            .collect();
        let mut demands: Vec<u64> = raw.iter().map(|(d, _, _)| *d).collect();
        // Job identity per index, handed to the peel as its key.
        let mut ids: Vec<u64> = (0..demands.len() as u64).collect();
        let mut next_id = demands.len() as u64;
        let mut capacity = capacity0;
        let mut state = PeelState::new();

        for step in 0..=events.len() {
            if step > 0 {
                match &events[step - 1] {
                    Ev::Sample { sel, val } => {
                        // Demand drift: what a fresh sample does to η.
                        let k = sel % demands.len();
                        demands[k] = demands[k] / 2 + val * 7;
                    }
                    Ev::Arrival((_, _, _, budget, weight, _)) => {
                        utilities.push(
                            TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap(),
                        );
                        demands.push(*budget as u64);
                        ids.push(next_id);
                        next_id += 1;
                    }
                    Ev::Cancel { sel } => {
                        if demands.len() > 1 {
                            let k = sel % demands.len();
                            demands.remove(k);
                            utilities.remove(k);
                            ids.remove(k);
                        }
                    }
                    Ev::Failure { sel } => {
                        let k = sel % demands.len();
                        demands[k] = demands[k].saturating_add(demands[k] / 4 + 1);
                    }
                    Ev::Capacity { cap } => capacity = *cap,
                    Ev::Overload { sel, tasks } => {
                        let k = sel % demands.len();
                        demands[k] = (*tasks as u64).saturating_mul(50);
                    }
                }
            }
            let jobs: Vec<OnionJob> = demands
                .iter()
                .zip(&utilities)
                .map(|(&demand, &utility)| OnionJob { demand, utility, age: 0.0 })
                .collect();
            let full = onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
            let inc =
                onion::peel_incremental(&ids, &jobs, capacity, tolerance, horizon, &mut state)
                    .unwrap();
            // Demands here never reach zero and one job always survives, so
            // nothing but the very first pass may peel from scratch: an
            // arrival or a cancel that silently went cold fails here.
            prop_assert_eq!(state.last_stats().delta, step > 0, "step {}: path", step);
            let naive = rush_oracle::onion::peel(&jobs, capacity, tolerance, horizon).unwrap();

            // Tier 1: incremental ≡ full, bitwise.
            prop_assert_eq!(inc.len(), full.len());
            for (a, b) in inc.iter().zip(&full) {
                prop_assert_eq!(a.job, b.job, "step {}: peel order diverged", step);
                prop_assert_eq!(
                    a.level.to_bits(),
                    b.level.to_bits(),
                    "step {}: level bits diverged for job {}",
                    step,
                    a.job
                );
                prop_assert_eq!(
                    a.deadline.to_bits(),
                    b.deadline.to_bits(),
                    "step {}: deadline bits diverged for job {}",
                    step,
                    a.job
                );
                prop_assert_eq!(a.lax, b.lax);
            }

            // Tier 2: both match the frozen oracle up to bisection wobble.
            prop_assert_eq!(naive.len(), inc.len());
            let mut inc_by_job = inc.clone();
            inc_by_job.sort_by_key(|t| t.job);
            let mut ref_by_job = naive.clone();
            ref_by_job.sort_by_key(|t| t.job);
            for (f, r) in inc_by_job.iter().zip(&ref_by_job) {
                prop_assert_eq!(f.job, r.job);
                prop_assert_eq!(
                    f.lax,
                    r.lax,
                    "step {}: deadline-free classification diverged for job {}",
                    step,
                    f.job
                );
                prop_assert!(
                    (f.level - r.level).abs() <= bound,
                    "step {}: job {} level {} vs oracle {}",
                    step, f.job, f.level, r.level
                );
            }
            let mut inc_levels: Vec<f64> = inc.iter().map(|t| t.level).collect();
            let mut ref_levels: Vec<f64> = naive.iter().map(|t| t.level).collect();
            inc_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ref_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (f, r) in inc_levels.iter().zip(&ref_levels) {
                prop_assert!(
                    (f - r).abs() <= bound,
                    "step {}: layer level {} vs oracle {}",
                    step, f, r
                );
            }
        }
    }

    /// Ticks mixed into the event stream at the plan level: after every
    /// event the clock moves 0, 1, 2, 3 or 7 slots, every job ages by it,
    /// and the incremental plan must stay bit-identical to a from-scratch
    /// pass. Here the peel finds the tick itself (its key alignment) and a
    /// demand that drops to zero is replayed as a departure and an arrival,
    /// so no pass after the first may peel from scratch. (The frozen-oracle
    /// tier runs on the ticking fleet streams: a random contended instance
    /// can hit the fast/naive bisection wobble with or without a tick.)
    #[test]
    fn tick_stream_plan_bit_identical_to_full(
        raw in prop::collection::vec(job_strategy(), 1..10),
        events in prop::collection::vec((event_strategy(), 0usize..5), 4..14),
        capacity0 in 4u32..64,
    ) {
        let cfg = RushConfig::default();
        let mut jobs = build_fleet(&raw);
        let mut keys = jobs.len() as u64;
        for job in &mut jobs {
            job.age = job.age.floor();
        }
        let mut capacity = capacity0;
        let mut state = PlanState::new();
        let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&compute_plan(&cfg, capacity, &jobs).unwrap(), &inc)?;

        for (step, (ev, tick)) in events.iter().enumerate() {
            match ev {
                Ev::Sample { sel, val } => {
                    let k = sel % jobs.len();
                    jobs[k].samples.to_mut().push(*val);
                }
                Ev::Arrival(raw) => {
                    jobs.push(PlanInput { age: 0.0, ..build_input(keys, raw) });
                    keys += 1;
                }
                Ev::Cancel { sel } => {
                    if jobs.len() > 1 {
                        jobs.remove(sel % jobs.len());
                    }
                }
                Ev::Failure { sel } => {
                    let k = sel % jobs.len();
                    jobs[k].failed_attempts += 1;
                }
                Ev::Capacity { cap } => capacity = *cap,
                Ev::Overload { sel, tasks } => {
                    let k = sel % jobs.len();
                    jobs[k].remaining_tasks = *tasks;
                }
            }
            for job in &mut jobs {
                job.age += [0.0, 1.0, 2.0, 3.0, 7.0][*tick];
            }
            let full = compute_plan(&cfg, capacity, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&full, &inc)?;
            prop_assert!(state.last_stats().peel_replay.delta, "step {}: path", step);
        }
    }
}

/// The kinds of key list [`hostile_key_lists_replay_bit_for_bit`] hands the
/// second pass.
#[derive(Clone, Copy, Debug)]
enum Keys {
    /// The recorded keys rotated: the `j`-th job claims the recorded job
    /// `rot` places later.
    Shuffled,
    /// One job repeats its predecessor's key.
    Duplicated,
    /// No key was recorded.
    AllFresh,
    /// The recorded keys, with one job's utility changed.
    UtilityChanged,
    /// The recorded keys, with one job aged a slot more than the rest.
    AgedUnevenly,
    /// The recorded keys, with one job's demand crossing zero.
    CrossesZero,
}

const KEYS: [Keys; 6] = [
    Keys::Shuffled,
    Keys::Duplicated,
    Keys::AllFresh,
    Keys::UtilityChanged,
    Keys::AgedUnevenly,
    Keys::CrossesZero,
];

/// Whether any of `pairs` — `(recorded, now)` jobs the key merge paired —
/// stands, by the rules as stated: the utility is kept, the age moves by
/// the tick the first pair with its utility implies (≥ 0, bit for bit), and
/// the demand does not cross zero.
fn any_pair_stands(pairs: impl Iterator<Item = (OnionJob, OnionJob)>) -> bool {
    let mut tick = None;
    for (then, now) in pairs {
        let shift = tick.unwrap_or(now.age - then.age);
        let aged = (then.age + shift).to_bits() == now.age.to_bits();
        if shift >= 0.0 && aged && now.utility == then.utility {
            tick = Some(shift);
            if (then.demand == 0) == (now.demand == 0) {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever keys a caller hands `peel_incremental`, a warm pass is
    /// bitwise the from-scratch peel, and it replays exactly when some pair
    /// of the key merge stands. Utilities come from a palette of four, so
    /// jobs a hostile list pairs by mistake often share one.
    #[test]
    fn hostile_key_lists_replay_bit_for_bit(
        raw in prop::collection::vec((0u64..5000, 0usize..4, 0u32..40), 2..16),
        kind in 0usize..6,
        sel in 0usize..64,
        tick in 0u32..4,
        capacity in 4u32..400,
    ) {
        let (tolerance, horizon) = (1e-6, 1e6);
        let palette = |u: usize| {
            let budget = [300.0, 800.0, 1500.0, 2500.0][u];
            TimeUtility::sigmoid(budget, 1.0 + u as f64, 10.0 / budget).unwrap()
        };
        // One job in five without demand.
        let recorded: Vec<OnionJob> = raw
            .iter()
            .map(|&(d, u, age)| OnionJob {
                demand: if d < 4000 { d } else { 0 },
                utility: palette(u),
                age: f64::from(age),
            })
            .collect();
        let n = recorded.len();
        let recorded_keys: Vec<u64> = (0..n as u64).collect();
        let kind = KEYS[kind];
        let (s, rot) = (sel % n, 1 + sel % (n - 1));
        let mut jobs: Vec<OnionJob> =
            recorded.iter().map(|&j| OnionJob { age: j.age + f64::from(tick), ..j }).collect();
        // Some demand moves whatever the keys say.
        jobs[(s + 1) % n].demand += 1 + jobs[(s + 1) % n].demand / 16;
        let mut keys = recorded_keys.clone();
        // The recorded index each job's key merges with.
        let mut merged: Vec<Option<usize>> = (0..n).map(Some).collect();
        match kind {
            Keys::Shuffled => {
                keys.rotate_left(rot);
                merged = (0..n).map(|j| (j + rot < n).then_some(j + rot)).collect();
            }
            Keys::Duplicated => {
                let d = rot;
                keys[d] = keys[d - 1];
                merged[d] = None;
            }
            Keys::AllFresh => {
                keys.iter_mut().for_each(|k| *k += n as u64);
                merged = vec![None; n];
            }
            Keys::UtilityChanged => jobs[s].utility = palette((raw[s].1 + 1) % 4),
            Keys::AgedUnevenly => jobs[s].age += 1.0,
            Keys::CrossesZero => jobs[s].demand = if jobs[s].demand == 0 { 100 } else { 0 },
        }

        let mut state = PeelState::new();
        let mut peel_warm = |keys: &[u64], jobs: &[OnionJob]| {
            onion::peel_incremental(keys, jobs, capacity, tolerance, horizon, &mut state).unwrap()
        };
        peel_warm(&recorded_keys, &recorded);
        let inc = peel_warm(&keys, &jobs);
        let full = onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
        let bits = |ts: &[onion::Target]| -> Vec<(usize, u64, u64, bool)> {
            ts.iter().map(|t| (t.job, t.level.to_bits(), t.deadline.to_bits(), t.lax)).collect()
        };
        prop_assert_eq!(bits(&inc), bits(&full), "{:?}", kind);
        let pairs =
            jobs.iter().zip(&merged).filter_map(|(&now, was)| was.map(|i| (recorded[i], now)));
        prop_assert_eq!(state.last_stats().delta, any_pair_stands(pairs), "{:?}", kind);
    }
}
