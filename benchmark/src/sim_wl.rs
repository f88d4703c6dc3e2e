//! The `sim_rush` workload: the paper's own loop (Figs. 4/6) with the RUSH
//! scheduler in it.
//!
//! One repetition is `Experiment::run` with `RushScheduler` on the paper
//! testbed (48 containers) under log-normal interference and light spot
//! churn. Repetitions with fresh sub-seeds run until the time budget is
//! spent; throughput is the median over repetitions, the deadline-hit share
//! is pooled over the first [`POOLED_REPS`] (always run, so the share is a
//! pure function of the seed).
//!
//! The scheduler is wrapped in a [`Probe`] that times every callback from
//! outside: the simulator is to RUSH what a resource manager is to its
//! scheduler plug-in, so "how long does the manager wait for an answer" is
//! this workload's latency.

use crate::metrics::{Metrics, Outcome};
use crate::phases::{ratio, PhaseTotals};
use crate::procstat;
use crate::stats;
use crate::trace::{totals_by_name, Recorder, SpanId};
use rush_core::RushConfig;
use rush_planner::RushScheduler;
use rush_prob::rng::derive_seed;
use rush_serve::json::Json;
use rush_sim::cluster::ClusterSpec;
use rush_sim::job::JobSpec;
use rush_sim::outcome::SimResult;
use rush_sim::perturb::Interference;
use rush_sim::view::{ClusterView, TaskSample};
use rush_sim::{JobId, Scheduler, SimError};
use rush_workload::{generate, spot_scenarios, Experiment, WorkloadConfig};
use std::path::Path;
use std::time::Instant;

/// Containers per node of the paper testbed (6 nodes → 48 containers).
const CONTAINERS_PER_NODE: u32 = 8;
/// Mean Poisson inter-arrival time in slots: a burst. The whole job set
/// arrives within a few hundred slots and then drains for ~11 000, so the
/// live-job trajectory (160 → 0, mean ≈ 75) barely depends on the seed. A
/// sustained overloaded stream (mean 55 slots) reaches the same regime but
/// its backlog is a random walk: throughput moved ±20 % from seed to seed.
const MEAN_INTERARRIVAL: f64 = 3.0;
/// Budget as a multiple of the benchmarked solo runtime; sized to the
/// backlog so that about four jobs in five can meet theirs.
const BUDGET_RATIO: f64 = 40.0;
/// Coefficient of variation of the log-normal interference.
const INTERFERENCE_CV: f64 = 0.25;
/// The spot scenario whose capacity events the run replays.
const SCENARIO: &str = "light-churn";
/// Slots of churn scheduled past the last arrival.
const CHURN_TAIL: u64 = 20_000;
/// Repetitions whose outcomes are pooled into `deadline_hit_frac`.
const POOLED_REPS: usize = 2;
/// How often set-up is repeated to report a median `setup_s`.
const SETUP_REPS: usize = 15;

/// Sizing of one run.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Jobs per repetition.
    pub jobs: usize,
}

impl SimSpec {
    /// The gated sizing.
    pub const FULL: SimSpec = SimSpec { jobs: 160 };
    /// The `--quick` sizing (numbers not comparable).
    pub const QUICK: SimSpec = SimSpec { jobs: 40 };

    /// The settings stamped into result files.
    pub fn describe(&self) -> Vec<(String, Json)> {
        vec![
            (
                "scheduler".into(),
                Json::str("RushScheduler(RushConfig::default())"),
            ),
            ("cluster".into(), Json::str("ClusterSpec::paper_testbed(8)")),
            ("jobs_per_rep".into(), Json::u64(self.jobs as u64)),
            (
                "mean_interarrival_slots".into(),
                Json::f64(MEAN_INTERARRIVAL),
            ),
            ("budget_ratio".into(), Json::f64(BUDGET_RATIO)),
            ("interference_cv".into(), Json::f64(INTERFERENCE_CV)),
            ("capacity_events".into(), Json::str(SCENARIO)),
            ("pooled_reps".into(), Json::u64(POOLED_REPS as u64)),
        ]
    }
}

/// What identifies a repetition's result: any behavioural change to the
/// scheduler, the engine or the generator moves at least one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Slot at which the last job finished.
    pub makespan: u64,
    /// Container assignments performed.
    pub assignments: u64,
    /// Budgeted jobs that met their budget.
    pub budgets_met: u64,
    /// Attempts killed by revocations.
    pub revoked_attempts: u64,
}

/// Repetition 0 of seed 1 at [`SimSpec::FULL`], recorded at the commit that
/// introduced the benchmark. A mismatch means scheduling *behaviour*
/// changed, which no performance PR may do silently.
pub const SEED1_REP0_DIGEST: Digest = Digest {
    makespan: 11836,
    assignments: 6221,
    budgets_met: 130,
    revoked_attempts: 381,
};

/// One generated repetition: the experiment environment and its jobs.
struct Rep {
    exp: Experiment,
    jobs: Vec<JobSpec>,
    /// Slots at which the scenario's capacity events fire.
    capacity_event_slots: Vec<u64>,
}

fn build_rep(spec: SimSpec, seed: u64, rep: u64) -> Result<Rep, SimError> {
    let cluster = ClusterSpec::paper_testbed(CONTAINERS_PER_NODE)?;
    let capacity = cluster.capacity();
    let sub_seed = derive_seed(seed, rep);
    let base = Experiment::new(cluster)
        .with_interference(Interference::LogNormal {
            cv: INTERFERENCE_CV,
        })
        .with_sim_seed(sub_seed);
    let cfg = WorkloadConfig {
        jobs: spec.jobs,
        mean_interarrival: MEAN_INTERARRIVAL,
        budget_ratio: BUDGET_RATIO,
        seed: sub_seed,
        ..WorkloadConfig::default()
    };
    let jobs = generate(&cfg, &base)?;
    let horizon = jobs.iter().map(JobSpec::arrival).max().unwrap_or(0) + CHURN_TAIL;
    let scenario = spot_scenarios()
        .into_iter()
        .find(|s| s.name == SCENARIO)
        .ok_or(SimError::InvalidConfig {
            reason: "spot scenario missing",
        })?;
    let model = scenario.cluster_model(capacity, horizon);
    let capacity_event_slots = model.sim_events().iter().map(|e| e.at).collect();
    Ok(Rep {
        exp: base.with_cluster_model(&model),
        jobs,
        capacity_event_slots,
    })
}

/// Callback kinds of the scheduler SPI, as indices into [`Probe`] tables.
#[derive(Clone, Copy)]
enum Cb {
    Arrival = 0,
    Complete = 1,
    Failed = 2,
    Capacity = 3,
    Assign = 4,
}

const CB_SPANS: [&str; 5] = [
    "planner.scheduler.on_job_arrival",
    "planner.scheduler.on_task_complete",
    "planner.scheduler.on_task_failed",
    "planner.scheduler.on_capacity_change",
    "planner.scheduler.assign",
];

/// A [`Scheduler`] that delegates to [`RushScheduler`] and times every
/// callback. With a recorder attached it also records one span per
/// callback and reads the kernel's phase stats after every replan.
struct Probe<'a> {
    inner: RushScheduler,
    calls: [u64; 5],
    ns: [u64; 5],
    /// Wall ms from an arrival callback to the end of the first `assign`
    /// after it: how long the manager waits until a new job is planned.
    absorb_ms: Vec<f64>,
    arrival_open_ns: Option<u64>,
    /// Wall ms of `assign` per scheduling event (the run of `assign` calls
    /// between two other callbacks): how long the manager waits for its
    /// dispatch decisions.
    round_ms: Vec<f64>,
    round_open_ns: Option<u64>,
    trace: Option<(&'a mut Recorder, SpanId, &'a mut PhaseTotals)>,
}

impl<'a> Probe<'a> {
    fn new(trace: Option<(&'a mut Recorder, SpanId, &'a mut PhaseTotals)>) -> Self {
        Probe {
            inner: RushScheduler::new(RushConfig::default()),
            calls: [0; 5],
            ns: [0; 5],
            absorb_ms: Vec::new(),
            arrival_open_ns: None,
            round_ms: Vec::new(),
            round_open_ns: None,
            trace,
        }
    }

    /// Whether the next plan read at `view` will replan.
    fn stale(&self, view: &ClusterView<'_>) -> bool {
        let kernel = self.inner.kernel();
        !kernel.is_fresh(view.now) || kernel.capacity() != view.capacity
    }

    fn timed<R>(
        &mut self,
        cb: Cb,
        view: &ClusterView<'_>,
        call: impl FnOnce(&mut RushScheduler) -> R,
    ) -> R {
        let replans =
            matches!(cb, Cb::Assign | Cb::Capacity) && self.trace.is_some() && self.stale(view);
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let i = cb as usize;
        // bound: Cb discriminants are 0..=4, the tables have 5 entries
        self.calls[i] += 1;
        self.ns[i] += ns;
        match cb {
            Cb::Assign => {
                if let Some(open) = self.arrival_open_ns.take() {
                    self.absorb_ms.push((open + ns) as f64 / 1e6);
                }
                *self.round_open_ns.get_or_insert(0) += ns;
            }
            _ => {
                if let Some(round) = self.round_open_ns.take() {
                    self.round_ms.push(round as f64 / 1e6);
                }
                if matches!(cb, Cb::Arrival) {
                    *self.arrival_open_ns.get_or_insert(0) += ns;
                }
            }
        }
        if let Some((rec, root, phases)) = &mut self.trace {
            // bound: i < 5 == CB_SPANS.len()
            rec.record(CB_SPANS[i], start, end, Some(*root), None);
            if replans {
                phases.replans += 1;
                phases.sample(self.inner.kernel());
            }
        }
        out
    }
}

impl Scheduler for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.timed(Cb::Arrival, view, |s| s.on_job_arrival(view, job));
    }

    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        if let Some((_, _, phases)) = &mut self.trace {
            phases.dirty += 1;
        }
        self.timed(Cb::Complete, view, |s| s.on_task_complete(view, sample));
    }

    fn on_task_failed(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        self.timed(Cb::Failed, view, |s| s.on_task_failed(view, sample));
    }

    fn on_capacity_change(&mut self, view: &ClusterView<'_>) {
        self.timed(Cb::Capacity, view, |s| s.on_capacity_change(view));
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        self.timed(Cb::Assign, view, |s| s.assign(view))
    }
}

/// One finished repetition.
struct RepResult {
    digest: Digest,
    events: u64,
    wall_s: f64,
    budgeted: u64,
    unfinished: u64,
    misassignments: u64,
}

fn summarize(rep: &Rep, result: &SimResult, wall_s: f64) -> RepResult {
    let tasks: u64 = result.outcomes.iter().map(|o| o.tasks as u64).sum();
    let fired = rep
        .capacity_event_slots
        .iter()
        .filter(|&&at| at <= result.makespan)
        .count() as u64;
    RepResult {
        digest: Digest {
            makespan: result.makespan,
            assignments: result.assignments,
            budgets_met: result.outcomes.iter().filter(|o| o.met_budget()).count() as u64,
            revoked_attempts: result.revoked_attempts,
        },
        // Arrivals + task completions + failed attempts + capacity events.
        events: rep.jobs.len() as u64 + tasks + result.failed_attempts + fired,
        wall_s,
        budgeted: result
            .outcomes
            .iter()
            .filter(|o| o.budget.is_some())
            .count() as u64,
        unfinished: (rep.jobs.len() - result.outcomes.len().min(rep.jobs.len())) as u64,
        misassignments: result.misassignments,
    }
}

fn run_rep(rep: &Rep, probe: &mut Probe<'_>) -> Result<RepResult, SimError> {
    let start = Instant::now();
    let result = rep.exp.run(rep.jobs.clone(), probe)?;
    Ok(summarize(rep, &result, start.elapsed().as_secs_f64()))
}

fn check_rep(out: &mut Outcome, r: &RepResult, rep_no: u64) {
    out.attempted += r.events;
    out.failed += r.unfinished + r.misassignments;
    if r.unfinished > 0 {
        out.fail(format!(
            "rep {rep_no}: {} jobs never finished",
            r.unfinished
        ));
    }
    if r.misassignments > 0 {
        out.fail(format!("rep {rep_no}: {} misassignments", r.misassignments));
    }
}

/// Runs the workload and returns its metrics.
///
/// # Errors
///
/// A description of whatever stopped the run (a simulator error).
pub fn run(
    spec: SimSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let err = |e: SimError| e.to_string();
    let process_start = Instant::now();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut m = Metrics::default();

    // Set-up: generate repetition 0 (budget calibration included).
    let mut setup_s = Vec::new();
    let mut first = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        first = Some(build_rep(spec, seed, 0).map_err(err)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let generate_ms = stats::median(&mut setup_s) * 1e3;
    m.set("setup_s", generate_ms / 1e3);
    m.set("workload.generate_ms", generate_ms);

    let mut rec = Recorder::new(process_start);
    let mut phases = PhaseTotals::default();
    let mut events_per_s = Vec::new();
    let mut traced_eps = Vec::new();
    let mut absorb_ms = Vec::new();
    let mut round_ms = Vec::new();
    let (mut met, mut budgeted) = (0u64, 0u64);
    let (mut calls, mut ns) = ([0u64; 5], [0u64; 5]);
    let (mut traced_events, mut traced_wall_s) = (0u64, 0.0f64);
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);

    let timed_start = Instant::now();
    let mut rep_no = 0u64;
    loop {
        let rep = match first.take() {
            Some(rep) => rep,
            None => build_rep(spec, seed, rep_no).map_err(err)?,
        };
        // The gated numbers come from the timing-only probe.
        let mut probe = Probe::new(None);
        let plain = run_rep(&rep, &mut probe).map_err(err)?;
        check_rep(&mut out, &plain, rep_no);
        events_per_s.push(plain.events as f64 / plain.wall_s);
        absorb_ms.append(&mut probe.absorb_ms);
        round_ms.append(&mut probe.round_ms);
        if (rep_no as usize) < POOLED_REPS {
            met += plain.digest.budgets_met;
            budgeted += plain.budgeted;
        }
        if rep_no == 0
            && seed == 1
            && spec.jobs == SimSpec::FULL.jobs
            && plain.digest != SEED1_REP0_DIGEST
        {
            out.fail(format!(
                "seed 1 rep 0 digest {:?} differs from the recorded {SEED1_REP0_DIGEST:?}",
                plain.digest
            ));
        }

        if traced {
            // The same repetition again with spans and phase stats on.
            let root = rec.open("workload.experiment_run", Instant::now());
            let mut probe = Probe::new(Some((&mut rec, root, &mut phases)));
            let again = run_rep(&rep, &mut probe).map_err(err)?;
            let (probe_calls, probe_ns) = (probe.calls, probe.ns);
            cache_hits += probe.inner.kernel().cache_hits();
            cache_misses += probe.inner.kernel().cache_misses();
            drop(probe);
            rec.close(root, Instant::now());
            if again.digest != plain.digest {
                out.fail(format!(
                    "rep {rep_no}: traced digest {:?} differs from untraced {:?}",
                    again.digest, plain.digest
                ));
            }
            traced_eps.push(again.events as f64 / again.wall_s);
            traced_events += again.events;
            traced_wall_s += again.wall_s;
            for i in 0..5 {
                // bound: all four tables have 5 entries
                calls[i] += probe_calls[i];
                ns[i] += probe_ns[i];
            }
        }
        rep_no += 1;
        let pooled = rep_no as usize >= POOLED_REPS || traced;
        if pooled && timed_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let eps = stats::median(&mut events_per_s);
    m.set("ops_per_s", eps);
    m.set("submit_p50_ms", stats::median(&mut absorb_ms));
    m.set("read_p50_ms", stats::median(&mut round_ms));
    m.set("deadline_hit_frac", ratio(met, budgeted));
    m.set("peak_rss_mb", procstat::peak_rss_mb());
    if budgeted == 0 {
        out.fail("no budgeted job in the workload");
    }

    if traced {
        let callback_ns: u64 = ns.iter().sum();
        let callback_s = callback_ns as f64 / 1e9;
        // bound: Cb discriminants index the 5-entry tables
        let (assign, complete, arrival) = (
            Cb::Assign as usize,
            Cb::Complete as usize,
            Cb::Arrival as usize,
        );
        m.set(
            "planner.scheduler.assign_us_mean",
            ratio(ns[assign], calls[assign]) / 1e3,
        );
        m.set(
            "planner.scheduler.assign_calls_per_event",
            ratio(calls[assign], traced_events),
        );
        m.set(
            "planner.scheduler.on_task_complete_ns",
            ratio(ns[complete], calls[complete]),
        );
        m.set(
            "planner.scheduler.on_job_arrival_ns",
            ratio(ns[arrival], calls[arrival]),
        );
        m.set(
            "planner.scheduler.callback_frac",
            callback_s / traced_wall_s,
        );
        m.set("sim.events", traced_events as f64);
        m.set("sim.engine_self_s", traced_wall_s - callback_s);
        m.set(
            "sim.engine_ns_per_event",
            (traced_wall_s - callback_s) * 1e9 / traced_events as f64,
        );
        m.set(
            "planner.cache_hit_frac",
            ratio(cache_hits, cache_hits + cache_misses),
        );
        phases.emit(&mut m);
        m.set(
            "driver.trace_overhead_frac",
            1.0 - stats::median(&mut traced_eps) / eps,
        );

        // Self time from the spans must agree with the wall-clock split by
        // construction: run self = run − Σ callbacks.
        let totals = totals_by_name(rec.spans());
        let run_self = totals
            .get("workload.experiment_run")
            .map_or(0, |t| t.self_ns) as f64
            / 1e9;
        out.notes.push(format!(
            "reconcile: experiment_run self {run_self:.4} s vs wall − callbacks {:.4} s",
            traced_wall_s - callback_s
        ));
        let header = vec![
            ("workload".to_string(), Json::str("sim_rush")),
            ("seed".to_string(), Json::u64(seed)),
        ];
        rec.write_json(trace_path, header)
            .map_err(|e| format!("trace file: {e}"))?;
        out.tabulate(rec.spans(), &phases.rows());
    }
    out.metrics = m;
    Ok(out)
}
