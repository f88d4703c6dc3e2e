//! The seeded op stream: which request goes next, against which job.
//!
//! This module is pure bookkeeping — no sockets, no clocks — so the same
//! seed and the same verdicts always produce the same ops. The driver
//! ([`crate::driver`]) attaches due times and moves the frames.
//!
//! The job population is held constant: every departure (a job's last
//! sample, or a cancel) makes exactly one replacement `submit` due. Jobs
//! admitted during warm-up are *aged* — a random share of their samples is
//! reported before anything is timed — so the timed phase starts from a
//! daemon that looks like it has been running for a while (jobs at every
//! stage of progress) rather than from 500 jobs that all just arrived.
//! Order-dependent ops never race across the two connections: a job is
//! cancelled, or sent its final sample, only while no other op of its own
//! is in flight, and from then on nothing else targets it. On a correct
//! daemon the expected number of error replies is therefore zero.

use rand::rngs::SmallRng;
use rand::Rng;
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_serve::protocol::{JobSubmission, Request};
use std::collections::{BTreeMap, VecDeque};

/// The request kinds the driver sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `submit` (lifecycle connection).
    Submit,
    /// `cancel` (lifecycle connection).
    Cancel,
    /// `report-sample` (runtime connection).
    ReportSample,
    /// `predict` (runtime connection).
    Predict,
    /// `query-plan` for one job (runtime connection).
    QueryJob,
    /// `query-plan` for the whole table (runtime connection).
    QueryAll,
    /// `stats` (runtime connection).
    Stats,
}

impl OpKind {
    /// Dense index for per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the op travels on the lifecycle connection.
    pub fn is_lifecycle(self) -> bool {
        matches!(self, OpKind::Submit | OpKind::Cancel)
    }

    /// The span name of the driver's send→reply interval for this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Submit => "driver.submit",
            OpKind::Cancel => "driver.cancel",
            OpKind::ReportSample => "driver.report_sample",
            OpKind::Predict => "driver.predict",
            OpKind::QueryJob => "driver.query_plan_job",
            OpKind::QueryAll => "driver.query_plan_all",
            OpKind::Stats => "driver.stats",
        }
    }
}

/// Percent weights of the runtime-connection ops (they sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Mix name, stamped into result files.
    pub name: &'static str,
    /// `report-sample` share.
    pub report_sample: u32,
    /// `predict` share.
    pub predict: u32,
    /// `query-plan{job}` share.
    pub query_job: u32,
    /// `stats` share.
    pub stats: u32,
    /// `query-plan{all}` share.
    pub query_all: u32,
}

/// What a task executor fleet sends: mostly heartbeats carrying samples.
pub const EXECUTOR: Mix = Mix {
    name: "executor",
    report_sample: 85,
    predict: 10,
    query_job: 4,
    stats: 1,
    query_all: 0,
};

/// What dashboards and SLA monitors send: almost only reads.
pub const MONITOR: Mix = Mix {
    name: "monitor",
    report_sample: 2,
    predict: 60,
    query_job: 33,
    stats: 4,
    query_all: 1,
};

/// One job of the submission pool: the wire submission plus the task
/// runtimes its samples will report, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolJob {
    /// The submission as sent.
    pub submission: JobSubmission,
    /// One runtime (slots, ≥ 1) per task.
    pub runtimes: Vec<u64>,
}

/// One request the stream wants sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The request kind.
    pub kind: OpKind,
    /// Target job id (all kinds except submit, stats and the full table).
    pub job: Option<u64>,
    /// The reported runtime (`report-sample` only).
    pub runtime: u64,
    /// Pool index of the submission (`submit` only).
    pub pool: usize,
    /// Whether this `report-sample` is the job's last (its ack is the
    /// job's departure).
    pub last_sample: bool,
}

impl Op {
    /// An op of `kind` against `job`, with the kind-specific fields unset.
    pub fn new(kind: OpKind, job: Option<u64>) -> Op {
        Op {
            kind,
            job,
            runtime: 0,
            pool: 0,
            last_sample: false,
        }
    }

    /// The wire request for this op.
    pub fn request(&self, pool: &[PoolJob]) -> Request {
        let job = self.job.unwrap_or(u64::MAX);
        match self.kind {
            OpKind::Submit => {
                // bound: `pool` indices come from `OpStream`, always < pool.len()
                Request::Submit(pool[self.pool].submission.clone())
            }
            OpKind::Cancel => Request::Cancel { job },
            OpKind::ReportSample => Request::ReportSample {
                job,
                runtime: self.runtime,
            },
            OpKind::Predict => Request::Predict { job },
            OpKind::QueryJob => Request::QueryPlan { job: Some(job) },
            OpKind::QueryAll => Request::QueryPlan { job: None },
            OpKind::Stats => Request::Stats,
        }
    }
}

/// What the daemon answered, reduced to what the population model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `submit` admitted under this id.
    Admitted(u64),
    /// `submit` parked under this id (cancelled at once).
    Deferred(u64),
    /// `submit` rejected.
    Rejected,
    /// Any other op answered with the reply its request calls for.
    Done,
    /// Error reply, wrong variant, or no reply at all.
    Failed,
}

/// One resident job as the driver sees it.
#[derive(Debug, Clone, Copy)]
struct Live {
    id: u64,
    pool: usize,
    /// Samples sent so far.
    sent: usize,
    /// Ops of this job in flight.
    busy: u32,
    /// A cancel or the last sample is on its way: nothing else may target
    /// the job any more.
    leaving: bool,
}

/// How many random draws a target pick may take before giving up.
const PICK_ATTEMPTS: usize = 8;

/// The seeded generator of ops over a constant job population.
#[derive(Debug)]
pub struct OpStream {
    rng: SmallRng,
    mix: Mix,
    pool: Vec<PoolJob>,
    next_pool: usize,
    jobs: Vec<Live>,
    slot_of: BTreeMap<u64, usize>,
    /// Submits that are due but not sent yet.
    owed_submits: usize,
    /// Routine cancels (one per `cancel_every` admissions) not sent yet.
    owed_cancels: usize,
    /// Deferred jobs to cancel at once.
    cancel_now: VecDeque<u64>,
    cancel_every: u64,
    admissions: u64,
    /// Warm-up only: `(job, samples still to report)` before timing starts.
    aging: VecDeque<(u64, usize)>,
    warming_up: bool,
}

/// Largest share of a job's samples warm-up may report ahead of time.
const MAX_AGED_SHARE: f64 = 0.9;

impl OpStream {
    /// A stream that first fills the population to `resident` jobs and then
    /// keeps it there. `cancel_every` admissions trigger one routine cancel.
    pub fn new(
        seed: u64,
        mix: Mix,
        pool: Vec<PoolJob>,
        resident: usize,
        cancel_every: u64,
    ) -> Self {
        OpStream {
            rng: seeded_rng(derive_seed(seed, 0x0B5)),
            mix,
            pool,
            next_pool: 0,
            jobs: Vec::with_capacity(resident + 1),
            slot_of: BTreeMap::new(),
            owed_submits: resident,
            owed_cancels: 0,
            cancel_now: VecDeque::new(),
            cancel_every: cancel_every.max(1),
            admissions: 0,
            aging: VecDeque::new(),
            warming_up: true,
        }
    }

    /// Ends warm-up: jobs admitted from now on start with no samples.
    pub fn end_warm_up(&mut self) {
        self.warming_up = false;
    }

    /// Whether warm-up still has samples to report.
    pub fn aging_due(&self) -> bool {
        !self.aging.is_empty()
    }

    /// The next warm-up sample, if any job still has to be aged.
    pub fn next_aging(&mut self) -> Option<Op> {
        loop {
            let (job, left) = self.aging.front_mut()?;
            let live = self
                .slot_of
                .get(job)
                .and_then(|&slot| self.jobs.get_mut(slot));
            let Some(live) = live.filter(|l| !l.leaving && *left > 0) else {
                self.aging.pop_front();
                continue;
            };
            *left -= 1;
            // bound: `live.pool` was produced by `next_lifecycle`, < pool.len()
            let runtime = self.pool[live.pool]
                .runtimes
                .get(live.sent)
                .copied()
                .unwrap_or(1);
            live.sent += 1;
            live.busy += 1;
            return Some(Op {
                runtime,
                ..Op::new(OpKind::ReportSample, Some(live.id))
            });
        }
    }

    /// The submission pool.
    pub fn pool(&self) -> &[PoolJob] {
        &self.pool
    }

    /// Jobs currently resident (admitted and not departed).
    pub fn resident(&self) -> usize {
        self.jobs.len()
    }

    /// Lifecycle ops that are due and could be sent right now.
    pub fn lifecycle_due(&self) -> usize {
        self.owed_submits + self.owed_cancels + self.cancel_now.len()
    }

    /// The next lifecycle op, if one is due *and* sendable (a routine
    /// cancel waits until some job has nothing in flight).
    pub fn next_lifecycle(&mut self) -> Option<Op> {
        if let Some(job) = self.cancel_now.pop_front() {
            return Some(Op::new(OpKind::Cancel, Some(job)));
        }
        if self.owed_cancels > 0 {
            if let Some(slot) = self.idle_victim() {
                self.owed_cancels -= 1;
                // bound: `idle_victim` returns an index into `self.jobs`
                let live = &mut self.jobs[slot];
                live.leaving = true;
                return Some(Op::new(OpKind::Cancel, Some(live.id)));
            }
        }
        if self.owed_submits > 0 {
            self.owed_submits -= 1;
            let pool = self.next_pool % self.pool.len().max(1);
            self.next_pool += 1;
            return Some(Op {
                pool,
                ..Op::new(OpKind::Submit, None)
            });
        }
        None
    }

    /// The next runtime-connection op. Falls back to `stats` when the drawn
    /// kind has no eligible target (e.g. every resident job is leaving).
    pub fn next_runtime(&mut self) -> Op {
        let roll = self.rng.gen_range(0..100u32);
        let m = self.mix;
        let kind = if roll < m.report_sample {
            OpKind::ReportSample
        } else if roll < m.report_sample + m.predict {
            OpKind::Predict
        } else if roll < m.report_sample + m.predict + m.query_job {
            OpKind::QueryJob
        } else if roll < m.report_sample + m.predict + m.query_job + m.stats {
            OpKind::Stats
        } else {
            OpKind::QueryAll
        };
        match kind {
            OpKind::ReportSample => {
                let pool = &self.pool;
                let slot = pick(&mut self.rng, &self.jobs, |j| {
                    // bound: `j.pool` was produced by `next_lifecycle`, < pool.len()
                    let tasks = pool[j.pool].runtimes.len();
                    !j.leaving && (j.sent + 1 < tasks || j.busy == 0)
                });
                let Some(slot) = slot else {
                    return Op::new(OpKind::Stats, None);
                };
                // bound: `pick` returns an index into `self.jobs`
                let live = &mut self.jobs[slot];
                let runtimes = &self.pool[live.pool].runtimes;
                let runtime = runtimes.get(live.sent).copied().unwrap_or(1);
                live.sent += 1;
                live.busy += 1;
                live.leaving = live.sent >= runtimes.len();
                Op {
                    runtime,
                    last_sample: live.leaving,
                    ..Op::new(OpKind::ReportSample, Some(live.id))
                }
            }
            OpKind::Predict | OpKind::QueryJob => {
                let Some(slot) = pick(&mut self.rng, &self.jobs, |j| !j.leaving) else {
                    return Op::new(OpKind::Stats, None);
                };
                // bound: `pick` returns an index into `self.jobs`
                let live = &mut self.jobs[slot];
                live.busy += 1;
                Op::new(kind, Some(live.id))
            }
            _ => Op::new(kind, None),
        }
    }

    /// Feeds one reply back. Returns how many lifecycle ops became due
    /// because of it (the driver stamps them with the reply's arrival time).
    pub fn complete(&mut self, op: &Op, verdict: Verdict) -> usize {
        let before = self.lifecycle_due();
        match op.kind {
            OpKind::Submit => match verdict {
                Verdict::Admitted(id) => {
                    self.slot_of.insert(id, self.jobs.len());
                    self.jobs.push(Live {
                        id,
                        pool: op.pool,
                        sent: 0,
                        busy: 0,
                        leaving: false,
                    });
                    if self.warming_up {
                        // bound: `op.pool` was produced by `next_lifecycle`, < pool.len()
                        let tasks = self.pool[op.pool].runtimes.len();
                        let share: f64 = self.rng.gen::<f64>() * MAX_AGED_SHARE;
                        self.aging.push_back((id, (share * tasks as f64) as usize));
                    }
                    self.admissions += 1;
                    if self.admissions.is_multiple_of(self.cancel_every) {
                        self.owed_cancels += 1;
                    }
                }
                // A parked job would be re-probed behind the driver's back;
                // cancel it at once and let the cancel's ack owe the submit.
                Verdict::Deferred(id) => self.cancel_now.push_back(id),
                Verdict::Rejected | Verdict::Done | Verdict::Failed => self.owed_submits += 1,
            },
            OpKind::Cancel => {
                if let Some(job) = op.job {
                    self.remove(job);
                }
                self.owed_submits += 1;
            }
            OpKind::ReportSample | OpKind::Predict | OpKind::QueryJob => {
                let Some(&slot) = op.job.and_then(|id| self.slot_of.get(&id)) else {
                    return 0;
                };
                // bound: `slot_of` only holds indices into `self.jobs`
                let live = &mut self.jobs[slot];
                live.busy = live.busy.saturating_sub(1);
                if op.last_sample {
                    let id = live.id;
                    self.remove(id);
                    self.owed_submits += 1;
                }
            }
            OpKind::QueryAll | OpKind::Stats => {}
        }
        self.lifecycle_due().saturating_sub(before)
    }

    /// A resident job with nothing in flight, scanning from a random start.
    fn idle_victim(&mut self) -> Option<usize> {
        let n = self.jobs.len();
        if n == 0 {
            return None;
        }
        let start = self.rng.gen_range(0..n);
        (0..n).map(|k| (start + k) % n).find(|&i| {
            // bound: i < n == self.jobs.len()
            let j = &self.jobs[i];
            !j.leaving && j.busy == 0
        })
    }

    fn remove(&mut self, id: u64) {
        let Some(slot) = self.slot_of.remove(&id) else {
            return;
        };
        self.jobs.swap_remove(slot);
        if let Some(moved) = self.jobs.get(slot) {
            self.slot_of.insert(moved.id, slot);
        }
    }
}

/// Draws up to [`PICK_ATTEMPTS`] uniform indices and returns the first whose
/// job satisfies `eligible`.
fn pick(rng: &mut SmallRng, jobs: &[Live], eligible: impl Fn(&Live) -> bool) -> Option<usize> {
    if jobs.is_empty() {
        return None;
    }
    (0..PICK_ATTEMPTS)
        .map(|_| rng.gen_range(0..jobs.len()))
        .find(|&i| {
            // bound: i < jobs.len() by construction of the range
            eligible(&jobs[i])
        })
}

/// Poisson due times for the open-loop workload, in nanoseconds from the
/// start of the timed phase.
#[derive(Debug)]
pub struct PoissonClock {
    rng: SmallRng,
    mean_gap_ns: f64,
    next_due_ns: u64,
}

impl PoissonClock {
    /// A clock ticking `rate_per_s` times a second on average; the first op
    /// is due one exponential gap after time zero.
    pub fn new(seed: u64, rate_per_s: f64) -> PoissonClock {
        let mut clock = PoissonClock {
            rng: seeded_rng(derive_seed(seed, 0xC10C)),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due_ns: 0,
        };
        clock.advance();
        clock
    }

    /// Restarts the schedule: the next op is due one gap after time zero.
    pub fn restart(&mut self) {
        self.next_due_ns = 0;
        self.advance();
    }

    /// When the next op is due.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// Consumes the pending due time and schedules the one after it.
    pub fn advance(&mut self) -> u64 {
        let due = self.next_due_ns;
        let u: f64 = self.rng.gen();
        // 1 - u is in (0, 1], so the logarithm is finite.
        let gap = -(1.0 - u).ln() * self.mean_gap_ns;
        self.next_due_ns = due + gap.round() as u64;
        due
    }
}

/// Milliseconds between two nanosecond stamps (0 when `to` is earlier).
pub fn elapsed_ms(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn pool(n: usize, tasks: usize) -> Vec<PoolJob> {
        (0..n)
            .map(|i| PoolJob {
                submission: JobSubmission {
                    label: format!("t{i}"),
                    tasks: tasks as u64,
                    runtime_hint: Some(10.0),
                    utility: TimeUtility::sigmoid(500.0, 3.0, 0.02).expect("valid utility"),
                    budget: Some(500),
                    priority: 1,
                },
                runtimes: (0..tasks).map(|k| 10 + k as u64).collect(),
            })
            .collect()
    }

    /// Drives a stream in lockstep (every op answered before the next is
    /// drawn) with scripted verdicts and returns the ops it produced.
    fn script(seed: u64, runtime_ops: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, EXECUTOR, pool(64, 5), 8, 4);
        let mut next_id = 0u64;
        let mut log = Vec::new();
        let settle = |s: &mut OpStream, log: &mut Vec<Op>, next_id: &mut u64| {
            while let Some(op) = s.next_lifecycle() {
                let verdict = match op.kind {
                    OpKind::Submit => {
                        *next_id += 1;
                        Verdict::Admitted(*next_id - 1)
                    }
                    _ => Verdict::Done,
                };
                log.push(op);
                s.complete(&op, verdict);
            }
        };
        // Warm-up: fill the population, then age it.
        settle(&mut s, &mut log, &mut next_id);
        while let Some(op) = s.next_aging() {
            assert!(!op.last_sample, "aging never completes a job");
            log.push(op);
            s.complete(&op, Verdict::Done);
        }
        s.end_warm_up();
        settle(&mut s, &mut log, &mut next_id);
        for _ in 0..runtime_ops {
            let op = s.next_runtime();
            log.push(op);
            s.complete(&op, Verdict::Done);
            settle(&mut s, &mut log, &mut next_id);
            assert_eq!(s.resident(), 8, "population is held constant");
        }
        log
    }

    #[test]
    fn same_seed_and_verdicts_give_the_same_ops() {
        let a = script(7, 400);
        assert_eq!(a, script(7, 400));
        assert_ne!(a, script(8, 400));
        // The stream exercised every lifecycle path: departures by last
        // sample, routine cancels, and their replacement submits.
        assert!(a.iter().any(|op| op.last_sample));
        assert!(a.iter().any(|op| op.kind == OpKind::Cancel));
        let submits = a.iter().filter(|op| op.kind == OpKind::Submit).count();
        let departures = a
            .iter()
            .filter(|op| op.last_sample || op.kind == OpKind::Cancel)
            .count();
        assert_eq!(submits, 8 + departures);
    }

    #[test]
    fn order_dependent_ops_wait_for_an_idle_job() {
        let mut s = OpStream::new(1, MONITOR, pool(4, 1), 1, 1);
        s.end_warm_up();
        let submit = s.next_lifecycle().expect("warm-up submit");
        // One admission with cancel_every = 1 owes a routine cancel.
        assert_eq!(s.complete(&submit, Verdict::Admitted(0)), 1);
        // With a read in flight the only job is busy: the cancel must wait.
        let read = loop {
            let op = s.next_runtime();
            if op.job.is_some() && op.kind != OpKind::ReportSample {
                break op;
            }
            s.complete(&op, Verdict::Done);
        };
        assert_eq!(s.next_lifecycle(), None);
        // ... and the job's single (= last) sample may not be sent either.
        for _ in 0..200 {
            let op = s.next_runtime();
            assert_ne!(op.kind, OpKind::ReportSample);
            if op.job.is_some() {
                s.complete(&op, Verdict::Done);
            }
        }
        s.complete(&read, Verdict::Done);
        let cancel = s.next_lifecycle().expect("cancel once idle");
        assert_eq!((cancel.kind, cancel.job), (OpKind::Cancel, Some(0)));
        // A leaving job is never targeted again.
        for _ in 0..200 {
            assert_eq!(s.next_runtime().job, None);
        }
        assert_eq!(s.complete(&cancel, Verdict::Done), 1);
        assert_eq!(s.next_lifecycle().map(|op| op.kind), Some(OpKind::Submit));
    }

    #[test]
    fn deferred_and_rejected_submits_are_replaced() {
        let mut s = OpStream::new(1, EXECUTOR, pool(4, 3), 1, 1000);
        s.end_warm_up();
        let first = s.next_lifecycle().expect("submit");
        assert_eq!(s.complete(&first, Verdict::Deferred(5)), 1);
        let cancel = s.next_lifecycle().expect("cancel of the parked job");
        assert_eq!((cancel.kind, cancel.job), (OpKind::Cancel, Some(5)));
        assert_eq!(s.complete(&cancel, Verdict::Done), 1);
        let second = s.next_lifecycle().expect("replacement");
        assert_eq!((second.kind, second.pool), (OpKind::Submit, 1));
        assert_eq!(s.complete(&second, Verdict::Rejected), 1);
        assert_eq!(s.next_lifecycle().map(|op| op.pool), Some(2));
        assert_eq!(s.resident(), 0);
    }

    #[test]
    fn poisson_clock_has_the_requested_rate_and_exact_lateness() {
        let mut clock = PoissonClock::new(3, 600.0);
        let mut last = 0u64;
        let n = 100_000u64;
        for _ in 0..n {
            let due = clock.advance();
            assert!(due >= last, "due times never go back");
            last = due;
        }
        let mean_gap_ms = elapsed_ms(0, last) / n as f64;
        assert!(
            (mean_gap_ms - 1000.0 / 600.0).abs() < 0.02 * 1000.0 / 600.0,
            "{mean_gap_ms}"
        );
        // Same seed, same schedule.
        let (mut a, mut b) = (PoissonClock::new(9, 50.0), PoissonClock::new(9, 50.0));
        assert!((0..100).all(|_| a.advance() == b.advance()));
        // An op due at 1.5 ms and sent at 4.0 ms ran 2.5 ms late; an op
        // sent "before" it was due (clock skew) is simply on time.
        assert_eq!(elapsed_ms(1_500_000, 4_000_000), 2.5);
        assert_eq!(elapsed_ms(4_000_000, 1_500_000), 0.0);
    }
}
