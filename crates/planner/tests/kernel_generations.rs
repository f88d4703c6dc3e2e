//! The kernel's generation stamps against a cold pass: seeded sequences of
//! every mutation the kernel has (admission, re-registration under a known
//! id, own and pooled samples on resident and unknown ids, cancel, park /
//! unpark, failures, clock ticks) drive one warm `PlannerCore`, and after
//! every operation its plan must equal a cold `compute_plan` over the same
//! inputs, built here from the records, the view and a model of the pools.
//!
//! The solve memo trusts a generation that did not move. A mutation that
//! forgets to stamp what it changed is served a stale solve: these plans
//! then diverge, and in debug builds the memo's re-fingerprint of every
//! generation hit fails first, naming the job.

use proptest::prelude::*;
use rush_core::plan::{compute_plan, Plan, PlanInput};
use rush_core::RushConfig;
use rush_planner::{JobId, JobRecord, JobSubmission, PlannerCore};
use rush_sim::view::{ClusterView, JobView};
use rush_utility::{Sensitivity, TimeUtility};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The labels jobs draw from: few, so label pools are shared.
const LABELS: [&str; 3] = ["sort", "grep", "join"];

/// One kernel operation. Selectors pick a resident job modulo the fleet.
#[derive(Clone, Debug)]
enum Op {
    /// A new job under the next id.
    Admit { label: usize, tasks: u64, hint: Option<u64> },
    /// A resident job registered again under its id, with a new label,
    /// task count and hint.
    Readmit { sel: usize, label: usize, tasks: u64, hint: Option<u64> },
    /// A completed task: the job's own sample (registry mode: the record's;
    /// roster mode: the view's, reported through `pool_sample`).
    Sample { sel: usize, runtime: u64 },
    /// A pooled sample of a job the kernel does not know.
    PoolUnknown { runtime: u64 },
    /// A job leaves.
    Cancel { sel: usize },
    /// A job is parked or unparked.
    Park { sel: usize },
    /// A failed attempt (roster mode only reads it).
    Fail { sel: usize },
    /// The clock moves on.
    Tick { slots: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A runtime hint, or none (one draw in three).
    let hint = || (0u64..90).prop_map(|h| (h >= 30).then_some(h));
    prop_oneof![
        (0usize..3, 2u64..30, hint()).prop_map(|(label, tasks, hint)| Op::Admit { label, tasks, hint }),
        (0usize..16, 0usize..3, 2u64..30, hint())
            .prop_map(|(sel, label, tasks, hint)| Op::Readmit { sel, label, tasks, hint }),
        // Completed tasks are the common event: drawn twice as often.
        (0usize..16, 5u64..120).prop_map(|(sel, runtime)| Op::Sample { sel, runtime }),
        (0usize..16, 5u64..120).prop_map(|(sel, runtime)| Op::Sample { sel, runtime }),
        (5u64..120).prop_map(|runtime| Op::PoolUnknown { runtime }),
        (0usize..16).prop_map(|sel| Op::Cancel { sel }),
        (0usize..16).prop_map(|sel| Op::Park { sel }),
        (0usize..16).prop_map(|sel| Op::Fail { sel }),
        (0u64..3).prop_map(|slots| Op::Tick { slots }),
    ]
}

fn utility(id: u64) -> TimeUtility {
    if id % 4 == 3 {
        TimeUtility::constant(1.0 + (id % 3) as f64).unwrap()
    } else {
        let budget = 300.0 + 170.0 * (id % 7) as f64;
        TimeUtility::sigmoid(budget, 1.0 + (id % 5) as f64, 10.0 / budget).unwrap()
    }
}

fn record(id: u64, label: usize, tasks: u64, hint: Option<u64>, now: u64) -> JobRecord {
    let submission = JobSubmission {
        label: LABELS[label].into(),
        tasks,
        runtime_hint: hint.map(|h| h as f64),
        utility: utility(id),
        budget: None,
        priority: 1,
    };
    JobRecord::new(submission, now)
}

fn assert_plans_equal(warm: &Plan, cold: &Plan, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(warm.entries.len(), cold.entries.len(), "step {}", step);
    for (w, c) in warm.entries.iter().zip(&cold.entries) {
        prop_assert_eq!((w.eta, w.task_len, w.desired_now), (c.eta, c.task_len, c.desired_now));
        prop_assert_eq!(w.target.to_bits(), c.target.to_bits(), "step {}", step);
        prop_assert_eq!(w.level.to_bits(), c.level.to_bits(), "step {}", step);
        prop_assert_eq!(w.planned_completion, c.planned_completion, "step {}", step);
    }
    Ok(())
}

/// Registry mode: the records are the inputs, a job is sized from its own
/// samples, else its hint.
fn registry_inputs(kernel: &PlannerCore, now: u64) -> Vec<PlanInput<'_>> {
    kernel
        .jobs()
        .filter(|(_, j)| !j.parked)
        .map(|(id, j)| PlanInput {
            key: id.0,
            generation: None,
            samples: if j.samples.is_empty() {
                j.submission.runtime_hint.map(|h| vec![h as u64]).unwrap_or_default().into()
            } else {
                Cow::Borrowed(&j.samples)
            },
            remaining_tasks: j.remaining_tasks as usize,
            failed_attempts: 0,
            age: now.saturating_sub(j.arrived_slot) as f64,
            utility: j.submission.utility,
        })
        .collect()
}

/// The cold-start pools as the kernel keeps them: the newest 256 pooled
/// samples per label of a resident job, and of every pooled sample.
#[derive(Default)]
struct Pools {
    label: BTreeMap<String, Vec<u64>>,
    global: Vec<u64>,
}

impl Pools {
    fn push(&mut self, label: Option<&str>, runtime: u64) {
        let cap = |pool: &mut Vec<u64>| {
            pool.push(runtime);
            pool.drain(..pool.len().saturating_sub(256));
        };
        if let Some(label) = label {
            cap(self.label.entry(label.into()).or_default());
        }
        cap(&mut self.global);
    }

    fn borrow<'a>(&'a self, view: &'a JobView) -> &'a [u64] {
        if !view.samples.is_empty() {
            &view.samples
        } else {
            self.label.get(&view.label).filter(|p| !p.is_empty()).unwrap_or(&self.global)
        }
    }
}

fn view(id: u64, label: usize, tasks: u64, now: u64) -> JobView {
    let u = utility(id);
    JobView {
        id: rush_sim::JobId(id as u32),
        label: LABELS[label].into(),
        arrival: now,
        utility: u,
        priority: 1,
        sensitivity: if matches!(u, TimeUtility::Constant { .. }) {
            Sensitivity::Insensitive
        } else {
            Sensitivity::Sensitive
        },
        budget: None,
        total_tasks: tasks as usize,
        pending_tasks: tasks as usize,
        runnable_tasks: tasks as usize,
        running_tasks: 0,
        completed_tasks: 0,
        failed_attempts: 0,
        oldest_running_start: None,
        samples: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `plan_at` after every operation equals a cold pass over the records.
    #[test]
    fn registry_plans_equal_cold_passes(ops in prop::collection::vec(op_strategy(), 8..60)) {
        let cfg = RushConfig::default();
        let mut kernel = PlannerCore::new(cfg, 24).unwrap();
        let mut now = 0;
        for (step, op) in ops.iter().enumerate() {
            let ids: Vec<JobId> = kernel.jobs().map(|(id, _)| id).collect();
            let pick = |sel: usize| ids.get(sel % ids.len().max(1)).copied();
            match *op {
                Op::Admit { label, tasks, hint } => {
                    kernel.admit(record(kernel.next_id(), label, tasks, hint, now));
                }
                Op::Readmit { sel, label, tasks, hint } => {
                    if let Some(id) = pick(sel) {
                        kernel.admit_as(id, record(id.0, label, tasks, hint, now));
                    }
                }
                Op::Sample { sel, runtime } => {
                    if let Some(id) = pick(sel) {
                        kernel.ingest_sample(id, runtime).unwrap();
                    }
                }
                Op::PoolUnknown { runtime } => kernel.pool_sample(JobId(1 << 40), runtime),
                Op::Cancel { sel } => {
                    if let Some(id) = pick(sel) {
                        kernel.cancel(id);
                    }
                }
                Op::Park { sel } | Op::Fail { sel } => {
                    if let Some(id) = pick(sel) {
                        let parked = kernel.job(id).unwrap().parked;
                        kernel.set_parked(id, !parked).unwrap();
                    }
                }
                Op::Tick { slots } => now += slots,
            }
            kernel.plan_at(now).unwrap();
            let cold = compute_plan(&cfg, 24, &registry_inputs(&kernel, now)).unwrap();
            assert_plans_equal(kernel.plan(), &cold, step)?;
        }
    }

    /// `plan_roster` after every operation equals a cold pass over the view
    /// and the pools, with the view's own samples reported the way the
    /// simulator reports them (`pool_sample`) and some of its jobs never
    /// admitted to the kernel.
    #[test]
    fn roster_plans_equal_cold_passes(
        ops in prop::collection::vec((op_strategy(), 0usize..6), 8..60),
    ) {
        let cfg = RushConfig::default();
        let mut kernel = PlannerCore::new(cfg, 24).unwrap();
        let mut views: Vec<JobView> = Vec::new();
        let mut pools = Pools::default();
        let (mut now, mut next) = (0, 0u64);
        for (step, (op, stray)) in ops.iter().enumerate() {
            let pick = |sel: usize| (!views.is_empty()).then(|| sel % views.len());
            match *op {
                Op::Admit { label, tasks, .. } => {
                    views.push(view(next, label, tasks, now));
                    // One arrival in six stays unknown to the kernel.
                    if *stray == 0 {
                        kernel.invalidate();
                    } else {
                        kernel.admit_as(JobId(next), record(next, label, tasks, None, now));
                    }
                    next += 1;
                }
                Op::Readmit { sel, label, tasks, .. } => {
                    if let Some(k) = pick(sel) {
                        let id = u64::from(views[k].id.0);
                        views[k].label = LABELS[label].into();
                        kernel.admit_as(JobId(id), record(id, label, tasks, None, now));
                    }
                }
                Op::Sample { sel, runtime } => {
                    if let Some(k) = pick(sel) {
                        let v = &mut views[k];
                        v.samples.push(runtime);
                        v.pending_tasks = v.pending_tasks.saturating_sub(1).max(1);
                        let id = JobId(u64::from(v.id.0));
                        let resident = kernel.job(id).map(|r| r.submission.label.clone());
                        pools.push(resident.as_deref(), runtime);
                        kernel.pool_sample(id, runtime);
                    }
                }
                Op::PoolUnknown { runtime } => {
                    pools.push(None, runtime);
                    kernel.pool_sample(JobId(1 << 40), runtime);
                }
                Op::Cancel { sel } => {
                    if let Some(k) = pick(sel) {
                        let gone = views.remove(k);
                        kernel.invalidate();
                        kernel.cancel(JobId(u64::from(gone.id.0)));
                    }
                }
                Op::Park { sel } => {
                    if let Some(k) = pick(sel) {
                        let id = JobId(u64::from(views[k].id.0));
                        if let Some(parked) = kernel.job(id).map(|r| r.parked) {
                            kernel.set_parked(id, !parked).unwrap();
                        }
                    }
                }
                Op::Fail { sel } => {
                    if let Some(k) = pick(sel) {
                        views[k].failed_attempts += 1;
                        kernel.invalidate();
                    }
                }
                Op::Tick { slots } => now += slots,
            }
            let cluster = ClusterView { now, capacity: 24, free_containers: 24, jobs: &views };
            kernel.plan_roster(&cluster).unwrap();
            let inputs: Vec<PlanInput<'_>> = views
                .iter()
                .map(|v| PlanInput {
                    key: u64::from(v.id.0),
                    generation: None,
                    samples: Cow::Borrowed(pools.borrow(v)),
                    remaining_tasks: v.pending_tasks,
                    failed_attempts: v.failed_attempts,
                    age: v.age(now) as f64,
                    utility: v.utility,
                })
                .collect();
            assert_plans_equal(kernel.plan(), &compute_plan(&cfg, 24, &inputs).unwrap(), step)?;
        }
    }
}
