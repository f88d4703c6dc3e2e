//! Differential proof of the sharding layer: a [`ShardedPlanner`] with
//! **one** shard must behave bit-identically to a bare [`PlannerCore`]
//! over randomized event streams — arrivals, samples, failures, cancels,
//! park flips, capacity changes and plan ticks, in both cold-start modes
//! and with retirement on and off.
//!
//! Every plan tick compares the full observable surface of both kernels:
//! the published delta, the `(job, entry)` plan table, the registry
//! contents, freshness, and the cache hit/miss counters (so the sharded
//! wrapper is proven not to sneak in extra recomputes). With more than
//! one shard determinism still holds, which the last test checks by
//! replaying the same stream twice.

use proptest::prelude::*;
use rush_core::RushConfig;
use rush_planner::{ColdStart, EventOutcome, JobId, PlannerCore, PlannerEvent, ShardedPlanner};
use rush_utility::TimeUtility;

/// One scripted kernel operation; job references index the admitted-id
/// list modulo its length so streams stay valid however admission went.
#[derive(Debug, Clone)]
enum Op {
    Arrive { label: u8, tasks: u64, parked: bool },
    Sample { job: usize, runtime: u64 },
    Fail { job: usize },
    Cancel { job: usize },
    Park { job: usize, parked: bool },
    Capacity { containers: u32 },
    Tick { advance: u64 },
}

fn arrive() -> impl Strategy<Value = Op> {
    (0u8..6, 1u64..12, 0u8..2)
        .prop_map(|(label, tasks, parked)| Op::Arrive { label, tasks, parked: parked == 1 })
}

fn sample() -> impl Strategy<Value = Op> {
    (0usize..16, 5u64..120).prop_map(|(job, runtime)| Op::Sample { job, runtime })
}

fn tick() -> impl Strategy<Value = Op> {
    (0u64..3).prop_map(|advance| Op::Tick { advance })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest shim's `prop_oneof!` is uniform; arms are
    // repeated to weight arrivals/samples/ticks over the rarer ops.
    prop_oneof![
        arrive(),
        arrive(),
        sample(),
        sample(),
        sample(),
        (0usize..16).prop_map(|job| Op::Fail { job }),
        (0usize..16).prop_map(|job| Op::Cancel { job }),
        (0usize..16, 0u8..2).prop_map(|(job, parked)| Op::Park { job, parked: parked == 1 }),
        (1u32..24).prop_map(|containers| Op::Capacity { containers }),
        tick(),
        tick(),
    ]
}

/// A stream dominated by capacity events: the spot-revocation regime,
/// where the cluster resizes more often than jobs arrive. Every other
/// observable must still track the bare kernel bit-for-bit.
fn churn_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        arrive(),
        sample(),
        (1u32..24).prop_map(|containers| Op::Capacity { containers }),
        (1u32..24).prop_map(|containers| Op::Capacity { containers }),
        (1u32..24).prop_map(|containers| Op::Capacity { containers }),
        tick(),
        tick(),
    ]
}

fn spec(label: u8, tasks: u64, arrived: u64, parked: bool) -> rush_planner::JobSpec {
    rush_planner::JobSpec {
        label: format!("tpl-{label}"),
        utility: TimeUtility::sigmoid(400.0 + f64::from(label) * 60.0, 3.0, 0.02)
            .expect("valid utility"),
        tasks,
        arrived_slot: arrived,
        runtime_hint: Some(40.0),
        parked,
    }
}

/// Picks a job id for an `Op` reference: admitted ids round-robin, with a
/// deliberately-unknown id when nothing was admitted yet (both kernels
/// must agree on the unknown-job path too).
fn pick(ids: &[JobId], sel: usize) -> JobId {
    if ids.is_empty() {
        JobId(9_999)
    } else {
        ids[sel % ids.len()]
    }
}

fn assert_same_surface(sharded: &ShardedPlanner, core: &PlannerCore, now: u64, ctx: &str) {
    assert_eq!(sharded.delta(), core.delta(), "delta diverged {ctx}");
    let sharded_plan: Vec<(JobId, rush_core::plan::PlanEntry)> =
        sharded.planned().map(|(id, e)| (id, *e)).collect();
    let core_plan: Vec<(JobId, rush_core::plan::PlanEntry)> = core
        .plan_ids()
        .iter()
        .copied()
        .zip(core.plan().entries.iter().cloned())
        .collect();
    assert_eq!(sharded_plan, core_plan, "plan diverged {ctx}");
    let sharded_jobs: Vec<_> = sharded.jobs().map(|(id, j)| (id, j.clone())).collect();
    let core_jobs: Vec<_> = core.jobs().map(|(id, j)| (id, j.clone())).collect();
    assert_eq!(sharded_jobs, core_jobs, "registry diverged {ctx}");
    assert_eq!(sharded.is_fresh(now), core.is_fresh(now), "freshness diverged {ctx}");
    assert_eq!(sharded.cache_hits(), core.cache_hits(), "cache hits diverged {ctx}");
    assert_eq!(sharded.cache_misses(), core.cache_misses(), "cache misses diverged {ctx}");
    assert_eq!(sharded.next_id(), core.next_id(), "id counter diverged {ctx}");
}

fn run_stream(ops: &[Op], cold_start: ColdStart, retire: bool) {
    let capacity = 8;
    let mut sharded = ShardedPlanner::new(RushConfig::default(), capacity, 1)
        .expect("sharded")
        .with_cold_start(cold_start)
        .with_retirement(retire);
    let mut core = PlannerCore::new(RushConfig::default(), capacity)
        .expect("core")
        .with_cold_start(cold_start)
        .with_retirement(retire);

    let mut ids: Vec<JobId> = Vec::new();
    let mut now = 0u64;
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("at step {step} ({op:?})");
        match op {
            Op::Arrive { label, tasks, parked } => {
                let s = spec(*label, *tasks, now, *parked);
                let a = sharded.admit(s.clone());
                let b = core.admit(s);
                assert_eq!(a, b, "admission ids diverged {ctx}");
                ids.push(a);
            }
            Op::Sample { job, runtime } => {
                let id = pick(&ids, *job);
                let a = sharded.ingest_sample(id, *runtime);
                let b = core.ingest_sample(id, *runtime);
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "sample outcome diverged {ctx}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("sample result diverged {ctx}: {a:?} vs {b:?}"),
                }
            }
            Op::Fail { job } => {
                let id = pick(&ids, *job);
                assert_eq!(sharded.record_failure(id), core.record_failure(id), "{ctx}");
            }
            Op::Cancel { job } => {
                let id = pick(&ids, *job);
                assert_eq!(sharded.cancel(id), core.cancel(id), "{ctx}");
                ids.retain(|&j| j != id);
            }
            Op::Park { job, parked } => {
                let id = pick(&ids, *job);
                let a = sharded.set_parked(id, *parked);
                let b = core.set_parked(id, *parked);
                assert_eq!(a.is_ok(), b.is_ok(), "park result diverged {ctx}");
            }
            Op::Capacity { containers } => {
                // The typed event is the only capacity route open to code
                // outside `rush-planner`; both sides take it.
                let event = PlannerEvent::CapacityChange { capacity: *containers };
                let a = sharded.apply(event.clone()).expect("1-shard capacity event");
                let b = core.apply(event).expect("kernel capacity event");
                assert_eq!(a, b, "capacity outcome diverged {ctx}");
                assert_eq!(a, EventOutcome::CapacityChanged { capacity: *containers }, "{ctx}");
            }
            Op::Tick { advance } => {
                now += advance;
                let a = sharded.plan_at(now);
                let b = core.plan_at(now);
                match (&a, &b) {
                    (Ok(_), Ok(_)) | (Err(_), Err(_)) => {}
                    _ => panic!("plan result diverged {ctx}: {a:?} vs {b:?}"),
                }
                assert_same_surface(&sharded, &core, now, &ctx);
            }
        }
    }
    // Final barrier: plan once more and compare everything.
    now += 1;
    let _ = sharded.plan_at(now);
    let _ = core.plan_at(now);
    assert_same_surface(&sharded, &core, now, "at the final tick");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_shard_matches_bare_kernel_own_samples(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        run_stream(&ops, ColdStart::OwnSamplesOnly, false);
    }

    #[test]
    fn one_shard_matches_bare_kernel_pooled(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        run_stream(&ops, ColdStart::PooledByLabel, false);
    }

    #[test]
    fn one_shard_matches_bare_kernel_with_retirement(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        run_stream(&ops, ColdStart::OwnSamplesOnly, true);
    }

    #[test]
    fn one_shard_matches_bare_kernel_under_capacity_churn(
        ops in proptest::collection::vec(churn_op_strategy(), 1..60),
    ) {
        run_stream(&ops, ColdStart::PooledByLabel, false);
    }

    #[test]
    fn multi_shard_replay_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        shards in 2usize..5,
    ) {
        // Two independent multi-shard planners fed the same stream must
        // agree on every observable (determinism of routing, slicing and
        // rebalancing — the single-shard tests above pin the semantics).
        let capacity = 12;
        let mk = || {
            ShardedPlanner::new(RushConfig::default(), capacity, shards)
                .expect("sharded")
                .with_cold_start(ColdStart::PooledByLabel)
        };
        let mut a = mk();
        let mut b = mk();
        let mut ids: Vec<JobId> = Vec::new();
        let mut now = 0u64;
        for op in &ops {
            match op {
                Op::Arrive { label, tasks, parked } => {
                    let s = spec(*label, *tasks, now, *parked);
                    let ia = a.admit(s.clone());
                    let ib = b.admit(s);
                    prop_assert_eq!(ia, ib);
                    ids.push(ia);
                }
                Op::Sample { job, runtime } => {
                    let id = pick(&ids, *job);
                    let _ = a.ingest_sample(id, *runtime);
                    let _ = b.ingest_sample(id, *runtime);
                }
                Op::Fail { job } => {
                    let id = pick(&ids, *job);
                    a.record_failure(id);
                    b.record_failure(id);
                }
                Op::Cancel { job } => {
                    let id = pick(&ids, *job);
                    a.cancel(id);
                    b.cancel(id);
                    ids.retain(|&j| j != id);
                }
                Op::Park { job, parked } => {
                    let id = pick(&ids, *job);
                    let _ = a.set_parked(id, *parked);
                    let _ = b.set_parked(id, *parked);
                }
                Op::Capacity { containers } => {
                    // Clamp so every shard keeps a container.
                    let c = (*containers).max(shards as u32);
                    a.apply(PlannerEvent::CapacityChange { capacity: c }).expect("capacity");
                    b.apply(PlannerEvent::CapacityChange { capacity: c }).expect("capacity");
                }
                Op::Tick { advance } => {
                    now += advance;
                    let ra = a.plan_at(now).cloned();
                    let rb = b.plan_at(now).cloned();
                    match (ra, rb) {
                        (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                        (Err(_), Err(_)) => {}
                        other => panic!("plan result diverged: {other:?}"),
                    }
                    prop_assert_eq!(a.slices(), b.slices());
                }
            }
        }
        now += 1;
        let _ = a.plan_at(now);
        let _ = b.plan_at(now);
        let pa: Vec<_> = a.planned().map(|(id, e)| (id, *e)).collect();
        let pb: Vec<_> = b.planned().map(|(id, e)| (id, *e)).collect();
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(a.slices(), b.slices());
    }
}

/// A typed [`rush_core::ClusterModel`] spot-churn trajectory drives a
/// multi-shard planner through repeated revoke/restock cycles: after every
/// event the shard slices must still partition the effective capacity,
/// every shard must keep at least one container, and planning must keep
/// succeeding — the committed-prefix floor inside `demand_split` must
/// never wedge the rebalancer under churn.
#[test]
fn multi_shard_absorbs_cluster_model_spot_churn() {
    let model = rush_core::ClusterModel::tiered(4, 0, 8).with_spot_churn(1, 10, 20, 5, 6, 4);
    model.validate().expect("valid model");

    let mut planner = ShardedPlanner::new(RushConfig::default(), model.total_capacity(), 3)
        .expect("sharded")
        .with_cold_start(ColdStart::PooledByLabel);
    let mut ids: Vec<JobId> = Vec::new();
    for i in 0..9u8 {
        ids.push(planner.admit(spec(i % 6, 4 + u64::from(i), 0, false)));
    }
    for (i, id) in ids.iter().enumerate() {
        planner.ingest_sample(*id, 20 + i as u64 * 7).expect("sample");
    }

    let mut now = 0u64;
    for ev in &model.events {
        now = ev.at;
        let capacity = model.capacity_at(now);
        let out =
            planner.apply(PlannerEvent::CapacityChange { capacity }).expect("capacity event");
        assert_eq!(out, EventOutcome::CapacityChanged { capacity });
        let slices = planner.slices();
        assert_eq!(
            slices.iter().sum::<u32>(),
            capacity,
            "slices must partition the effective capacity at slot {now}"
        );
        assert!(slices.iter().all(|&s| s >= 1), "every shard keeps a container at slot {now}");
        planner.plan_at(now).expect("plan under churn");
    }
    // The schedule is revoke/restock balanced: once it is exhausted the
    // cluster is back at full strength.
    assert_eq!(model.capacity_at(now + 1), model.total_capacity());
}
