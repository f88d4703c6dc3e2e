//! Property tests of the sharded planner's partition invariants, for
//! shard counts 2–6 over randomized event streams:
//!
//! 1. **Slice conservation** — the per-shard capacity slices always sum
//!    to the configured total, and no slice is ever zero.
//! 2. **Unique ownership** — every resident job is owned by exactly one
//!    shard (the union of shard registries has no duplicates and matches
//!    the planner's merged view), and ownership follows the label hash.
//! 3. **Rebalance floors** — an explicit rebalance never cuts a shard
//!    below its committed Theorem-2 prefix demand (capped by the total:
//!    an overcommitted cluster keeps its slices), never starves a shard
//!    to zero, and conserves the total exactly.
//!
//! The same checks run as `debug_assert!`s inside the planner in every
//! debug build; this suite proves them from the outside, in release
//! builds too.

use proptest::prelude::*;
use rush_core::RushConfig;
use rush_planner::{shard_of_label, JobId, ShardedPlanner};
use rush_utility::TimeUtility;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Arrive { label: u8, tasks: u64 },
    Sample { job: usize, runtime: u64 },
    Cancel { job: usize },
    Tick { advance: u64 },
    Rebalance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..10, 1u64..16).prop_map(|(label, tasks)| Op::Arrive { label, tasks }),
        (0u8..10, 1u64..16).prop_map(|(label, tasks)| Op::Arrive { label, tasks }),
        (0usize..24, 5u64..90).prop_map(|(job, runtime)| Op::Sample { job, runtime }),
        (0usize..24, 5u64..90).prop_map(|(job, runtime)| Op::Sample { job, runtime }),
        (0usize..24).prop_map(|job| Op::Cancel { job }),
        (0u64..3).prop_map(|advance| Op::Tick { advance }),
        (0u64..3).prop_map(|advance| Op::Tick { advance }),
        Just(Op::Rebalance),
    ]
}

fn spec(label: u8, tasks: u64, arrived: u64) -> rush_planner::JobSpec {
    rush_planner::JobSpec {
        label: format!("tenant-{label}"),
        utility: TimeUtility::sigmoid(500.0, 3.0, 0.02).expect("valid utility"),
        tasks,
        arrived_slot: arrived,
        runtime_hint: Some(40.0),
        parked: false,
    }
}

/// The partition invariants, checked from the public surface.
fn assert_invariants(p: &ShardedPlanner, ctx: &str) {
    let n = p.shard_count();
    let slices = p.slices();
    // 1. Slice conservation.
    assert_eq!(
        slices.iter().map(|&s| u64::from(s)).sum::<u64>(),
        u64::from(p.capacity()),
        "slices must sum to the total {ctx}"
    );
    assert!(slices.iter().all(|&s| s >= 1), "no shard may hold zero containers {ctx}");
    // 2. Unique ownership: union of shard registries == merged view, no
    //    id appears twice, and every job sits on its label-hash shard.
    let mut seen = BTreeSet::new();
    let mut union = 0usize;
    for i in 0..n {
        for (id, job) in p.shard_core(i).jobs() {
            union += 1;
            assert!(seen.insert(id), "job {id} resident on two shards {ctx}");
            assert_eq!(
                i,
                shard_of_label(&job.label, n),
                "job {id} is off its label-hash shard {ctx}"
            );
            assert_eq!(p.shard_of(id), Some(i), "ownership map disagrees for {id} {ctx}");
        }
    }
    assert_eq!(union, p.job_count(), "merged job count mismatch {ctx}");
    assert_eq!(p.jobs().count(), union, "merged iterator mismatch {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn partition_invariants_hold_through_random_streams(
        ops in proptest::collection::vec(op_strategy(), 1..70),
        shards in 2usize..7,
    ) {
        let capacity = 24u32;
        let mut p = ShardedPlanner::new(RushConfig::default(), capacity, shards)
            .expect("planner")
            // Exercise the periodic path too, on a short cadence.
            .with_rebalance_interval(5);
        let mut ids: Vec<JobId> = Vec::new();
        let mut now = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("at step {step} ({op:?}, {shards} shards)");
            match op {
                Op::Arrive { label, tasks } => {
                    ids.push(p.admit(spec(*label, *tasks, now)));
                }
                Op::Sample { job, runtime } => {
                    if !ids.is_empty() {
                        let id = ids[job % ids.len()];
                        let _ = p.ingest_sample(id, *runtime);
                    }
                }
                Op::Cancel { job } => {
                    if !ids.is_empty() {
                        let id = ids[job % ids.len()];
                        p.cancel(id);
                        ids.retain(|&j| j != id);
                    }
                }
                Op::Tick { advance } => {
                    now += advance;
                    let _ = p.plan_at(now);
                }
                Op::Rebalance => {
                    // 3. Rebalance floors: capture the committed demands,
                    //    rebalance, and check no shard fell below them.
                    let _ = p.plan_at(now);
                    let committed: Vec<u32> = (0..shards)
                        .map(|i| p.shard_core(i).committed_capacity())
                        .collect();
                    let overcommitted = committed
                        .iter()
                        .map(|&c| u64::from(c.clamp(1, capacity)))
                        .sum::<u64>()
                        > u64::from(capacity);
                    let before = p.slices();
                    p.rebalance();
                    let after = p.slices();
                    if overcommitted {
                        prop_assert_eq!(
                            &before, &after,
                            "overcommitted cluster must keep its slices {}", ctx
                        );
                    } else {
                        for (i, (&s, &c)) in after.iter().zip(&committed).enumerate() {
                            prop_assert!(
                                s >= c.min(capacity),
                                "shard {} cut below committed demand ({} < {}) {}",
                                i, s, c, ctx
                            );
                        }
                    }
                }
            }
            assert_invariants(&p, &ctx);
        }
        // Close with a final plan: invariants must survive a full pass.
        now += 1;
        let _ = p.plan_at(now);
        assert_invariants(&p, "after the final plan");
    }

    #[test]
    fn headroom_never_exceeds_slice(
        jobs in 1usize..30,
        shards in 2usize..5,
    ) {
        // headroom() = slice - committed, saturating: committed demand
        // above the slice must clamp to zero headroom, not wrap.
        let mut p = ShardedPlanner::new(RushConfig::default(), 8, shards).expect("planner");
        for i in 0..jobs {
            p.admit(spec((i % 6) as u8, 12, 0));
        }
        let _ = p.plan_at(0);
        for (i, h) in p.headrooms().into_iter().enumerate() {
            prop_assert!(
                h <= p.shard_core(i).capacity(),
                "headroom {} exceeds slice {} on shard {}",
                h, p.shard_core(i).capacity(), i
            );
        }
    }
}
