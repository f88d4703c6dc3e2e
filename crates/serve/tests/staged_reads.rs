//! Reads that run only the stages of a pass they need give the answers of
//! reads behind a complete pass.
//!
//! Two `ServeState`s take the same seeded op streams — submissions that are
//! admitted, parked and rejected, report-samples that shrink and retire
//! jobs, cancels, capacity changes, slot ticks, and reads of strict and lax
//! jobs. One reads through the staged path as the daemon does: `predict`
//! and a one-job `query-plan` run the peel's layers and map only up to the
//! job, and an epoch only solves. Before every read that reaches the
//! planner the twin completes the pass with a whole-table read, which is
//! `plan_at`. Every answer and every `stats` report must match.
//!
//! Run in release too (CI does): debug builds complete every 64th pass at
//! its solve stage to spot-check it, so only a release build reads those
//! passes in stages.

use rush_core::RushConfig;
use rush_planner::JobRecord;
use rush_serve::protocol::{ErrorCode, JobSubmission};
use rush_serve::state::{Counters, ServeState};
use rush_utility::TimeUtility;

/// xorshift64*: a deterministic op stream.
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
}

/// A submission: mostly time-sensitive, one in four insensitive (lax when
/// planned, parked when it does not fit), some with budgets no cluster meets.
fn submission(rng: &mut Rng) -> JobSubmission {
    let tasks = rng.range(2, 30);
    let hint = rng.range(20, 90) as f64;
    let (utility, budget) = match rng.range(0, 8) {
        0 | 1 => (TimeUtility::constant(1.0).unwrap(), None),
        2 => {
            let budget = rng.range(20, 60);
            (TimeUtility::sigmoid(budget as f64, 3.0, 0.5).unwrap(), Some(budget))
        }
        _ => {
            let budget = rng.range(400, 6000);
            let utility =
                TimeUtility::sigmoid(budget as f64, 1.0 + rng.range(0, 4) as f64, 10.0 / budget as f64);
            (utility.unwrap(), Some(budget))
        }
    };
    JobSubmission {
        label: format!("t{}", rng.range(0, 4)),
        tasks,
        runtime_hint: Some(hint),
        utility,
        budget,
        priority: 1,
    }
}

/// The job ids a read or a write may name: resident ones, and now and then
/// one that is not.
fn pick(rng: &mut Rng, s: &ServeState) -> u64 {
    let ids: Vec<u64> = s.jobs().map(|(id, _)| id).collect();
    if ids.is_empty() || rng.range(0, 20) == 0 {
        return s.next_id() + rng.range(0, 3);
    }
    ids[rng.range(0, ids.len() as u64) as usize]
}

/// Whether job `id` is planned lax: insensitive, or hopeless (level 0).
fn lax(s: &ServeState, id: u64) -> bool {
    let insensitive = s.jobs().any(|(j, r)| j == id && r.submission.is_insensitive());
    insensitive || s.planner().entry(rush_planner::JobId(id)).is_some_and(|e| e.level <= 1e-9)
}

/// Drives both states through `ops` seeded ops and compares every answer.
fn twin_stream(seed: u64, capacity: u32, horizon: f64, ops: usize) -> (usize, usize) {
    let config = RushConfig { horizon, ..RushConfig::default() };
    let mut staged = ServeState::new(config, capacity).unwrap();
    let mut twin = ServeState::new(config, capacity).unwrap();
    let mut rng = Rng(seed);
    let mut now = 0u64;
    let (mut lax_reads, mut strict_reads) = (0, 0);
    for op in 0..ops {
        let what = rng.range(0, 100);
        match what {
            0..=14 => {
                let subs: Vec<JobSubmission> = (0..rng.range(1, 4)).map(|_| submission(&mut rng)).collect();
                let a = staged.submit_epoch(subs.clone(), now).unwrap();
                assert_eq!(a, twin.submit_epoch(subs, now).unwrap(), "op {op}: epoch");
            }
            15..=39 => {
                let id = pick(&mut rng, &staged);
                let runtime = rng.range(10, 120);
                assert_eq!(staged.report_sample(id, runtime), twin.report_sample(id, runtime), "op {op}");
            }
            40..=44 => {
                let id = pick(&mut rng, &staged);
                assert_eq!(staged.cancel(id), twin.cancel(id), "op {op}: cancel");
            }
            45..=47 => {
                let c = (capacity / 2 + rng.range(0, u64::from(capacity)) as u32).max(1);
                assert_eq!(staged.set_capacity(c), twin.set_capacity(c), "op {op}: capacity");
            }
            48..=54 => now += rng.range(1, 4),
            _ => {
                let id = pick(&mut rng, &staged);
                // A read that reaches the planner — of a planned job, or of
                // the whole table — finds the twin's pass complete: what
                // `plan_at` left.
                let planned = twin.jobs().any(|(j, r)| j == id && !r.parked);
                if planned || what >= 95 {
                    twin.rows(now, None).unwrap();
                }
                let (a, b) = match what {
                    55..=79 => (staged.predict(id, now), twin.predict(id, now)),
                    80..=94 => {
                        let (a, b) = (staged.rows(now, Some(id)), twin.rows(now, Some(id)));
                        assert_eq!(a, b, "op {op}: query-plan {id}");
                        continue;
                    }
                    _ => {
                        let (a, b) = (staged.rows(now, None), twin.rows(now, None));
                        assert_eq!(a, b, "op {op}: query-plan");
                        continue;
                    }
                };
                assert_eq!(a, b, "op {op}: predict {id}");
                if a.is_ok() {
                    *(if lax(&twin, id) { &mut lax_reads } else { &mut strict_reads }) += 1;
                }
            }
        }
        assert_eq!(staged.stats(now), twin.stats(now), "op {op}: stats");
    }
    assert_eq!(staged.rows(now, None), twin.rows(now, None));
    let c = staged.counters();
    assert!(c.deferred > 0 && c.rejected > 0 && c.completed > 0 && c.cancelled > 0, "{c:?}");
    (lax_reads, strict_reads)
}

#[test]
fn staged_reads_answer_as_complete_passes_on_a_small_cluster() {
    let (mut lax, mut strict) = (0, 0);
    for seed in [3, 4, 5] {
        let (l, s) = twin_stream(seed, 48, 2000.0, 1500);
        (lax, strict) = (lax + l, strict + s);
    }
    assert!(lax > 50 && strict > 50, "{lax} lax, {strict} strict reads");
}

#[test]
fn staged_reads_answer_as_complete_passes_on_a_fleet() {
    let (lax, strict) = twin_stream(9, 4096, 1e6, 1500);
    assert!(lax > 20 && strict > 20, "{lax} lax, {strict} strict reads");
}

/// A read whose pass fails leaves the pass stale and answers an internal
/// error, and the next read retries it. The failing job is one a restore
/// accepts — samples are checked, hints are not — whose hint is too large
/// to estimate its tasks from.
#[test]
fn a_failed_stage_answers_an_error_and_the_next_read_retries() {
    let config = RushConfig::default();
    let ok = JobRecord::new(
        JobSubmission {
            label: "ok".into(),
            tasks: 8,
            runtime_hint: Some(40.0),
            utility: TimeUtility::sigmoid(900.0, 2.0, 0.02).unwrap(),
            budget: Some(900),
            priority: 1,
        },
        0,
    );
    let huge = JobRecord::new(
        JobSubmission { runtime_hint: Some(1e10), tasks: 10_000_000_000, ..ok.submission.clone() },
        0,
    );
    let mut good = ServeState::from_parts(config, 16, vec![(0, ok.clone())], 2, Counters::default()).unwrap();
    let mut s = ServeState::from_parts(config, 16, vec![(0, ok), (1, huge)], 2, Counters::default()).unwrap();
    for _ in 0..2 {
        assert_eq!(s.predict(0, 0).unwrap_err().code, ErrorCode::Internal);
        assert_eq!(s.rows(0, Some(0)).unwrap_err().code, ErrorCode::Internal);
        assert!(s.submit_epoch(Vec::new(), 0).is_err());
        assert!(!s.planner().is_fresh(0), "a failed solve leaves the pass stale");
    }
    s.cancel(1).unwrap();
    assert_eq!(s.predict(0, 0), good.predict(0, 0), "the next read retries");
    assert!(s.planner().is_fresh(0));
    assert_eq!(s.rows(0, None), good.rows(0, None));
}
