//! The naive onion peel — Algorithm 3 exactly as the paper writes it.
//!
//! This is the direct transcription of the paper: every feasibility probe
//! recomputes and re-sorts all active deadlines, the committed-demand index
//! is rebuilt once per layer, and each layer bisects the full
//! `[floor, sup]` level range. The optimized [`rush_core::onion::peel`]
//! must produce the same layering — `rush-core`'s property tests compare
//! the two on random instances, and the Fig. 5 benchmark uses this as the
//! before-optimization baseline.

use rush_core::onion::{OnionJob, Target};
use rush_core::CoreError;
use rush_utility::LatestTime;

// Frozen copies of the three private helpers the optimized peel also
// uses. They are copied, not shared, so that a change to the kernel's
// deadline or deadline-free rule shows up as a differential failure
// instead of silently changing both sides.

/// Utility levels at or below this are treated as "the job gains nothing".
const ZERO_LEVEL: f64 = 1e-9;

/// The deadline a job should be given when peeling at `level`.
fn deadline_for(job: &OnionJob, level: f64, horizon: f64) -> f64 {
    // A job can never be asked to exceed its own supremum.
    let lvl = level.min(job.sup());
    match job.latest_time(lvl).deadline_within(horizon) {
        Some(d) => d.max(0.0),
        // Level above sup by floating-point noise: complete ASAP.
        None => 0.0,
    }
}

/// Whether a job's utility is indifferent to *when* it completes at the
/// given level: either the level has collapsed to ~0 (nothing left to
/// gain) or the utility is flat at/above the level (time-insensitive).
fn is_deadline_free(job: &OnionJob, level: f64) -> bool {
    if level <= ZERO_LEVEL && job.sup() > ZERO_LEVEL {
        return true;
    }
    matches!(job.latest_time(level), LatestTime::Always)
}

/// Frozen two-outcome probe verdict. The optimized peel's `Check`
/// has since grown margin annotations for delta replay; the oracle keeps
/// the original shape so its transcription of Algorithm 3 never drifts.
enum Check {
    Feasible,
    Infeasible { bottleneck: usize },
}

/// Frozen copy of the original sort-per-call ASAP packing used by the
/// deferred phase, kept verbatim as the optimized path migrated to the
/// maintained committed index.
fn asap_deadline(demand: u64, committed: &[(f64, u64)], capacity: u32) -> f64 {
    let c = capacity as f64;
    // Committed deadlines sorted with cumulative demand.
    let mut sorted: Vec<(f64, u64)> = committed.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cum = 0u64;
    let mut prefix: Vec<(f64, u64)> = Vec::with_capacity(sorted.len());
    for &(t, e) in &sorted {
        cum += e;
        prefix.push((t, cum));
    }
    // Barrier: the job must complete after any reservation it would break.
    let mut barrier = 0.0f64;
    for &(t, cum_t) in &prefix {
        if (demand + cum_t) as f64 > c * t + 1e-9 {
            barrier = barrier.max(t);
        }
    }
    let mut d = ((demand as f64 / c).max(1.0)).max(barrier + 1e-9);
    // Fixed point over the step function G; terminates in ≤ |committed|+1
    // rounds because each bump crosses at least one reservation deadline.
    loop {
        let g: u64 = prefix
            .iter()
            .take_while(|(t, _)| *t <= d)
            .last()
            .map_or(0, |&(_, cum_t)| cum_t);
        let next = (((demand + g) as f64 / c).max(1.0)).max(barrier + 1e-9);
        if next <= d + 1e-9 {
            return d;
        }
        d = next;
    }
}

/// Sorted index over committed `(deadline, demand)` reservations,
/// rebuilt from scratch once per peel layer.
struct CommittedIndex {
    times: Vec<f64>,
    cums: Vec<u64>,
}

impl CommittedIndex {
    fn new(committed: &[(f64, u64)]) -> Self {
        let mut sorted: Vec<(f64, u64)> = committed.to_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut times = Vec::with_capacity(sorted.len());
        let mut cums = Vec::with_capacity(sorted.len());
        let mut cum = 0u64;
        for (t, e) in sorted {
            cum += e;
            times.push(t);
            cums.push(cum);
        }
        CommittedIndex { times, cums }
    }

    /// `G(t)`: total committed demand with deadline ≤ `t`.
    fn g(&self, t: f64) -> u64 {
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            0
        } else {
            self.cums[idx - 1]
        }
    }
}

/// Theorem 2 feasibility probe, allocating and sorting per call.
fn check_level(
    jobs: &[OnionJob],
    active: &[usize],
    committed: &CommittedIndex,
    capacity: u32,
    horizon: f64,
    level: f64,
) -> Check {
    let mut deadlines: Vec<(f64, usize)> = Vec::with_capacity(active.len());
    for &i in active {
        match jobs[i].latest_time(level).deadline_within(horizon) {
            Some(d) => deadlines.push((d, i)),
            None => {
                if jobs[i].demand > 0 {
                    return Check::Infeasible { bottleneck: i };
                }
            }
        }
    }
    deadlines.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let c = capacity as f64;
    let mut cum = 0u64;
    let mut ci = 0usize;
    let mut last_active: Option<usize> = None;
    for &(d, i) in &deadlines {
        while ci < committed.times.len() && committed.times[ci] < d {
            if (cum + committed.cums[ci]) as f64 > c * committed.times[ci] + 1e-9 {
                return Check::Infeasible { bottleneck: last_active.unwrap_or(i) };
            }
            ci += 1;
        }
        cum += jobs[i].demand;
        if (cum + committed.g(d)) as f64 > c * d + 1e-9 {
            return Check::Infeasible { bottleneck: i };
        }
        last_active = Some(i);
    }
    while ci < committed.times.len() {
        if (cum + committed.cums[ci]) as f64 > c * committed.times[ci] + 1e-9 {
            if let Some(b) = last_active {
                return Check::Infeasible { bottleneck: b };
            }
            break;
        }
        ci += 1;
    }
    Check::Feasible
}

/// Runs Algorithm 3 exactly as written — see the module docs. Same
/// contract as [`rush_core::onion::peel`].
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] under the same conditions as
/// [`rush_core::onion::peel`].
pub fn peel(
    jobs: &[OnionJob],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
) -> Result<Vec<Target>, CoreError> {
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "tolerance must be > 0" });
    }
    if !horizon.is_finite() || horizon <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "horizon must be > 0" });
    }
    let mut active: Vec<usize> = (0..jobs.len()).collect();
    let mut committed: Vec<(f64, u64)> = Vec::new();
    let mut deferred: Vec<(usize, f64)> = Vec::new();
    let mut targets: Vec<Target> = Vec::with_capacity(jobs.len());
    let mut level_lo = jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
    if !level_lo.is_finite() {
        level_lo = 0.0;
    }

    while !active.is_empty() {
        let level_hi = active
            .iter()
            .map(|&i| jobs[i].sup())
            .fold(f64::NEG_INFINITY, f64::max)
            .max(level_lo);
        let mut lo = level_lo;
        let mut hi = (level_hi + tolerance).max(lo + tolerance);
        let mut bottleneck: Option<usize> = None;
        let index = CommittedIndex::new(&committed);
        if let Check::Infeasible { bottleneck: b } =
            check_level(jobs, &active, &index, capacity, horizon, lo)
        {
            bottleneck = Some(b);
        } else {
            while hi - lo > tolerance {
                let mid = 0.5 * (lo + hi);
                match check_level(jobs, &active, &index, capacity, horizon, mid) {
                    Check::Feasible => lo = mid,
                    Check::Infeasible { bottleneck: b } => {
                        hi = mid;
                        bottleneck = Some(b);
                    }
                }
            }
        }

        match bottleneck {
            Some(b) => {
                let level_b = lo.min(jobs[b].sup());
                if is_deadline_free(&jobs[b], level_b) {
                    deferred.push((b, level_b));
                    active.retain(|&i| i != b);
                    continue;
                }
                let deadline = deadline_for(&jobs[b], lo, horizon);
                targets.push(Target { job: b, level: lo, deadline, lax: false });
                committed.push((deadline, jobs[b].demand));
                active.retain(|&i| i != b);
                level_lo = lo;
            }
            None => {
                for &i in &active {
                    let level_i = lo.min(jobs[i].sup());
                    if is_deadline_free(&jobs[i], level_i) {
                        deferred.push((i, level_i));
                        continue;
                    }
                    let deadline = deadline_for(&jobs[i], lo, horizon);
                    targets.push(Target { job: i, level: level_i, deadline, lax: false });
                    committed.push((deadline, jobs[i].demand));
                }
                active.clear();
            }
        }
    }

    deferred.sort_by(|a, b| {
        let flat_a = a.1 > ZERO_LEVEL;
        let flat_b = b.1 > ZERO_LEVEL;
        (flat_a, jobs[a.0].demand, a.0).cmp(&(flat_b, jobs[b.0].demand, b.0))
    });
    for (i, level) in deferred {
        let deadline = asap_deadline(jobs[i].demand, &committed, capacity).min(horizon);
        targets.push(Target { job: i, level, deadline, lax: true });
        committed.push((deadline, jobs[i].demand));
    }
    Ok(targets)
}
