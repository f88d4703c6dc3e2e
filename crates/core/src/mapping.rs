//! Continuous time-slot mapping — Algorithm 4 and Theorem 3.
//!
//! The onion peel fixes *target completion times*; real containers demand
//! *continuous* occupancy: a task, once placed, holds its container for its
//! whole runtime. The mapping maintains one queue per container and packs
//! jobs in ascending-target order: a job keeps adding tasks to the current
//! queue while the queue's occupation is still below the job's target, then
//! spills to the next queue. Theorem 3 guarantees every job completes no
//! later than `T_i + R_i` — at most one average task runtime past its
//! target — provided the targets satisfy the Theorem 2 prefix-capacity
//! condition.
//!
//! Two evaluations of the same algorithm live here: [`map_continuous`]
//! keeps every queue and spells out every segment; [`map_profile`], the one
//! the planner runs, keeps queues as runs of equal occupation and reports
//! only the per-job summary a plan is assembled from.

use crate::CoreError;

/// One job's mapping input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapJob {
    /// Remaining tasks to place.
    pub tasks: u64,
    /// Average task runtime `R_i` in slots (≥ 1).
    pub task_len: u64,
    /// Target completion time `T_i` in slots from now.
    pub target: u64,
    /// A *lax* job is indifferent to its completion time (flat utility, or
    /// nothing left to gain): it is placed **after** every strict job, into
    /// whatever capacity is left, balanced across the least-occupied
    /// queues. Its `target` is ignored for placement.
    pub lax: bool,
}

/// A contiguous run of one job's tasks on one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Container (queue) index, `0..capacity`.
    pub container: u32,
    /// First slot of the run.
    pub start: u64,
    /// Number of back-to-back tasks in the run.
    pub tasks: u64,
}

/// Where one job's tasks were placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Task runtime used for this job.
    pub task_len: u64,
    /// Slot by which the job's last task finishes (0 for a task-less job).
    pub completion: u64,
    /// The job's segments, in placement order.
    pub segments: Vec<Segment>,
}

impl Placement {
    /// Number of containers this job occupies at slot `t` under the plan.
    ///
    /// The container-assignment unit reads `active_at(0)` as the job's
    /// desired allocation for the *next* slot — the only part of the plan
    /// that is actually executed before the feedback cycle replans.
    pub fn active_at(&self, t: u64) -> u32 {
        self.segments
            .iter()
            .filter(|s| {
                s.start <= t && ((t - s.start) as u128) < s.tasks as u128 * self.task_len as u128
            })
            .count() as u32
    }
}

/// Runs the continuous time-slot mapping (Algorithm 4).
///
/// Jobs are packed in ascending `target` order (ties: input order); the
/// result is returned in **input order**. Task-less jobs yield empty
/// placements.
///
/// If the targets violate the Theorem 2 capacity condition the algorithm
/// stays total: overflow tasks spill onto the least-occupied queue, and the
/// affected job's completion simply exceeds `target + task_len` (callers
/// can detect this by comparing).
///
/// This is the segment-emitting form — O(C) per job — kept as the oracle
/// [`map_profile`] is proven against and as the Fig. 5 baseline.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `capacity == 0` or any `task_len == 0`.
pub fn map_continuous(jobs: &[MapJob], capacity: u32) -> Result<Vec<Placement>, CoreError> {
    validate(jobs, capacity)?;
    let mut order = Vec::new();
    pack_order(jobs, &mut order);
    let mut occupation = vec![0u64; capacity as usize];
    let mut placements: Vec<Placement> = jobs
        .iter()
        .map(|j| Placement { task_len: j.task_len, completion: 0, segments: Vec::new() })
        .collect();
    for &i in &order {
        let job = jobs[i];
        let p = &mut placements[i];
        if job.lax {
            // Leftover packing: least-occupied-queue filling — work-
            // conserving, and strictly behind every strict reservation
            // already placed (the pack order puts every strict job first).
            water_fill(&mut occupation, job.task_len, job.tasks, p);
            continue;
        }
        let mut remaining = job.tasks;
        let mut k = 0usize;
        // Dividends are at most `target + R − 1`.
        let div = Recip::new(job.task_len, job.target.saturating_add(job.task_len));
        while remaining > 0 && k < occupation.len() {
            let o = occupation[k];
            if o < job.target {
                // Tasks that can still *start* before the target on this
                // queue: ceil((target − o) / task_len).
                let fit = div.div(job.target - o + (job.task_len - 1)).min(remaining);
                if fit > 0 {
                    p.segments.push(Segment { container: k as u32, start: o, tasks: fit });
                    occupation[k] = o + fit * job.task_len;
                    p.completion = p.completion.max(occupation[k]);
                    remaining -= fit;
                }
            }
            k += 1;
        }
        // Overflow (targets violated capacity): spill onto the
        // least-occupied queues, same selection rule as lax packing.
        if remaining > 0 {
            water_fill(&mut occupation, job.task_len, remaining, p);
        }
    }
    check_mapping_contract(jobs, &placements, capacity);
    Ok(placements)
}

fn validate(jobs: &[MapJob], capacity: u32) -> Result<(), CoreError> {
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if jobs.iter().any(|j| j.task_len == 0) {
        return Err(CoreError::InvalidConfig { reason: "task_len must be >= 1" });
    }
    Ok(())
}

/// Pack order: strict jobs by ascending target; lax jobs afterwards, also
/// by target (for lax jobs the target is not a deadline but an ordering
/// hint assigned by the onion peel). Ties broken by input index, so the
/// order is a pure function of the job list. Written into a caller-owned
/// buffer so the planner's mapper can recycle it across passes.
fn pack_order(jobs: &[MapJob], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..jobs.len());
    order.sort_unstable_by_key(|&i| (jobs[i].lax, jobs[i].target, i));
}

/// Exact floor division by a fixed divisor via a precomputed reciprocal
/// (the round-up method): with `m = ⌊2^64/d⌋ + 1` and `e = m·d − 2^64`
/// (so `0 < e ≤ d`), `⌊x·m / 2^64⌋ = ⌊x/d⌋` exactly whenever
/// `x·e < 2^64` — guaranteed here by requiring `x_max·d < 2^64` up
/// front and falling back to hardware division otherwise. Turns the
/// ~30-cycle `div` in the packing inner loops into a multiply-and-shift
/// with bit-identical results.
#[derive(Clone, Copy)]
struct Recip {
    d: u64,
    m: u128,
    exact: bool,
}

impl Recip {
    fn new(d: u64, x_max: u64) -> Self {
        Recip {
            d,
            m: (1u128 << 64) / d as u128 + 1,
            exact: (x_max as u128) * (d as u128) < 1u128 << 64,
        }
    }

    #[inline]
    fn div(&self, x: u64) -> u64 {
        if self.exact {
            ((x as u128 * self.m) >> 64) as u64
        } else {
            x / self.d
        }
    }
}

/// Places `tasks` tasks of length `task_len` by least-occupied-queue
/// selection — the queue with the smallest `(occupation, index)` key takes
/// the next task — evaluated in closed form.
///
/// One-at-a-time selection pops keys in non-decreasing `(value, queue)`
/// order from the per-queue arithmetic progressions
/// `(o_k + j·R, k), j ≥ 0`: placing a task on queue `k` exposes its next
/// key, so after `t` pops exactly the `t` smallest keys of the union have
/// been taken. The per-queue task counts therefore follow from the value
/// `w` of the `t`-th smallest key: every key strictly below `w` is taken,
/// and the remainder goes to the queues whose progression hits `w`
/// exactly, in ascending queue order (the key tie-break). `w` is located
/// by a volume bound that pins it inside a window of width O(R), then by
/// bisection — O(C · log R), independent of how many tasks each queue
/// absorbs — and each queue's tasks land as one contiguous segment,
/// exactly where the scan would have stacked them.
fn water_fill(occupation: &mut [u64], task_len: u64, tasks: u64, placement: &mut Placement) {
    if tasks == 0 {
        return;
    }
    let l = task_len;
    // Segments already in the placement (the strict prefix when this is an
    // overflow spill) are container-ascending, and a strict segment on
    // queue `k` ends exactly at the current `occupation[k]`. When the
    // spill lands right behind one, extend it instead of emitting a second
    // segment: the tasks run at the same rate (`task_len` is uniform per
    // placement), so the merged segment covers the identical slot interval
    // — occupancy replay (last write per queue) and `active_at` (interval
    // union) are unchanged, keeping plans bit-identical while cutting the
    // emitted segment count.
    let prior = placement.segments.len();
    let mut adj = 0usize;
    let (min_o, sum_o) = occupation
        .iter()
        .fold((u64::MAX, 0u128), |(m, s), &o| (m.min(o), s + o as u128));
    debug_assert_ne!(min_o, u64::MAX, "capacity > 0");
    // Every dividend below is `w − o ≤ tasks·R` (the bisection never
    // probes past `min_o + tasks·R`, and `o ≥ min_o` whenever it is
    // divided), so one reciprocal covers the whole call.
    let div = Recip::new(l, tasks.saturating_mul(l));
    // Keys with value ≤ w across all queue progressions.
    let count = |occ: &[u64], w: u64| -> u64 {
        occ.iter().map(|&o| if o > w { 0 } else { div.div(w - o) + 1 }).sum()
    };
    // The least-occupied queue alone exposes `tasks + 1` keys by
    // `min_o + tasks·R`, so the t-th smallest key is at most that. The
    // volume bound sharpens it: summing over *all* queues (queues above
    // `w` contribute negatively), `count(w) > (C·w − Σo)/R`, so `w` with
    // `C·w ≥ t·R + Σo` is a valid upper end.
    let c = occupation.len() as u128;
    let hi_bound = ((tasks as u128 * l as u128 + sum_o) / c + 1) as u64;
    let mut hi = (min_o + tasks * l).min(hi_bound);
    let mut lo = min_o;
    // Invariants: `count(hi) ≥ tasks` and `count(lo − 1) < tasks`, so the
    // t-th smallest key value lies in `[lo, hi]`; bisect down to it.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count(occupation, mid) >= tasks {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let w = lo;
    let below_w = if w == 0 { 0 } else { count(occupation, w - 1) };
    // Keys strictly below `w` are all taken (count(w−1) < tasks by
    // minimality of `w`); ties at exactly `w` fill in queue order.
    let mut leftover = tasks - below_w;
    for (k, o) in occupation.iter_mut().enumerate() {
        let o0 = *o;
        let mut m = 0;
        let mut tie = false;
        if o0 <= w {
            let q = div.div(w - o0);
            let r = (w - o0) - q * l;
            // Keys strictly below w: q + 1 if the remainder is nonzero
            // (progression entries at o0, o0+R, …, o0+q·R), else q.
            m = if r != 0 { q + 1 } else { q };
            tie = r == 0;
        }
        if leftover > 0 && tie {
            m += 1;
            leftover -= 1;
        }
        if m > 0 {
            while adj < prior && placement.segments[adj].container < k as u32 {
                adj += 1;
            }
            match placement.segments.get_mut(adj) {
                Some(s) if adj < prior && s.container == k as u32 && s.start + s.tasks * l == o0 => {
                    s.tasks += m;
                }
                _ => placement.segments.push(Segment { container: k as u32, start: o0, tasks: m }),
            }
            *o = o0 + m * l;
            placement.completion = placement.completion.max(*o);
        }
    }
    debug_assert_eq!(leftover, 0, "water_fill under-placed");
}

/// Conservation (every task of every job lands in exactly one segment —
/// the spill path guarantees totality) and Theorem 3. Debug builds only.
fn check_mapping_contract(jobs: &[MapJob], placements: &[Placement], capacity: u32) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (i, p) in placements.iter().enumerate() {
        let placed: u64 = p.segments.iter().map(|s| s.tasks).sum();
        debug_assert_eq!(
            placed, jobs[i].tasks,
            "mapping contract: job {i} placed {placed} of {} tasks",
            jobs[i].tasks
        );
    }
    check_theorem3(jobs, placements.iter().map(|p| p.completion).enumerate(), capacity);
}

/// Theorem 3: when the strict jobs' targets satisfy the Theorem 2
/// prefix-capacity condition, every strict job completes within one task
/// runtime of its target. (Lax jobs are packed after every strict job and
/// cannot affect strict completions.) `completions` names the jobs it
/// covers: `(index into jobs, completion)`.
fn check_theorem3(jobs: &[MapJob], completions: impl Iterator<Item = (usize, u64)>, capacity: u32) {
    let strict: Vec<MapJob> = jobs.iter().copied().filter(|j| !j.lax).collect();
    if !capacity_condition_holds(&strict, capacity) {
        return;
    }
    for (i, completion) in completions {
        let job = &jobs[i];
        debug_assert!(
            job.lax || completion <= job.target + job.task_len,
            "Theorem 3 contract: job {i} completion {completion} > T + R = {}",
            job.target + job.task_len
        );
    }
}

/// Telemetry of the most recent call that advanced a map
/// ([`OccupationProfile::map_through`]).
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapStats {
    /// Pack positions an earlier call had already mapped for the same
    /// plan, and this one resumed after.
    pub reused_prefix: usize,
    /// Pack positions this call mapped.
    pub repacked: usize,
}

/// The two numbers the planner reads from one job's placement.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapSummary {
    /// [`Placement::active_at`]`(0)`: queues at occupation 0 that received
    /// at least one of the job's tasks.
    pub desired_now: u32,
    /// [`Placement::completion`]: the highest occupation the job left on a
    /// queue it touched (0 for a task-less job).
    pub completion: u64,
}

/// `len` adjacent queues, `first..first + len`, that all sit at `occupation`.
#[derive(Debug, Clone, Copy)]
struct Run {
    occupation: u64,
    first: u32,
    len: u32,
}

impl Run {
    /// The order a water-fill takes queues in: least occupied first, ties
    /// to the lowest queue.
    fn key(&self) -> (u64, u32) {
        (self.occupation, self.first)
    }
}

/// A run a water-fill raised: its position in the list the fill read, and
/// the run it became.
#[derive(Debug, Clone, Copy)]
struct Lift {
    at: u32,
    run: Run,
}

/// Queue state and scratch of one map, recycled across passes so a
/// steady-state map allocates nothing, and the cursor that lets a map stop
/// at any pack position and resume there.
///
/// Algorithm 4 only ever reads a queue's occupation, and both of its moves
/// treat equally-occupied neighbours alike, so the `C` queues are kept as
/// runs of equal occupation, starting from `(0, C)`. A job's strict pass
/// splits at most one run in three, or else its water-fill one in two: at
/// most `1 + 2n` runs after `n` jobs, however large the fleet.
///
/// Strict jobs walk the runs in container order (`runs`), and so do their
/// spills; the walk skips every block of `BLOCK` runs whose lowest queue
/// already sits at the job's target (`lows`). The lax jobs, which all come
/// after the last strict one, only ever water-fill: they share one sort of
/// the runs into `levels` (least occupied last, ties to the lower queue
/// last), where the runs a fill raises are the tail.
///
/// A map places jobs one pack position at a time and never revisits one, so
/// what it has placed so far is final: [`OccupationProfile::start`] sets a
/// map up, [`OccupationProfile::map_through`] advances it to a pack
/// position, and a later call continues from there on the same queues.
#[derive(Default, Debug, Clone)]
pub struct OccupationProfile {
    jobs: Vec<MapJob>,
    capacity: u32,
    order: Vec<usize>,
    /// Pack position of each job: the inverse of `order`.
    position: Vec<usize>,
    /// Pack positions placed so far.
    mapped: usize,
    /// Pack positions of strict jobs: `order[..strict]`.
    strict: usize,
    /// `Σ occupation·len` over `runs`, while strict jobs are placed.
    volume: u128,
    runs: Vec<Run>,
    lows: BlockLows,
    levels: Vec<Run>,
    lifted: Vec<Lift>,
    spare: Vec<Lift>,
    tied: Vec<(usize, u64)>,
    cuts: Vec<usize>,
    summaries: Vec<MapSummary>,
    stats: MapStats,
}

impl OccupationProfile {
    /// Runs the profile holds now.
    pub fn runs(&self) -> usize {
        if self.levels.is_empty() {
            self.runs.len()
        } else {
            self.levels.len()
        }
    }

    /// Sets up a map of `jobs` on `capacity` queues, all empty, with
    /// nothing placed yet: the pack order is fixed here.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] exactly when [`map_continuous`] errs.
    pub fn start(&mut self, jobs: &[MapJob], capacity: u32) -> Result<(), CoreError> {
        validate(jobs, capacity)?;
        self.jobs.clear();
        self.jobs.extend_from_slice(jobs);
        self.capacity = capacity;
        pack_order(jobs, &mut self.order);
        self.position.clear();
        self.position.resize(jobs.len(), 0);
        for (at, &i) in self.order.iter().enumerate() {
            self.position[i] = at;
        }
        self.strict = self.order.partition_point(|&i| !jobs[i].lax);
        self.mapped = 0;
        self.volume = 0;
        self.runs.clear();
        self.runs.push(Run { occupation: 0, first: 0, len: capacity });
        self.lows.known = 0;
        self.levels.clear();
        self.summaries.clear();
        self.summaries.resize(jobs.len(), MapSummary::default());
        self.stats = MapStats::default();
        Ok(())
    }

    /// The jobs of the map [`Self::start`] set up, in input order.
    pub fn jobs(&self) -> &[MapJob] {
        &self.jobs
    }

    /// Jobs of the map [`Self::start`] set up.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the map has no job.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Pack position of job `job` (an index into the started map's jobs).
    pub fn position(&self, job: usize) -> Option<usize> {
        self.position.get(job).copied()
    }

    /// Pack positions placed so far: every job whose position is below it
    /// has its final [`MapSummary`].
    pub fn mapped(&self) -> usize {
        self.mapped
    }

    /// Job `job`'s summary, once its pack position is placed.
    pub fn summary(&self, job: usize) -> Option<MapSummary> {
        self.position(job).filter(|&at| at < self.mapped).map(|_| self.summaries[job])
    }

    /// Every job's summary, in input order, once the whole map is placed.
    pub fn summaries(&self) -> Option<&[MapSummary]> {
        (self.mapped == self.jobs.len()).then_some(&self.summaries[..])
    }

    /// What the most recent [`Self::map_through`] placed.
    pub fn last_stats(&self) -> MapStats {
        self.stats
    }

    /// Places every pack position below `end` (clamped to the job count)
    /// that is not placed yet, in pack order, and leaves the rest for a
    /// later call: Algorithm 4 evaluated per run of equally-occupied
    /// queues. A strict job costs O(runs); a lax job costs the runs its
    /// water-fill raises, plus those it moves past.
    pub fn map_through(&mut self, end: usize) {
        let end = end.min(self.jobs.len());
        self.stats = MapStats { reused_prefix: self.mapped, repacked: end.saturating_sub(self.mapped) };
        if end <= self.mapped {
            return;
        }
        let Self {
            jobs, capacity, order, mapped, strict, volume, runs, lows, levels, lifted, spare, tied, cuts, summaries, ..
        } = self;
        let capacity = *capacity;
        let strict_end = end.min(*strict);
        for &i in &order[(*mapped).min(strict_end)..strict_end] {
            let job = &jobs[i];
            let l = job.task_len;
            #[cfg(debug_assertions)]
            let before = footprint(runs);
            let spill = strict_fill(runs, lows, job, &mut summaries[i]);
            *volume += (job.tasks - spill) as u128 * l as u128;
            if spill > 0 {
                let bracket = spill_bracket(runs, capacity, *volume, l, spill);
                let upto = |w| {
                    let at_or_below = move |&(_, r): &(usize, &Run)| r.occupation <= w;
                    runs.iter().enumerate().filter(at_or_below).map(|(k, &r)| (k, r))
                };
                let split = water_fill_runs(upto, bracket, l, spill, lifted, tied, &mut summaries[i]);
                for x in lifted.iter() {
                    runs[x.at as usize] = x.run;
                    lows.known = lows.known.min(x.at as usize / BLOCK);
                }
                // The split's winners are the run's lowest queues: they go first.
                if let Some(x) = split {
                    runs.insert(x.at as usize, x.run);
                }
                *volume += spill as u128 * l as u128;
            }
            #[cfg(debug_assertions)]
            check_placed(i, job, footprint(runs) - before);
        }
        if end > *strict && *mapped <= *strict {
            // The first lax position: the strict jobs' queues, sorted once.
            levels.extend_from_slice(runs);
            levels.sort_unstable_by_key(|r| std::cmp::Reverse(r.key()));
        }
        for &i in &order[(*mapped).max(*strict).min(end)..end] {
            let job = &jobs[i];
            #[cfg(debug_assertions)]
            let before = footprint(levels);
            if job.tasks > 0 {
                let bracket = lax_bracket(levels, job.task_len, job.tasks);
                let upto = |w| {
                    let at_or_below = move |&(_, r): &(usize, &Run)| r.occupation <= w;
                    levels.iter().enumerate().rev().take_while(at_or_below).map(|(k, &r)| (k, r))
                };
                let split = water_fill_runs(upto, bracket, job.task_len, job.tasks, lifted, tied, &mut summaries[i]);
                // The runs raised are the tail of `levels`: take it off, and
                // merge them back in where they now belong.
                levels.truncate(lifted.iter().map(|x| x.at as usize).min().unwrap_or(levels.len()));
                lifted.reverse();
                if let Some(x) = split {
                    // The split's winners: the tie winner with the highest
                    // queue, so the highest key raised.
                    lifted.insert(0, x);
                }
                sort_descending(lifted, spare, cuts);
                merge_back(levels, lifted);
            }
            #[cfg(debug_assertions)]
            check_placed(i, job, footprint(levels) - before);
        }
        *mapped = end;
        self.check_profile_contract();
    }

    /// The profile's structure, and Theorem 3 for every job placed so far.
    /// Debug builds only.
    fn check_profile_contract(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (runs, levels, capacity) = (&self.runs, &self.levels, self.capacity);
        let profile = if levels.is_empty() { &runs[..] } else { &levels[..] };
        let queues: u64 = profile.iter().map(|r| r.len as u64).sum();
        debug_assert_eq!(queues, capacity as u64, "profile contract: runs must cover the fleet");
        debug_assert!(profile.len() <= 1 + 2 * self.mapped, "profile contract: {} runs", profile.len());
        debug_assert!(
            runs.windows(2).all(|w| w[0].first + w[0].len == w[1].first)
                && levels.windows(2).all(|w| w[0].key() > w[1].key()),
            "profile contract: runs out of order"
        );
        let desired: u64 = self.summaries.iter().map(|s| s.desired_now as u64).sum();
        debug_assert!(desired <= capacity as u64, "profile contract: Σ desired_now = {desired}");
        let placed = self.order[..self.mapped].iter().map(|&i| (i, self.summaries[i].completion));
        check_theorem3(&self.jobs, placed, capacity);
    }
}

/// Algorithm 4 in one call: [`OccupationProfile::start`], then
/// [`OccupationProfile::map_through`] every pack position. Emits each job's
/// [`MapSummary`] (borrowed from `profile`, in input order), equal to
/// `(active_at(0), completion)` of [`map_continuous`]'s placements in every
/// case.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] exactly when [`map_continuous`] errs.
pub fn map_profile<'a>(
    jobs: &[MapJob],
    capacity: u32,
    profile: &'a mut OccupationProfile,
) -> Result<&'a [MapSummary], CoreError> {
    profile.start(jobs, capacity)?;
    profile.map_through(jobs.len());
    Ok(&profile.summaries)
}

/// Container·slots reserved across the profile.
#[cfg(debug_assertions)]
fn footprint(runs: &[Run]) -> u128 {
    runs.iter().map(|r| r.occupation as u128 * r.len as u128).sum()
}

/// Conservation: every task adds exactly `task_len` to one queue.
#[cfg(debug_assertions)]
fn check_placed(i: usize, job: &MapJob, added: u128) {
    debug_assert_eq!(
        added,
        job.tasks as u128 * job.task_len as u128,
        "mapping contract: job {i} did not place exactly {} tasks",
        job.tasks
    );
}

/// A water-fill's level lies in `lo..=hi`.
#[derive(Clone, Copy)]
struct Bracket {
    lo: u64,
    hi: u64,
}

/// The bracket of a strict job's spill, from one pass over `runs`. Enough
/// queues at the lowest occupation `min_o` settle it outright. Otherwise the
/// least-occupied queue alone exposes `tasks + 1` keys by `min_o + tasks·R`,
/// and summing over every queue (those above `w` count negatively),
/// `count(w) > (C·w − Σo)/R`, so `C·w ≥ tasks·R + Σo` is enough too.
fn spill_bracket(runs: &[Run], capacity: u32, volume: u128, l: u64, tasks: u64) -> Bracket {
    let (mut min_o, mut at_min) = (u64::MAX, 0u64);
    for r in runs {
        if r.occupation < min_o {
            (min_o, at_min) = (r.occupation, 0);
        }
        if r.occupation == min_o {
            at_min += r.len as u64;
        }
    }
    let mut hi = min_o;
    if at_min < tasks {
        let by_volume = (tasks as u128 * l as u128 + volume) / capacity as u128 + 1;
        hi = min_o.saturating_add(tasks.saturating_mul(l));
        hi = hi.min(u64::try_from(by_volume).unwrap_or(u64::MAX));
    }
    Bracket { lo: min_o, hi }
}

/// The bracket of a lax job's water-fill, from the least occupied runs of
/// `levels` up. With `Q` queues and `S = Σ o` over those at or below `w`,
/// and `X = tasks·R + S`, `(Q·(w + 1) − S)/R ≤ count(w) ≤ (Q·(w + R) − S)/R`,
/// so `w ≤ ⌈X/Q⌉ − 1 < w + R`; and once `Q ≥ tasks`, `w` is at most the
/// highest of their occupations. Each run taken only lowers both bounds,
/// and a run above them cannot be at or below `w`: the walk reads about the
/// runs the fill raises.
fn lax_bracket(levels: &[Run], l: u64, tasks: u64) -> Bracket {
    let min_o = levels.last().map_or(0, |r| r.occupation);
    let (mut q, mut x, mut hi) = (0u64, tasks as u128 * l as u128, u64::MAX);
    for r in levels.iter().rev() {
        // `o ≥ ⌈X/Q⌉` ⇔ `o·Q ≥ X`.
        if r.occupation > hi || (q > 0 && r.occupation as u128 * q as u128 >= x) {
            break;
        }
        q += r.len as u64;
        x += r.len as u128 * r.occupation as u128;
        if q >= tasks {
            hi = r.occupation;
        }
    }
    let mean = u64::try_from(x.div_ceil(q as u128)).unwrap_or(u64::MAX);
    hi = hi.min(mean - 1);
    Bracket { lo: mean.saturating_sub(l).max(min_o).min(hi), hi }
}

/// Least-occupied-queue selection over runs, in [`water_fill`]'s closed
/// form: the level `w` is the `tasks`-th smallest key of the progressions
/// `o + j·R`, each counted `len` times — `count(w) = Σ len·(⌊(w − o)/R⌋ + 1)`
/// over the runs with `o ≤ w`. Every key below `w` is taken; the ties at
/// `w` itself go to the lowest-indexed queues, splitting at most one run.
///
/// `upto(v)` yields every run at or below `v` (with its position in the
/// caller's list), in any order: the fill reads nothing else. Each raised
/// run comes back in `lifted`, at the position it was read from; the one
/// run a tie splits keeps its losers there, and its winners — its lowest
/// queues — come back apart, as the return value.
fn water_fill_runs<I: Iterator<Item = (usize, Run)>>(
    upto: impl Fn(u64) -> I,
    Bracket { mut lo, mut hi }: Bracket,
    l: u64,
    tasks: u64,
    lifted: &mut Vec<Lift>,
    tied: &mut Vec<(usize, u64)>,
    summary: &mut MapSummary,
) -> Option<Lift> {
    // Dividends are `w − o ≤ hi − min_o ≤ tasks·R`.
    let div = Recip::new(l, tasks.saturating_mul(l));
    // Keys ≤ w, exact below `tasks` (all a probe needs to know beyond that
    // is that the level was reached).
    let count = |w: u64| {
        let mut n = 0u64;
        for (_, r) in upto(w) {
            n = n.saturating_add((div.div(w - r.occupation) + 1).saturating_mul(r.len as u64));
            if n >= tasks {
                break;
            }
        }
        n
    };
    // Bisect with `count(lo − 1) < tasks ≤ count(hi)`.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count(mid) >= tasks {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let w = lo;
    // Taking every key below `w` leaves a queue at its first key ≥ w —
    // exactly `w` when its progression hits `w`, which makes it a
    // candidate for one tie.
    lifted.clear();
    tied.clear();
    let mut below = 0u64;
    for (at, run) in upto(w) {
        let o = run.occupation;
        let q = div.div(w - o);
        let level = if q * l == w - o { w } else { o + (q + 1) * l };
        // Its keys below `w`: all but the one at `w` itself, if it has one.
        below += (q + u64::from(level > w)) * run.len as u64;
        if level > w {
            note(summary, o, level, run.len);
        } else {
            tied.push((lifted.len(), o));
        }
        lifted.push(Lift { at: at as u32, run: Run { occupation: level, ..run } });
    }
    // The ties go to the lowest queues, and their winners end a task higher.
    tied.sort_unstable_by_key(|&(k, _)| lifted[k].run.first);
    let (mut ties, mut split) = (tasks - below, None);
    for &(k, from) in tied.iter() {
        let x = &mut lifted[k];
        let take = ties.min(x.run.len as u64) as u32;
        ties -= take as u64;
        note(summary, from, w + l, take);
        if w > from {
            note(summary, from, w, x.run.len - take);
        }
        if take == x.run.len {
            x.run.occupation = w + l;
        } else if take > 0 {
            let Run { first, len, .. } = x.run;
            x.run = Run { occupation: w, first: first + take, len: len - take };
            split = Some(Lift { run: Run { occupation: w + l, first, len: take }, ..*x });
        }
    }
    debug_assert_eq!(ties, 0, "water_fill_runs under-placed");
    split
}

/// Sorts lifted runs by descending key. They come off `levels` in that
/// order, and a water-fill only cuts them into a few descending stretches
/// (one per number of tasks a queue takes, and one per tie), so merging
/// neighbouring stretches pairwise sorts them in O(n log stretches).
/// `spare` and `cuts` are scratch.
fn sort_descending(lifted: &mut Vec<Lift>, spare: &mut Vec<Lift>, cuts: &mut Vec<usize>) {
    cuts.clear();
    cuts.push(0);
    for k in 1..lifted.len() {
        if lifted[k].run.key() > lifted[k - 1].run.key() {
            cuts.push(k);
        }
    }
    cuts.push(lifted.len());
    while cuts.len() > 2 {
        spare.clear();
        let mut kept = 1;
        let mut k = 0;
        while k + 1 < cuts.len() {
            let (lo, mid) = (cuts[k], cuts[k + 1]);
            let hi = cuts.get(k + 2).copied().unwrap_or(mid);
            let (mut a, mut b) = (lo, mid);
            while a < mid || b < hi {
                let from_a = b == hi || (a < mid && lifted[a].run.key() > lifted[b].run.key());
                spare.push(if from_a { lifted[a] } else { lifted[b] });
                (a, b) = if from_a { (a + 1, b) } else { (a, b + 1) };
            }
            cuts[kept] = hi;
            kept += 1;
            k += 2;
        }
        cuts.truncate(kept);
        std::mem::swap(lifted, spare);
    }
}

/// Merges the raised runs (descending key) back into `levels` (descending
/// key) from the end, moving only the runs below the highest raised one.
fn merge_back(levels: &mut Vec<Run>, lifted: &[Lift]) {
    let (mut a, mut b) = (levels.len(), lifted.len());
    levels.resize(a + b, Run { occupation: 0, first: 0, len: 0 });
    let mut out = levels.len();
    while b > 0 {
        out -= 1;
        if a > 0 && levels[a - 1].key() < lifted[b - 1].run.key() {
            levels[out] = levels[a - 1];
            a -= 1;
        } else {
            levels[out] = lifted[b - 1].run;
            b -= 1;
        }
    }
}

/// Replaces run `k` by the non-empty `pieces` (whose lengths sum to its).
fn split_run(runs: &mut Vec<Run>, k: usize, pieces: &[Run]) {
    for (at, &piece) in (k..).zip(pieces.iter().filter(|p| p.len > 0)) {
        if at == k {
            runs[k] = piece;
        } else {
            runs.insert(at, piece);
        }
    }
}

/// Records that the job raised `queues` queues from occupation `from` to `to`.
fn note(summary: &mut MapSummary, from: u64, to: u64, queues: u32) {
    if queues > 0 {
        summary.completion = summary.completion.max(to);
        summary.desired_now += if from == 0 { queues } else { 0 };
    }
}

/// Runs per block of [`BlockLows`].
const BLOCK: usize = 16;

/// The lowest occupation of each block of [`BLOCK`] consecutive runs, for
/// the first `known` blocks; a split shifts every run after it, so it
/// forgets its block and those after it.
#[derive(Default, Debug, Clone)]
struct BlockLows {
    lows: Vec<u64>,
    known: usize,
}

/// The strict pass: in container order, a queue below the target takes the
/// `⌈(T − o)/R⌉` tasks that can still start before it. Every queue of a run
/// takes the same `fit`, so the first `remaining / fit` of them take `fit`,
/// the next takes the remainder and the rest of the run is untouched.
/// Returns the tasks no queue could start in time (Theorem 2 violated).
///
/// A block whose lowest queue has reached the target holds nothing the job
/// can take: the walk steps over it whole.
fn strict_fill(runs: &mut Vec<Run>, lows: &mut BlockLows, job: &MapJob, summary: &mut MapSummary) -> u64 {
    let l = job.task_len;
    // Dividends are at most `target + R − 1`.
    let div = Recip::new(l, job.target.saturating_add(l));
    let mut remaining = job.tasks;
    for b in 0..runs.len().div_ceil(BLOCK) {
        if remaining == 0 {
            break;
        }
        if b < lows.known && lows.lows[b] >= job.target {
            continue;
        }
        let end = runs.len().min((b + 1) * BLOCK);
        let mut low = u64::MAX;
        for k in b * BLOCK..end {
            let Run { occupation: o, first, len } = runs[k];
            if remaining == 0 || o >= job.target {
                low = low.min(o);
                continue;
            }
            let fit = div.div(job.target - o + (l - 1));
            let full = (remaining / fit).min(len as u64) as u32;
            remaining -= full as u64 * fit;
            note(summary, o, o + fit * l, full);
            if full == len {
                runs[k].occupation = o + fit * l;
                low = low.min(o + fit * l);
                continue;
            }
            // The job runs out inside this run: `remaining < fit`.
            let last = u32::from(remaining > 0);
            note(summary, o, o + remaining * l, last);
            let pieces = [
                Run { occupation: o + fit * l, first, len: full },
                Run { occupation: o + remaining * l, first: first + full, len: last },
                Run { occupation: o, first: first + full + last, len: len - full - last },
            ];
            split_run(runs, k, &pieces);
            lows.known = lows.known.min(b);
            return 0;
        }
        // Every run of the block was read: its lowest is known again.
        if b < lows.known {
            lows.lows[b] = low;
        } else if b == lows.known {
            lows.lows.truncate(b);
            lows.lows.push(low);
            lows.known = b + 1;
        }
    }
    remaining
}

/// Checks the Theorem 2 prefix-capacity condition for (target, demand)
/// pairs: `Σ_{i: T_i ≤ T_k} η_i ≤ C · T_k` for every job `k`.
///
/// Demands are `tasks · task_len` container·slots. Useful in tests and in
/// admission logic.
pub fn capacity_condition_holds(jobs: &[MapJob], capacity: u32) -> bool {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].target);
    let mut cum = 0u128;
    for &i in &order {
        cum += jobs[i].tasks as u128 * jobs[i].task_len as u128;
        if cum > capacity as u128 * jobs[i].target as u128 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_single_queue() {
        let jobs = [MapJob { tasks: 3, task_len: 10, target: 30, lax: false }];
        let p = map_continuous(&jobs, 4).unwrap();
        assert_eq!(p[0].segments.len(), 1);
        assert_eq!(p[0].segments[0], Segment { container: 0, start: 0, tasks: 3 });
        assert_eq!(p[0].completion, 30);
    }

    #[test]
    fn job_spreads_across_queues_when_target_tight() {
        // 4 tasks of 10 slots, target 10: one task fits per queue.
        let jobs = [MapJob { tasks: 4, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 4).unwrap();
        assert_eq!(p[0].segments.len(), 4);
        assert!(p[0].segments.iter().all(|s| s.start == 0 && s.tasks == 1));
        assert_eq!(p[0].completion, 10);
        assert_eq!(p[0].active_at(0), 4);
        assert_eq!(p[0].active_at(9), 4);
        assert_eq!(p[0].active_at(10), 0);
    }

    #[test]
    fn theorem3_bound_on_boundary_case() {
        // Target 15 with task_len 10: a task may start at slot 14 and end
        // at 24 ≤ target + task_len = 25.
        let jobs = [
            MapJob { tasks: 1, task_len: 14, target: 15, lax: false }, // occupies queue 0 to 14
            MapJob { tasks: 1, task_len: 10, target: 15, lax: false }, // starts at 14 on queue 0
        ];
        let p = map_continuous(&jobs, 1).unwrap();
        assert_eq!(p[1].segments[0].start, 14);
        assert_eq!(p[1].completion, 24);
        assert!(p[1].completion <= 15 + 10);
    }

    #[test]
    fn jobs_packed_in_target_order_regardless_of_input_order() {
        let jobs = [
            MapJob { tasks: 2, task_len: 10, target: 100, lax: false }, // late target
            MapJob { tasks: 2, task_len: 10, target: 20, lax: false },  // early target
        ];
        let p = map_continuous(&jobs, 1).unwrap();
        // Early-target job goes first on the single queue.
        assert_eq!(p[1].segments[0].start, 0);
        assert_eq!(p[0].segments[0].start, 20);
    }

    #[test]
    fn results_in_input_order() {
        let jobs = [
            MapJob { tasks: 1, task_len: 5, target: 50, lax: false },
            MapJob { tasks: 1, task_len: 7, target: 10, lax: false },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(p[0].task_len, 5);
        assert_eq!(p[1].task_len, 7);
    }

    #[test]
    fn overflow_spills_to_least_occupied() {
        // Impossible target: 10 tasks of 10 slots, target 10, 2 queues.
        let jobs = [MapJob { tasks: 10, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        let total: u64 = p[0].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 10, "all tasks placed despite overflow");
        assert_eq!(p[0].completion, 50); // 10 tasks over 2 queues
        assert!(p[0].completion > 10 + 10, "bound violated ⇒ detectable");
    }

    #[test]
    fn overflow_spill_coalesces_with_strict_prefix() {
        // The strict pass puts one task per queue (ending at slot 10) and
        // the spill continues at slot 10 on the same queues: adjacent
        // same-rate runs must come out as one segment per queue, not two.
        let jobs = [MapJob { tasks: 10, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(p[0].segments.len(), 2, "adjacent same-rate runs merge");
        assert_eq!(p[0].segments[0], Segment { container: 0, start: 0, tasks: 5 });
        assert_eq!(p[0].segments[1], Segment { container: 1, start: 0, tasks: 5 });
        assert_eq!(p[0].active_at(0), 2);
        assert_eq!(p[0].active_at(49), 2);
    }

    #[test]
    fn zero_task_job_is_empty() {
        let jobs = [MapJob { tasks: 0, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        assert!(p[0].segments.is_empty());
        assert_eq!(p[0].completion, 0);
        assert_eq!(p[0].active_at(0), 0);
    }

    #[test]
    fn zero_target_job_still_places() {
        // Overdue job (target 0): the start-before-target rule never fires,
        // so everything goes through the spill path, ASAP.
        let jobs = [MapJob { tasks: 2, task_len: 5, target: 0, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        let total: u64 = p[0].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 2);
        assert_eq!(p[0].completion, 5); // one task per queue
    }

    #[test]
    fn validation() {
        assert!(map_continuous(&[], 0).is_err());
        assert!(map_continuous(&[MapJob { tasks: 1, task_len: 0, target: 5, lax: false }], 2).is_err());
    }

    #[test]
    fn capacity_condition_checker() {
        let ok = [
            MapJob { tasks: 2, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 2, task_len: 10, target: 40, lax: false },
        ];
        assert!(capacity_condition_holds(&ok, 1));
        let bad = [MapJob { tasks: 3, task_len: 10, target: 20, lax: false }];
        assert!(!capacity_condition_holds(&bad, 1));
    }

    #[test]
    fn theorem3_bound_under_capacity_condition() {
        // Deterministic instance satisfying (12): staggered targets.
        let jobs = [
            MapJob { tasks: 4, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 4, task_len: 15, target: 60, lax: false },
            MapJob { tasks: 6, task_len: 5, target: 70, lax: false },
            MapJob { tasks: 2, task_len: 30, target: 100, lax: false },
        ];
        let capacity = 2;
        assert!(capacity_condition_holds(&jobs, capacity));
        let p = map_continuous(&jobs, capacity).unwrap();
        for (i, placement) in p.iter().enumerate() {
            assert!(
                placement.completion <= jobs[i].target + jobs[i].task_len,
                "job {i}: completion {} > T+R {}",
                placement.completion,
                jobs[i].target + jobs[i].task_len
            );
        }
    }

    #[test]
    fn lax_jobs_pack_into_leftovers_after_strict() {
        let jobs = [
            MapJob { tasks: 2, task_len: 10, target: 10, lax: false },
            MapJob { tasks: 4, task_len: 10, target: 5, lax: true }, // target ignored
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        // Strict job takes both queues at slot 0; lax fills behind it.
        assert!(p[0].segments.iter().all(|s| s.start == 0));
        assert!(p[1].segments.iter().all(|s| s.start >= 10));
        assert_eq!(p[1].completion, 30); // 4 tasks balanced on 2 queues after 10
        assert_eq!(p[1].active_at(0), 0);
        assert_eq!(p[1].active_at(15), 2);
    }

    #[test]
    fn lax_only_runs_immediately_when_capacity_free() {
        let jobs = [MapJob { tasks: 6, task_len: 5, target: 999, lax: true }];
        let p = map_continuous(&jobs, 3).unwrap();
        assert_eq!(p[0].active_at(0), 3, "lax jobs use free capacity at once");
        assert_eq!(p[0].completion, 10);
    }

    #[test]
    fn zero_demand_jobs_mixed_with_loaded_jobs() {
        // Zero-demand jobs ride along without consuming capacity or
        // breaking the Theorem 3 bound for their loaded peers.
        let jobs = [
            MapJob { tasks: 0, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 4, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 0, task_len: 3, target: 0, lax: false },
            MapJob { tasks: 0, task_len: 5, target: 7, lax: true },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        assert!(p[0].segments.is_empty() && p[2].segments.is_empty() && p[3].segments.is_empty());
        assert_eq!(p[0].completion, 0);
        let total: u64 = p[1].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 4);
        assert!(p[1].completion <= 20 + 10);
    }

    #[test]
    fn target_at_horizon_completes_within_bound() {
        // A job whose target sits exactly at the planning horizon still
        // obeys T + R: the pack never starts a task at or past the target.
        const HORIZON: u64 = 1_000_000;
        let jobs = [
            MapJob { tasks: 3, task_len: 7, target: 10, lax: false },
            MapJob { tasks: 5, task_len: 9, target: HORIZON, lax: false },
        ];
        assert!(capacity_condition_holds(&jobs, 3));
        let p = map_continuous(&jobs, 3).unwrap();
        assert!(p[1].completion <= HORIZON + 9);
    }

    #[test]
    fn full_cluster_all_containers_committed() {
        // C = 3 containers, each fully committed to a strict job through
        // slot 30; a later-target job queues behind and still meets T + R.
        let jobs = [
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 60, lax: false },
        ];
        assert!(capacity_condition_holds(&jobs, 3));
        let p = map_continuous(&jobs, 3).unwrap();
        for placement in &p[..3] {
            // bound: the first three jobs fill all containers through 30
            assert_eq!(placement.completion, 30);
        }
        assert!(p[3].segments.iter().all(|s| s.start >= 30));
        assert!(p[3].completion <= 60 + 10);
    }

    fn oracle_summaries(jobs: &[MapJob], capacity: u32) -> Vec<MapSummary> {
        map_continuous(jobs, capacity)
            .unwrap()
            .iter()
            .map(|p| MapSummary { desired_now: p.active_at(0), completion: p.completion })
            .collect()
    }

    /// The run-length mapper must agree with the segment-emitting oracle
    /// across a deterministic stream of single-job mutations (target
    /// moves, task count changes, lax flips, task-length changes) on one
    /// recycled profile — stale scratch from the previous event must never
    /// leak into the next.
    #[test]
    fn profile_matches_map_continuous_across_event_stream() {
        let mut jobs: Vec<MapJob> = (0..50)
            .map(|i| MapJob {
                tasks: 1 + (i * 7) % 9,
                task_len: 1 + (i * 3) % 13,
                target: 10 + (i * 37) % 400,
                lax: i % 5 == 0,
            })
            .collect();
        let mut profile = OccupationProfile::default();
        let capacity = 8;
        for step in 0..40u64 {
            let k = (step as usize * 11) % jobs.len();
            match step % 4 {
                0 => jobs[k].target = (jobs[k].target + 31) % 450,
                1 => jobs[k].tasks = 1 + (jobs[k].tasks + 2) % 11,
                2 => jobs[k].lax = !jobs[k].lax,
                _ => jobs[k].task_len = 1 + (jobs[k].task_len + 4) % 17,
            }
            let got = map_profile(&jobs, capacity, &mut profile).unwrap();
            assert_eq!(got, oracle_summaries(&jobs, capacity), "step {step}");
        }
        // A capacity change and a shrinking job list reuse the same buffers.
        let got = map_profile(&jobs, capacity + 1, &mut profile).unwrap();
        assert_eq!(got, oracle_summaries(&jobs, capacity + 1));
        let got = map_profile(&jobs[..7], 3, &mut profile).unwrap();
        assert_eq!(got, oracle_summaries(&jobs[..7], 3));
    }

    #[test]
    fn profile_splits_runs_not_containers() {
        // 5 tasks of 10 slots before target 20 on a wide fleet: two queues
        // take two tasks, one takes the last, the rest stay one run.
        let jobs = [MapJob { tasks: 5, task_len: 10, target: 20, lax: false }];
        let mut profile = OccupationProfile::default();
        let got = map_profile(&jobs, 1_000_000, &mut profile).unwrap();
        assert_eq!(got, [MapSummary { desired_now: 3, completion: 20 }]);
        assert_eq!(profile.runs(), 3);
        assert!(map_profile(&jobs, 0, &mut profile).is_err());
    }

    #[test]
    fn demand_products_widen_before_multiplying() {
        // tasks · task_len = 2^66: the u64 product used to wrap to 0 and
        // pass the capacity condition / miss the active interval.
        let huge = MapJob { tasks: 1 << 33, task_len: 1 << 33, target: 10, lax: false };
        assert!(!capacity_condition_holds(&[huge], 4));
        let p = Placement {
            task_len: 1 << 33,
            completion: u64::MAX,
            segments: vec![Segment { container: 0, start: 0, tasks: 1 << 33 }],
        };
        assert_eq!(p.active_at(5), 1);
        assert_eq!(p.active_at(u64::MAX), 1);
    }

    #[test]
    fn segments_never_overlap_on_a_container() {
        let jobs = [
            MapJob { tasks: 3, task_len: 7, target: 25, lax: false },
            MapJob { tasks: 5, task_len: 3, target: 30, lax: false },
            MapJob { tasks: 2, task_len: 11, target: 60, lax: false },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        // Collect (container, interval) and check pairwise disjointness.
        let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
        for (i, placement) in p.iter().enumerate() {
            for s in &placement.segments {
                intervals.push((s.container, s.start, s.start + s.tasks * jobs[i].task_len));
            }
        }
        for a in 0..intervals.len() {
            for b in (a + 1)..intervals.len() {
                let (ca, sa, ea) = intervals[a];
                let (cb, sb, eb) = intervals[b];
                if ca == cb {
                    assert!(ea <= sb || eb <= sa, "overlap: {:?} vs {:?}", intervals[a], intervals[b]);
                }
            }
        }
    }
}
