//! The container-assignment (CA) pipeline: one full pass of the RUSH
//! feedback cycle.
//!
//! There is exactly one pipeline body. [`compute_plan_incremental`] runs it
//! on a caller-held [`PlanState`] (warm: the expensive stages are memoized
//! across scheduling events); [`compute_plan`] runs the same body on a cold
//! `PlanState::new()` and is therefore a pure function of its inputs.
//!
//! A pass chains estimate → WCDE → onion peel → continuous
//! mapping and reports, per job, the robust demand `η`, the target
//! completion time, the achieved max-min level, and the number of
//! containers the plan gives the job in the *next* slot.
//! `rush_planner::RushScheduler` executes exactly that
//! next-slot column; everything else is recomputed on the next scheduling
//! event. Keeping the pipeline pure also lets the Fig. 5 benchmarks
//! measure scheduling cost at 20–1000 simultaneous jobs without running a
//! cluster.
//!
//! # Incremental operation
//!
//! A scheduling event (task completion, failure, arrival) changes the
//! estimator-visible state of *one* job; the other jobs' robust demands
//! `(η, R)` are unchanged. A [`PlanState`]'s [`PlanCache`] memoizes the
//! estimate + WCDE stage per job, keyed by a fingerprint of everything that
//! stage reads: the sample sequence (order-sensitive — the empirical
//! estimator seeds its resampling from it), the remaining-task count, the
//! failure count and the config knobs. Ages and utilities are deliberately
//! **not** part of the key: they only enter the peel and mapping stages. A
//! warm pass therefore produces plans bit-identical to a cold one.

use crate::config::{Estimator, EstimatorKind};
use crate::mapping::{map_profile, MapJob, MapStats, MapSummary, OccupationProfile};
use crate::onion::{peel_incremental, JobEdit, OnionJob, PeelState, ReplayStats, Shifted};
use crate::wcde::worst_case_quantile;
use crate::{CoreError, RushConfig};
use rush_estimator::DistributionEstimator;
use rush_utility::{TimeUtility, Utility};
use std::borrow::Cow;
use std::collections::HashMap;

/// Scheduler-visible state of one job, fed into the pipeline.
///
/// `samples` borrows from the caller whenever possible (the scheduler's
/// sample pools, the simulator's job views); owned vectors still convert
/// via `.into()`. One CA pass over 1000 jobs then clones no sample data
/// at all.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInput<'a> {
    /// Observed runtimes (slots) of the job's completed tasks. May be
    /// empty (cold start) — the config's prior or a cross-job pool then
    /// substitutes.
    pub samples: Cow<'a, [u64]>,
    /// Tasks not yet started.
    pub remaining_tasks: usize,
    /// Containers the job currently occupies.
    pub running: u32,
    /// Failed task attempts observed so far (re-queued by the cluster).
    pub failed_attempts: usize,
    /// Slots elapsed since the job arrived (shifts its utility).
    pub age: f64,
    /// The job's completion-time utility (time measured from arrival).
    pub utility: TimeUtility,
}

/// Per-job output of one CA pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Robust remaining demand `η` in container·slots.
    pub eta: u64,
    /// Average task runtime `R` used for mapping (slots).
    pub task_len: u64,
    /// Target completion time (slots from now) from the onion peel.
    pub target: f64,
    /// Achieved max-min utility level.
    pub level: f64,
    /// Containers the plan allocates to the job in the next slot.
    pub desired_now: u32,
    /// Planned completion (slots from now) under the continuity mapping.
    pub planned_completion: u64,
    /// Whether the job cannot finish without its utility dropping to
    /// (numerically) zero — the "red row" of the paper's HTTP interface.
    pub impossible: bool,
}

/// The full output of one CA pass, entries parallel to the input slice.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Per-job planning results.
    pub entries: Vec<PlanEntry>,
}

impl Plan {
    /// Total containers the plan wants occupied next slot.
    pub fn total_desired_now(&self) -> u32 {
        self.entries.iter().map(|e| e.desired_now).sum()
    }
}

/// The memoized result of the estimate + WCDE stage for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSolve {
    /// Robust remaining demand `η` in container·slots.
    pub eta: u64,
    /// Average task runtime `R` (slots), for the mapping stage.
    pub task_len: u64,
}

/// Memo table for the per-job estimate + WCDE stage.
///
/// Entries are keyed by a fingerprint of the job state *and* the config
/// knobs that stage reads (θ, δ, bins, estimator class and parameters,
/// cold prior, failure awareness) — changing any of those naturally
/// misses. The table self-prunes: each pass keeps only the entries it
/// touched, so memory is bounded by the live job set, and entries for
/// departed jobs vanish on the next pass.
///
/// A cache exists only inside a [`PlanState`] and is fed only by the
/// pipeline: outside this crate it can be read (through
/// [`PlanState::cache`]) but neither built nor passed in, so a second memo
/// table beside the planner's cannot be written.
///
/// ```
/// let state = rush_core::plan::PlanState::new();
/// assert!(state.cache().is_empty()); // reading is the whole public surface
/// ```
///
/// ```compile_fail
/// let cache = rush_core::plan::PlanCache::new(); // private: E0624
/// ```
///
/// ```compile_fail
/// let cache = rush_core::plan::PlanCache::default(); // no `Default`: E0599
/// ```
#[derive(Debug, Clone)]
pub struct PlanCache {
    // Keyed by u128 fingerprint; get/insert/clear only, never iterated.
    map: HashMap<u128, JobSolve>,
    /// Per-input-index memo from the previous pass: `(fingerprint,
    /// solve)`. Positionally stable passes hit here in O(1) per job; the
    /// keyed map above is only the spillover for reshuffled lists.
    by_index: Vec<(u128, JobSolve)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache { map: Default::default(), by_index: Vec::new(), hits: 0, misses: 0 }
    }

    /// Lifetime count of per-job stage results served from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of per-job stage results actually computed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently retained (≤ jobs in the last pass).
    pub fn len(&self) -> usize {
        self.by_index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }

    /// Drops all entries (counters are kept).
    fn clear(&mut self) {
        self.map.clear();
        self.by_index.clear();
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, folded over `u64` words. Cheap, dependency-free and stable
/// across runs — cache keys never hit the allocator or `DefaultHasher`'s
/// randomized state.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new(seed: u64) -> Self {
        Fnv(FNV_OFFSET ^ seed)
    }

    fn u64(mut self, v: u64) -> Self {
        // One xor-multiply per word instead of eight per-byte rounds: the
        // fingerprint pass is on the steady-state replan path, and the
        // keys live only inside one process — no stability obligation.
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }
}

/// Hash of every config knob the estimate + WCDE stage reads. Mixed into
/// each job fingerprint so a cache survives config changes correctly.
fn config_tag(config: &RushConfig) -> u64 {
    let h = Fnv::new(0)
        .f64(config.theta)
        .f64(config.delta)
        .u64(config.max_bins as u64)
        .u64(u64::from(config.failure_aware))
        .f64(config.cold_prior.mean)
        .f64(config.cold_prior.std);
    match config.estimator {
        EstimatorKind::Mean => h.u64(1),
        EstimatorKind::Gaussian => h.u64(2),
        EstimatorKind::Empirical { resamples } => h.u64(3).u64(resamples as u64),
    }
    .0
}

/// Seed of the second FNV stream of every 128-bit hash here.
const HI_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A sample sequence's 128-bit hash, as two 64-bit halves.
type SampleHash = (u64, u64);

/// Two independently seeded 64-bit FNV streams over a sample sequence,
/// its length included.
fn sample_hash(samples: &[u64]) -> SampleHash {
    let mut lo = Fnv::new(0).u64(samples.len() as u64);
    let mut hi = Fnv::new(HI_SEED).u64(samples.len() as u64);
    for &s in samples {
        lo = lo.u64(s);
        hi = hi.u64(s.rotate_left(17));
    }
    (lo.0, hi.0)
}

/// 128-bit fingerprint of one job's estimator-visible state: each half of
/// the [`sample_hash`] of its samples, mixed with the config tag, continues
/// over the remaining-task and failure counts. Age and utility are excluded
/// on purpose — they do not enter this stage.
fn fingerprint(tag: u64, job: &PlanInput<'_>, (s_lo, s_hi): SampleHash) -> u128 {
    let fold = |state: u64| {
        Fnv(state ^ tag)
            .u64(job.remaining_tasks as u64)
            .u64(job.failed_attempts as u64)
            .0
    };
    (u128::from(fold(s_hi)) << 64) | u128::from(fold(s_lo))
}

/// Direct-mapped memo of [`sample_hash`] for one pass, keyed by a slice's
/// address and length. Cold-start jobs borrow their label's pooled samples,
/// so many jobs of a pass share one slice; each is hashed once. Sound because
/// every slice stays borrowed, hence unchanged, for the whole pass.
#[derive(Default)]
struct SliceHashes {
    /// `((address, length), hash)`.
    slots: [Option<((usize, usize), SampleHash)>; SLICE_HASH_SLOTS],
}

const SLICE_HASH_SLOTS: usize = 16;

/// Slices shorter than this are hashed directly: a memo lookup costs about
/// as much as hashing them.
const SLICE_HASH_MIN_LEN: usize = 8;

impl SliceHashes {
    fn get(&mut self, samples: &[u64]) -> SampleHash {
        if samples.len() < SLICE_HASH_MIN_LEN {
            return sample_hash(samples);
        }
        let key = (samples.as_ptr() as usize, samples.len());
        // Fibonacci hashing over the address: the low bits of an aligned
        // pointer carry nothing.
        let hash = (key.0 ^ key.1.rotate_left(32)) as u64;
        let slot = hash.wrapping_mul(HI_SEED) >> (64 - SLICE_HASH_SLOTS.ilog2());
        let entry = &mut self.slots[slot as usize];
        match *entry {
            Some((at, h)) if at == key => h,
            _ => {
                let h = sample_hash(samples);
                *entry = Some((key, h));
                h
            }
        }
    }
}

/// Estimate + WCDE + failure inflation for one job (steps 1–2 of the CA
/// pass). Pure in its inputs — the contract the memo table relies on.
fn solve_one(
    config: &RushConfig,
    job: &PlanInput<'_>,
    estimator: &Estimator,
) -> Result<JobSolve, CoreError> {
    let est = estimator.estimate(&job.samples, job.remaining_tasks)?;
    let eta = if job.remaining_tasks == 0 {
        0
    } else {
        let base = worst_case_quantile(&est.pmf, config.theta, config.delta)?.eta;
        if config.failure_aware && job.failed_attempts > 0 {
            // Inflate by the expected rework factor 1/(1−p̂) with a
            // Laplace-smoothed failure rate — the paper's stated
            // future-work extension.
            let attempts = job.failed_attempts + job.samples.len() + 1;
            let p_hat = (job.failed_attempts as f64 / attempts as f64).min(0.9);
            (base as f64 / (1.0 - p_hat)).ceil() as u64
        } else {
            base
        }
    };
    Ok(JobSolve { eta, task_len: est.mean_task_runtime.ceil().max(1.0) as u64 })
}

/// Solves the per-job stage for every listed job, in input order.
fn solve_batch(
    config: &RushConfig,
    jobs: &[&PlanInput<'_>],
    estimator: &Estimator,
) -> Result<Vec<JobSolve>, CoreError> {
    jobs.iter().map(|j| solve_one(config, j, estimator)).collect()
}

/// Per-job stage, memoized. Rotates the cache map so only fingerprints
/// touched by *this* pass survive into the next one.
fn solve_jobs(
    config: &RushConfig,
    jobs: &[PlanInput<'_>],
    estimator: &Estimator,
    cache: &mut PlanCache,
) -> Result<Vec<JobSolve>, CoreError> {
    let n = jobs.len();
    let tag = config_tag(config);
    let mut slices = SliceHashes::default();
    let prints: Vec<u128> =
        jobs.iter().map(|j| fingerprint(tag, j, slices.get(&j.samples))).collect();
    let mut out: Vec<Option<JobSolve>> = vec![None; n];
    // Index-aligned fast path: between consecutive passes the job list is
    // usually positionally stable with at most a few changed entries, so
    // the per-index memo serves almost every job without touching (or
    // rebuilding) a hash table.
    let index_ok = cache.by_index.len() == n;
    let mut miss_idx: Vec<usize> = Vec::new();
    for (i, fp) in prints.iter().enumerate() {
        if index_ok && cache.by_index[i].0 == *fp {
            out[i] = Some(cache.by_index[i].1);
            cache.hits += 1;
        } else {
            miss_idx.push(i);
        }
    }
    if miss_idx.len() > INDEX_SHIFT_SPILL {
        // Index alignment broke (an arrival or cancel reshuffled the
        // list): spill the previous pass into the keyed map so shifted
        // jobs still hit by content.
        for &(fp, s) in &cache.by_index {
            cache.map.insert(fp, s);
        }
    }
    let mut solve_idx: Vec<usize> = Vec::new();
    for &i in &miss_idx {
        if let Some(&s) = cache.map.get(&prints[i]) {
            out[i] = Some(s);
            cache.hits += 1;
        } else {
            solve_idx.push(i);
            cache.misses += 1;
        }
    }
    let miss_jobs: Vec<&PlanInput<'_>> = solve_idx.iter().map(|&i| &jobs[i]).collect();
    // On error the per-index memo is untouched and still content-correct
    // (it is keyed by fingerprint); the failed pass must not wipe it.
    let solved = solve_batch(config, &miss_jobs, estimator)?;
    for (&i, s) in solve_idx.iter().zip(solved) {
        cache.map.insert(prints[i], s);
        out[i] = Some(s);
    }
    cache.by_index.clear();
    #[expect(clippy::expect_used, reason = "every slot is filled by the hit loop or the miss solve above")]
    cache
        .by_index
        .extend(prints.iter().zip(&out).map(|(&fp, s)| (fp, s.expect("hit or solved"))));
    // The keyed map is intra-pass scratch: draining it here keeps the
    // retention promise (departed jobs do not linger) — the next pass's
    // reshuffle spill repopulates it from `by_index` when needed.
    cache.map.clear();
    // `by_index` was rebuilt just above in job order (one entry per
    // print), so the plan vector is a straight copy of its solved column.
    Ok(cache.by_index.iter().map(|&(_, s)| s).collect())
}

/// Index misses beyond this spill the previous pass's per-index memo into
/// the keyed map (a positional reshuffle, not a content change).
const INDEX_SHIFT_SPILL: usize = 2;

/// Runs one CA pass with the estimator class named in `config`, from
/// scratch: [`compute_plan_incremental`] on a cold [`PlanState`].
///
/// # Errors
///
/// * Configuration errors from [`RushConfig::validate`].
/// * [`CoreError::InvalidConfig`] if `capacity == 0`.
/// * Estimation or probability errors from the per-job DE pass.
pub fn compute_plan(
    config: &RushConfig,
    capacity: u32,
    jobs: &[PlanInput<'_>],
) -> Result<Plan, CoreError> {
    compute_plan_incremental(config, capacity, jobs, &mut PlanState::new())
}

/// Wall-clock phase breakdown and delta telemetry for the most recent
/// pass through a [`PlanState`]. Times are nanoseconds.
#[derive(Default, Clone, Copy, Debug)]
pub struct PlanPhaseStats {
    /// Estimate + WCDE stage (including memo-table lookups).
    pub solve_ns: u64,
    /// Onion peel (delta replay or full re-peel).
    pub peel_ns: u64,
    /// Continuous time-slot mapping.
    pub map_ns: u64,
    /// Target/placement bookkeeping and entry assembly.
    pub assemble_ns: u64,
    /// How the peel executed (replayed / resumed / re-recorded).
    pub peel_replay: ReplayStats,
    /// How the mapping executed (always a full run-length pass).
    pub map_delta: MapStats,
}

/// In debug builds, every this-many passes through one state the plan is
/// recomputed on a cold state and compared — the delta structures must
/// never drift from a from-scratch pass.
const SPOT_CHECK_INTERVAL: u64 = 64;

/// Cross-pass state for [`compute_plan_incremental`]: the per-job memo
/// table and the peel trace the delta paths patch between events, plus
/// the mapper's recycled scratch buffers. A state that has seen no pass
/// (or was just [invalidated](Self::invalidate)) is *cold*: the next pass
/// computes everything and is a pure function of its inputs.
#[derive(Debug, Clone)]
pub struct PlanState {
    cache: PlanCache,
    peel: PeelState,
    map: OccupationProfile,
    /// Utility/age context of the previous pass: what [`align_jobs`]
    /// matches this pass's jobs against (bitwise for ages, after the tick)
    /// to tell the peel replay which jobs stayed, left and arrived.
    last_utilities: Vec<TimeUtility>,
    last_ages: Vec<u64>,
    passes: u64,
    stats: PlanPhaseStats,
}

impl Default for PlanState {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanState {
    /// Creates a cold state; the first pass computes everything.
    pub fn new() -> Self {
        PlanState {
            cache: PlanCache::new(),
            peel: PeelState::new(),
            map: OccupationProfile::default(),
            last_utilities: Vec::new(),
            last_ages: Vec::new(),
            passes: 0,
            stats: PlanPhaseStats::default(),
        }
    }

    /// Drops all cross-pass structures; the next pass runs cold.
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.peel.invalidate();
        self.last_utilities.clear();
        self.last_ages.clear();
    }

    /// The per-job estimate + WCDE memo table (hit/miss counters).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Phase breakdown of the most recent pass.
    pub fn last_stats(&self) -> PlanPhaseStats {
        self.stats
    }

    /// Passes fed through this state so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

/// Runs one CA pass with the expensive stages memoized across events: the
/// per-job estimate + WCDE stage through [`PlanCache`] and the onion peel
/// through delta replay ([`crate::onion::peel_incremental`]). The continuous
/// mapping is a full run-length pass ([`crate::mapping::map_profile`]) on
/// buffers recycled in the state.
///
/// This is the planner-facing steady-state entry: feeding consecutive
/// scheduling events through one [`PlanState`] turns the O(n² log n) peel
/// into an O(n) arithmetic replay whenever demands, the capacity, the job
/// set or the clock moved but some job kept its utility and aged by the same
/// whole slots as the rest (a slot tick is one more drift of the replay),
/// while producing plans bit-identical to a cold pass ([`compute_plan`]) in
/// every case. Debug builds re-prove the equivalence on a cold state every
/// 64th pass (`SPOT_CHECK_INTERVAL`).
///
/// # Errors
///
/// Same as [`compute_plan`]; a failed pass leaves the state usable.
pub fn compute_plan_incremental(
    config: &RushConfig,
    capacity: u32,
    jobs: &[PlanInput<'_>],
    state: &mut PlanState,
) -> Result<Plan, CoreError> {
    use std::time::Instant;

    config.validate()?;
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if jobs.is_empty() {
        // A drained cluster retains no per-job state.
        state.invalidate();
        return Ok(Plan::default());
    }

    let t0 = Instant::now();
    let solves = solve_jobs(config, jobs, &config.estimator(), &mut state.cache)?;
    let t1 = Instant::now();
    let etas: Vec<u64> = solves.iter().map(|s| s.eta).collect();
    let task_lens: Vec<u64> = solves.iter().map(|s| s.task_len).collect();

    // What the peel replay may assume is exactly what this walk found: a
    // job mapped to a recorded one has its utility and its age moved by the
    // tick, so only its demand can differ beyond the tick; everything else
    // arrived or departed.
    let (mut prev, mut gone, tick) = align_jobs(&state.last_utilities, &state.last_ages, jobs);
    // A demand crossing zero changes how every probe sees the job (a job
    // without demand never blocks a level): replay it as a departure and an
    // arrival.
    let recorded = state.peel.demands();
    for (was, &eta) in prev.iter_mut().zip(&etas) {
        let crossed = |&i: &usize| recorded.get(i).is_some_and(|&d| (d == 0) != (eta == 0));
        if let Some(i) = was.filter(crossed) {
            gone.push(i);
            *was = None;
        }
    }
    gone.sort_unstable();
    let gone: Vec<Shifted<'_>> = gone
        .iter()
        .map(|&i| Shifted::new(&state.last_utilities[i], f64::from_bits(state.last_ages[i])))
        .collect();
    let departed: Vec<&dyn Utility> = gone.iter().map(|u| u as &dyn Utility).collect();

    let shifted: Vec<Shifted<'_>> =
        jobs.iter().map(|j| Shifted::new(&j.utility, j.age)).collect();
    let onion_jobs: Vec<OnionJob<'_>> = shifted
        .iter()
        .zip(&etas)
        .map(|(u, &eta)| OnionJob { demand: eta, utility: u })
        .collect();
    let targets = peel_incremental(
        &onion_jobs,
        capacity,
        config.tolerance,
        config.horizon,
        JobEdit { prev: &prev, departed: &departed, tick },
        &mut state.peel,
    )?;
    let t2 = Instant::now();

    let (map_jobs, target_of, level_of) = build_map_jobs(jobs, &etas, &task_lens, &targets);
    let summaries = map_profile(&map_jobs, capacity, &mut state.map)?;
    let t3 = Instant::now();

    let plan = assemble(&etas, &task_lens, &target_of, &level_of, summaries);
    if tick != 0.0 || !is_identity(&prev, state.last_utilities.len()) {
        state.last_utilities.clear();
        state.last_utilities.extend(jobs.iter().map(|j| j.utility));
        state.last_ages.clear();
        state.last_ages.extend(jobs.iter().map(|j| j.age.to_bits()));
    }
    state.passes += 1;
    let t4 = Instant::now();

    if cfg!(debug_assertions) && state.passes.is_multiple_of(SPOT_CHECK_INTERVAL) {
        // A cold state's pass count is 1, so this does not recurse.
        let scratch = compute_plan(config, capacity, jobs)?;
        debug_assert_eq!(
            plan, scratch,
            "delta-plan contract: warm pass {} diverged from a cold CA pass",
            state.passes
        );
        // Both passes share the run-length mapper: hold it to the oracle too.
        let oracle = crate::mapping::map_continuous(&map_jobs, capacity)?;
        debug_assert!(
            plan.entries.iter().zip(&oracle).all(|(e, p)| {
                (e.desired_now, e.planned_completion) == (p.active_at(0), p.completion)
            }),
            "mapping contract: run-length summary diverged from map_continuous"
        );
    }

    state.stats = PlanPhaseStats {
        solve_ns: (t1 - t0).as_nanos() as u64,
        peel_ns: (t2 - t1).as_nanos() as u64,
        map_ns: (t3 - t2).as_nanos() as u64,
        assemble_ns: (t4 - t3).as_nanos() as u64,
        peel_replay: state.peel.last_stats(),
        map_delta: MapStats { delta: false, reused_prefix: 0, repacked: jobs.len() },
    };
    Ok(plan)
}

/// Aligns this pass's jobs with the recorded pass's `(utility, age bits)`
/// list in one order-preserving walk, on job identity: a job continues a
/// recorded job with its utility whose age, moved by the pass-wide `tick`,
/// is its own bit for bit. The tick is the age shift the first such pair
/// implies (0 when nothing matches) — both adapters age every job by the
/// same whole slots, so one shift fits every survivor, and a wrong one only
/// loses matches. Returns, per job, the recorded index it continues
/// (`None`: it arrived), the recorded indices no job continues (they
/// departed), ascending, and the tick.
///
/// The walk never looks back: a job that does not match the recorded job
/// under the cursor skips recorded jobs until one matches, so departures
/// anywhere and arrivals at the tail — the order ids are handed out in —
/// align exactly, while a job inserted mid-list (or a reorder) costs the
/// recorded jobs behind it their match. Any outcome is sound — a mapped pair
/// is equal by construction — and the cost is one pass over each list, also
/// when nothing matches.
fn align_jobs(
    utilities: &[TimeUtility],
    ages: &[u64],
    jobs: &[PlanInput<'_>],
) -> (Vec<Option<usize>>, Vec<usize>, f64) {
    let mut departed = Vec::new();
    let mut cursor = 0usize;
    let mut tick = None;
    let prev = jobs
        .iter()
        .map(|job| {
            let from = cursor;
            while cursor < utilities.len() {
                let i = cursor;
                cursor += 1;
                let was = f64::from_bits(ages[i]);
                let shift = tick.unwrap_or(job.age - was);
                if shift >= 0.0
                    && (was + shift).to_bits() == job.age.to_bits()
                    && job.utility == utilities[i]
                {
                    tick = Some(shift);
                    departed.extend(from..i);
                    return Some(i);
                }
            }
            departed.extend(from..cursor);
            None
        })
        .collect();
    departed.extend(cursor..utilities.len());
    (prev, departed, tick.unwrap_or(0.0))
}

/// Whether `prev` maps a pass onto a recorded pass of `recorded` jobs
/// one-to-one in place (nothing arrived, nothing departed).
fn is_identity(prev: &[Option<usize>], recorded: usize) -> bool {
    prev.len() == recorded && prev.iter().enumerate().all(|(j, &was)| was == Some(j))
}

/// Builds the mapping inputs from peel targets (step 4 preamble). Returns
/// `(map_jobs, target_of, level_of)` in input order.
fn build_map_jobs(
    jobs: &[PlanInput<'_>],
    etas: &[u64],
    task_lens: &[u64],
    targets: &[crate::onion::Target],
) -> (Vec<MapJob>, Vec<f64>, Vec<f64>) {
    let mut target_of = vec![0.0f64; jobs.len()];
    let mut level_of = vec![0.0f64; jobs.len()];
    let mut lax_of = vec![false; jobs.len()];
    for t in targets {
        target_of[t.job] = t.deadline;
        level_of[t.job] = t.level;
        lax_of[t.job] = t.lax;
    }
    let map_jobs: Vec<MapJob> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            // Spread the robust demand over the real remaining tasks: each
            // task occupies a container for its robust runtime η/n (≥ R),
            // so the plan provisions exactly η container·slots with the
            // true task count.
            let n = job.remaining_tasks as u64;
            let r = if n > 0 { etas[i].div_ceil(n).max(task_lens[i]) } else { task_lens[i] };
            // Subtract `R` from the deadline, compensating the Theorem 3
            // `T + R` slack (paper Sec. III-C).
            let shaved = (target_of[i] - r as f64).max(1.0);
            if lax_of[i] {
                // A lax job's packing ignores its target — the field is
                // only the pack-order hint among lax jobs. Key on the
                // job's own demand (mirroring the deferred phase's
                // smallest-demand-first commit order) rather than its
                // ASAP deadline: the deadline shifts for *every* deferred
                // job whenever any demand changes, which would reshuffle
                // who gets the leftover containers on every event.
                MapJob { tasks: n, task_len: r, target: n.saturating_mul(r), lax: true }
            } else {
                MapJob { tasks: n, task_len: r, target: shaved as u64, lax: false }
            }
        })
        .collect();
    (map_jobs, target_of, level_of)
}

/// Step 5: entry assembly.
fn assemble(
    etas: &[u64],
    task_lens: &[u64],
    target_of: &[f64],
    level_of: &[f64],
    summaries: &[MapSummary],
) -> Plan {
    let entries = summaries
        .iter()
        .enumerate()
        .map(|(i, s)| PlanEntry {
            eta: etas[i],
            task_len: task_lens[i],
            target: target_of[i],
            level: level_of[i],
            desired_now: s.desired_now,
            planned_completion: s.completion,
            impossible: level_of[i] <= 1e-9,
        })
        .collect();
    Plan { entries }
}

/// Renders a plan as the monitoring table the paper's enhanced HTTP
/// interface displays (Fig. 2): per job, the robust demand, projected
/// completion time, achieved level — and a `!!` marker on *impossible*
/// jobs (the red rows that tell the user to renegotiate the job's
/// requirements).
///
/// `labels` must parallel the plan's entries (shorter slices are padded
/// with the entry index).
pub fn render_dashboard(plan: &Plan, labels: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>6} {:>10} {:>8} {:>8} {:>11}  status",
        "job", "eta", "R", "target", "level", "desired", "proj_done"
    );
    let width = 20 + 1 + 10 + 1 + 6 + 1 + 10 + 1 + 8 + 1 + 8 + 1 + 11 + 2 + 6;
    let _ = writeln!(out, "{}", "-".repeat(width));
    for (i, e) in plan.entries.iter().enumerate() {
        let label = labels.get(i).copied().map_or_else(|| i.to_string(), str::to_owned);
        let status = if e.impossible { "!! impossible" } else { "ok" };
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>6} {:>10.1} {:>8.3} {:>8} {:>11}  {}",
            label, e.eta, e.task_len, e.target, e.level, e.desired_now, e.planned_completion, status
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigmoid(budget: f64, weight: f64, beta: f64) -> TimeUtility {
        TimeUtility::sigmoid(budget, weight, beta).unwrap()
    }

    fn input(samples: Vec<u64>, remaining: usize, age: f64, u: TimeUtility) -> PlanInput<'static> {
        PlanInput {
            samples: samples.into(),
            remaining_tasks: remaining,
            running: 0,
            failed_attempts: 0,
            age,
            utility: u,
        }
    }

    #[test]
    fn empty_jobs_empty_plan() {
        let p = compute_plan(&RushConfig::default(), 8, &[]).unwrap();
        assert!(p.entries.is_empty());
        assert_eq!(p.total_desired_now(), 0);
    }

    #[test]
    fn single_urgent_job_gets_parallelism_now() {
        // 10 tasks of ~60 slots, budget 120: needs ~5 containers at once.
        let cfg = RushConfig::default();
        let jobs = vec![input(vec![60; 20], 10, 0.0, sigmoid(120.0, 5.0, 0.2))];
        let p = compute_plan(&cfg, 16, &jobs).unwrap();
        let e = &p.entries[0];
        assert!(e.eta >= 600, "eta {} must cover 10x60", e.eta);
        assert!(e.desired_now >= 5, "desired_now {} too low for the deadline", e.desired_now);
        assert!(!e.impossible);
    }

    #[test]
    fn relaxed_job_is_not_rushed() {
        // Same job, huge budget: the plan should not parallelize much.
        let cfg = RushConfig::default();
        let jobs = vec![input(vec![60; 20], 10, 0.0, sigmoid(100_000.0, 5.0, 0.001))];
        let p = compute_plan(&cfg, 16, &jobs).unwrap();
        assert!(p.entries[0].desired_now <= 2, "desired {}", p.entries[0].desired_now);
    }

    #[test]
    fn urgent_beats_insensitive_for_next_slot() {
        // Contended cluster (capacity 4): the urgent job's reservation wins
        // the next slot; the insensitive job only gets genuine leftovers.
        let cfg = RushConfig::default();
        let jobs = vec![
            input(vec![60; 10], 8, 0.0, sigmoid(300.0, 5.0, 0.1)),
            input(vec![60; 10], 8, 0.0, TimeUtility::constant(5.0).unwrap()),
        ];
        let p = compute_plan(&cfg, 4, &jobs).unwrap();
        assert!(
            p.entries[0].desired_now >= p.entries[1].desired_now,
            "urgent {} vs insensitive {}",
            p.entries[0].desired_now,
            p.entries[1].desired_now
        );
        // The insensitive job's planned completion lands after the urgent
        // job's (it is packed into leftover capacity).
        assert!(p.entries[1].planned_completion >= p.entries[0].planned_completion);
        assert!(p.total_desired_now() <= 4);
    }

    #[test]
    fn expired_job_is_flagged_impossible() {
        let cfg = RushConfig::default();
        // Steep sigmoid budget 50 but the job is already 5000 slots old.
        let jobs = vec![input(vec![60; 10], 8, 5000.0, sigmoid(50.0, 5.0, 1.0))];
        let p = compute_plan(&cfg, 8, &jobs).unwrap();
        assert!(p.entries[0].impossible);
    }

    #[test]
    fn zero_remaining_tasks_zero_eta() {
        let cfg = RushConfig::default();
        let jobs = vec![input(vec![60; 10], 0, 100.0, sigmoid(500.0, 5.0, 0.05))];
        let p = compute_plan(&cfg, 8, &jobs).unwrap();
        assert_eq!(p.entries[0].eta, 0);
        assert_eq!(p.entries[0].desired_now, 0);
    }

    #[test]
    fn cold_start_uses_prior() {
        let cfg = RushConfig::default(); // prior mean 60 std 20
        let jobs = vec![input(vec![], 10, 0.0, sigmoid(1000.0, 5.0, 0.01))];
        let p = compute_plan(&cfg, 8, &jobs).unwrap();
        assert!(p.entries[0].eta >= 500, "prior-based eta {}", p.entries[0].eta);
    }

    #[test]
    fn delta_zero_is_less_conservative() {
        let jobs = vec![input(vec![55, 60, 65, 58, 62, 61, 59, 63], 10, 0.0, sigmoid(2000.0, 5.0, 0.01))];
        let robust = compute_plan(&RushConfig::default().with_delta(0.7), 8, &jobs).unwrap();
        let nominal = compute_plan(&RushConfig::default().with_delta(0.0), 8, &jobs).unwrap();
        assert!(robust.entries[0].eta > nominal.entries[0].eta);
    }

    #[test]
    fn estimator_kinds_all_run() {
        let jobs = vec![input(vec![50, 60, 70], 5, 0.0, sigmoid(600.0, 5.0, 0.05))];
        for kind in [
            EstimatorKind::Mean,
            EstimatorKind::Gaussian,
            EstimatorKind::Empirical { resamples: 64 },
        ] {
            let cfg = RushConfig::default().with_estimator(kind);
            let p = compute_plan(&cfg, 8, &jobs).unwrap();
            assert!(p.entries[0].eta > 0, "{kind:?}");
        }
    }

    #[test]
    fn capacity_zero_rejected() {
        let jobs = vec![input(vec![60], 1, 0.0, sigmoid(100.0, 1.0, 0.1))];
        assert!(matches!(
            compute_plan(&RushConfig::default(), 0, &jobs),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let jobs = vec![input(vec![60], 1, 0.0, sigmoid(100.0, 1.0, 0.1))];
        assert!(compute_plan(&RushConfig::default().with_theta(2.0), 8, &jobs).is_err());
    }

    #[test]
    fn failure_history_inflates_provision() {
        let cfg = RushConfig::default();
        let mut healthy = input(vec![60; 20], 10, 0.0, sigmoid(5000.0, 5.0, 0.01));
        let flaky = {
            let mut j = healthy.clone();
            j.failed_attempts = 10; // as many failures as successes
            j
        };
        healthy.failed_attempts = 0;
        let p_healthy = compute_plan(&cfg, 8, &[healthy.clone()]).unwrap();
        let p_flaky = compute_plan(&cfg, 8, std::slice::from_ref(&flaky)).unwrap();
        assert!(
            p_flaky.entries[0].eta as f64 > p_healthy.entries[0].eta as f64 * 1.3,
            "flaky {} vs healthy {}",
            p_flaky.entries[0].eta,
            p_healthy.entries[0].eta
        );
        // The extension can be switched off.
        let cfg_off = RushConfig { failure_aware: false, ..Default::default() };
        let p_off = compute_plan(&cfg_off, 8, &[flaky]).unwrap();
        assert_eq!(p_off.entries[0].eta, p_healthy.entries[0].eta);
    }

    #[test]
    fn dashboard_renders_rows_and_flags() {
        let cfg = RushConfig::default();
        let jobs = vec![
            input(vec![60; 10], 8, 0.0, sigmoid(600.0, 5.0, 0.05)),
            input(vec![60; 10], 8, 5000.0, sigmoid(50.0, 5.0, 1.0)), // expired
        ];
        let plan = compute_plan(&cfg, 8, &jobs).unwrap();
        let out = render_dashboard(&plan, &["healthy", "expired"]);
        assert!(out.contains("healthy"));
        assert!(out.contains("expired"));
        assert!(out.contains("!! impossible"));
        assert_eq!(out.lines().count(), 4); // header + rule + 2 rows
        // Missing labels fall back to indices.
        let out = render_dashboard(&plan, &[]);
        assert!(out.contains('0'));
    }

    #[test]
    fn plan_respects_capacity_in_first_slot() {
        let cfg = RushConfig::default();
        let jobs: Vec<PlanInput<'_>> = (0..6)
            .map(|i| input(vec![60; 10], 10, 0.0, sigmoid(200.0 + i as f64 * 50.0, 5.0, 0.1)))
            .collect();
        let p = compute_plan(&cfg, 8, &jobs).unwrap();
        assert!(p.total_desired_now() <= 8, "desired {} > capacity", p.total_desired_now());
    }

    fn mixed_fleet(n: usize) -> Vec<PlanInput<'static>> {
        (0..n)
            .map(|i| {
                let mut j = input(
                    vec![40 + (i as u64 * 7) % 50; 4 + i % 9],
                    3 + (i * 5) % 40,
                    (i as f64 * 13.0) % 300.0,
                    sigmoid(200.0 + i as f64 * 37.0, 1.0 + (i % 4) as f64, 0.05),
                );
                j.failed_attempts = i % 3;
                j
            })
            .collect()
    }

    #[test]
    fn cached_plan_is_bit_identical_to_uncached() {
        let cfg = RushConfig::default();
        let jobs = mixed_fleet(40);
        let mut state = PlanState::new();
        let cold = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        let plain = compute_plan(&cfg, 16, &jobs).unwrap();
        assert_eq!(cold, plain, "cold pass through a state must equal compute_plan");
        assert_eq!(state.cache().hits(), 0, "a cold pass computes every job");
        // Warm pass: all per-job solves served from the cache, same plan.
        let misses_after_cold = state.cache().misses();
        let warm = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert_eq!(warm, plain, "warm pass must equal compute_plan");
        assert_eq!(state.cache().misses(), misses_after_cold, "warm pass must not recompute");
        assert_eq!(state.cache().hits(), jobs.len() as u64);
    }

    #[test]
    fn cache_misses_only_the_mutated_job() {
        let cfg = RushConfig::default();
        let mut jobs = mixed_fleet(20);
        let mut state = PlanState::new();
        compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        let baseline_misses = state.cache().misses();
        // One event: job 7 completes a task.
        jobs[7].samples.to_mut().push(44);
        jobs[7].remaining_tasks -= 1;
        let incremental = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert_eq!(state.cache().misses(), baseline_misses + 1, "exactly one job recomputed");
        let fresh = compute_plan(&cfg, 16, &jobs).unwrap();
        assert_eq!(incremental, fresh);
    }

    /// The memo key is the content of a job's samples, not where they live:
    /// a job borrowing a pooled slice and one owning a copy share a key, in
    /// one pass's slice memo or across passes.
    #[test]
    fn fingerprint_keys_on_content_not_address() {
        let pool: Vec<u64> = (0..300).map(|i| 40 + i % 37).collect();
        let u = sigmoid(900.0, 3.0, 0.02);
        let borrowed = PlanInput { samples: Cow::Borrowed(&pool), ..input(Vec::new(), 12, 0.0, u) };
        let owned = input(pool.clone(), 12, 0.0, u);
        let tag = config_tag(&RushConfig::default());
        let mut slices = SliceHashes::default();
        let key = fingerprint(tag, &borrowed, slices.get(&borrowed.samples));
        assert_eq!(key, fingerprint(tag, &owned, slices.get(&owned.samples)));
        assert_eq!(key, fingerprint(tag, &borrowed, slices.get(&pool)), "memo hit");
        // Anything the stage reads still moves the key.
        let mut grown = pool.clone();
        grown.push(41);
        assert_ne!(key, fingerprint(tag, &owned, slices.get(&grown)));
        assert_ne!(key, fingerprint(tag, &input(pool.clone(), 13, 0.0, u), sample_hash(&pool)));
        // A pass that swaps the borrowed slice for the owned copy recomputes
        // nothing.
        let cfg = RushConfig::default();
        let mut state = PlanState::new();
        compute_plan_incremental(&cfg, 16, &[borrowed.clone(), borrowed], &mut state).unwrap();
        let misses = state.cache().misses();
        compute_plan_incremental(&cfg, 16, &[owned.clone(), owned], &mut state).unwrap();
        assert_eq!(state.cache().misses(), misses);
    }

    #[test]
    fn cache_prunes_departed_jobs_and_keys_on_config() {
        let cfg = RushConfig::default();
        let jobs = mixed_fleet(10);
        let mut state = PlanState::new();
        compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert!(state.cache().len() <= 10);
        // Half the fleet departs: the next pass retains only live entries.
        compute_plan_incremental(&cfg, 16, &jobs[..5], &mut state).unwrap();
        let kept = state.cache().len();
        assert!(kept <= 5, "cache kept {kept} entries for 5 jobs");
        // A changed θ misses (stale η would be wrong) and still matches a
        // from-scratch pass.
        let misses = state.cache().misses();
        let cfg2 = cfg.with_theta(0.95);
        let p = compute_plan_incremental(&cfg2, 16, &jobs[..5], &mut state).unwrap();
        assert_eq!(p, compute_plan(&cfg2, 16, &jobs[..5]).unwrap());
        assert_eq!(state.cache().misses(), misses + 5, "every job re-solved under the new θ");
        // An emptied cluster clears the cache entirely.
        compute_plan_incremental(&cfg, 16, &[], &mut state).unwrap();
        assert!(state.cache().is_empty());
    }

    #[test]
    fn incremental_plan_bit_identical_across_event_stream() {
        let cfg = RushConfig::default();
        let mut jobs = mixed_fleet(30);
        let mut state = PlanState::new();
        for step in 0..24u64 {
            // One scheduling event per pass: a task completes (sample +
            // remaining), a task fails, or a job ages — the planner
            // steady state.
            let k = (step as usize * 7) % jobs.len();
            match step % 3 {
                0 => {
                    jobs[k].samples.to_mut().push(40 + (step * 13) % 60);
                    jobs[k].remaining_tasks = jobs[k].remaining_tasks.saturating_sub(1).max(1);
                }
                1 => jobs[k].failed_attempts += 1,
                _ => {
                    for j in jobs.iter_mut() {
                        j.age += 1.0;
                    }
                }
            }
            let fresh = compute_plan(&cfg, 16, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
            assert_eq!(inc, fresh, "step {step}");
        }
        // A demand-only event must actually replay, not re-peel.
        jobs[3].samples.to_mut().push(47);
        let fresh = compute_plan(&cfg, 16, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert_eq!(inc, fresh);
        assert!(state.last_stats().peel_replay.delta, "demand-only event must take the delta path");
        // A capacity change (spot revocation: 16 → 12) replays as a
        // divergence layer — still the delta path, still exact.
        let fresh = compute_plan(&cfg, 12, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, 12, &jobs, &mut state).unwrap();
        assert_eq!(inc, fresh);
        assert!(
            state.last_stats().peel_replay.delta,
            "capacity-only event must take the delta path"
        );
        // A drained cluster resets the state.
        compute_plan_incremental(&cfg, 12, &[], &mut state).unwrap();
        assert!(state.cache().is_empty());
    }

    /// `align_jobs` against a recorded `(utility, age)` list, with the tick
    /// it found.
    fn aligned_ticked(
        recorded: &[PlanInput<'_>],
        jobs: &[PlanInput<'_>],
    ) -> (Vec<Option<usize>>, Vec<usize>, f64) {
        let utilities: Vec<TimeUtility> = recorded.iter().map(|j| j.utility).collect();
        let ages: Vec<u64> = recorded.iter().map(|j| j.age.to_bits()).collect();
        let (prev, departed, tick) = align_jobs(&utilities, &ages, jobs);
        // Whatever the walk decides, it must be sound: mapped pairs are
        // equal up to the one tick, the map ascends, and every recorded job
        // is accounted for.
        let mapped: Vec<usize> = prev.iter().flatten().copied().collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]), "{prev:?}");
        assert!(tick >= 0.0);
        for (job, was) in jobs.iter().zip(&prev) {
            if let Some(i) = *was {
                let shifted = (recorded[i].age + tick).to_bits();
                assert!(job.utility == recorded[i].utility && job.age.to_bits() == shifted);
            }
        }
        let mut all: Vec<usize> = mapped.iter().chain(&departed).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..recorded.len()).collect::<Vec<_>>(), "{prev:?} / {departed:?}");
        (prev, departed, tick)
    }

    /// [`aligned_ticked`] of a pass whose clock did not move.
    fn aligned(
        recorded: &[PlanInput<'_>],
        jobs: &[PlanInput<'_>],
    ) -> (Vec<Option<usize>>, Vec<usize>) {
        let (prev, departed, tick) = aligned_ticked(recorded, jobs);
        assert_eq!(tick, 0.0);
        (prev, departed)
    }

    #[test]
    fn alignment_follows_departures_and_tail_arrivals() {
        let job = |budget: f64| input(vec![50; 4], 5, 0.0, sigmoid(budget, 3.0, 0.02));
        let (a, b, c, d) = (job(100.0), job(200.0), job(300.0), job(400.0));
        let abc = [a.clone(), b.clone(), c.clone()];
        // Same list: the identity.
        let (prev, gone) = aligned(&abc, &abc);
        assert!(is_identity(&prev, 3) && gone.is_empty());
        // First, middle, last removed.
        assert_eq!(aligned(&abc, &[b.clone(), c.clone()]), (vec![Some(1), Some(2)], vec![0]));
        assert_eq!(aligned(&abc, &[a.clone(), c.clone()]), (vec![Some(0), Some(2)], vec![1]));
        assert_eq!(aligned(&abc, &[a.clone(), b.clone()]), (vec![Some(0), Some(1)], vec![2]));
        // Adjacent identical jobs are interchangeable: losing either one
        // reads as losing the second.
        let aab = [a.clone(), a.clone(), b.clone()];
        assert_eq!(aligned(&aab, &[a.clone(), b.clone()]), (vec![Some(0), Some(2)], vec![1]));
        // A removal and an arrival in one pass.
        assert_eq!(
            aligned(&abc, &[a.clone(), c.clone(), d.clone()]),
            (vec![Some(0), Some(2), None], vec![1])
        );
        // Arrivals only, a batch at the tail.
        assert_eq!(
            aligned(&abc, &[a.clone(), b.clone(), c.clone(), d.clone(), d.clone()]),
            (vec![Some(0), Some(1), Some(2), None, None], vec![])
        );
        // A reorder is not followed: the walk never looks back, so the job
        // that moved up keeps its match and everything behind it is new.
        assert_eq!(
            aligned(&abc, &[b.clone(), a.clone(), c.clone()]),
            (vec![Some(1), None, None], vec![0, 2])
        );
        // Nothing recorded: all new.
        assert_eq!(aligned(&[], &[a, b]), (vec![None, None], vec![]));
    }

    #[test]
    fn alignment_of_a_slot_tick_maps_every_job_in_one_pass() {
        // Every age moved by the same three slots: one pass-wide tick maps
        // every job, in one walk — linear, which 200 000 jobs would not
        // survive otherwise.
        let recorded: Vec<PlanInput<'static>> = (0..200_000)
            .map(|i| input(Vec::new(), 1, (i % 50) as f64, sigmoid(100.0 + i as f64, 2.0, 0.05)))
            .collect();
        let older = |by: f64, jobs: &[PlanInput<'static>]| -> Vec<PlanInput<'static>> {
            jobs.iter().map(|j| PlanInput { age: j.age + by, ..j.clone() }).collect()
        };
        let (prev, departed, tick) = aligned_ticked(&recorded, &older(3.0, &recorded));
        assert!(is_identity(&prev, recorded.len()) && departed.is_empty());
        assert_eq!(tick, 3.0);
        // A tick with churn: the first survivor sets the tick, a departure
        // and a tail arrival align as without one.
        let job = |budget: f64, age: f64| input(vec![50; 4], 5, age, sigmoid(budget, 3.0, 0.02));
        let (a, b, c, d) = (job(100.0, 4.0), job(200.0, 2.0), job(300.0, 0.0), job(400.0, 0.0));
        let abc = [a.clone(), b.clone(), c.clone()];
        let mut now = older(5.0, &[a.clone(), c.clone()]);
        now.push(d.clone());
        assert_eq!(aligned_ticked(&abc, &now), (vec![Some(0), Some(2), None], vec![1], 5.0));
        // One tick fits every survivor: a job that aged by another amount
        // is not the job it was (here a new `b` next to a ticked one).
        let mut mixed = older(1.0, &abc);
        mixed[1].age = b.age + 2.0;
        assert_eq!(aligned_ticked(&abc, &mixed), (vec![Some(0), None, None], vec![1, 2], 1.0));
        // A clock that ran backwards matches nothing.
        let (prev, _, tick) = aligned_ticked(&abc, &older(-1.0, &abc));
        assert!(prev.iter().all(Option::is_none) && tick == 0.0);
    }

    #[test]
    fn job_churn_replays_the_peel() {
        let cfg = RushConfig::default();
        let mut jobs = mixed_fleet(60);
        let mut state = PlanState::new();
        compute_plan_incremental(&cfg, 64, &jobs, &mut state).unwrap();
        let newcomer = |k: usize| {
            input(vec![45; 6], 7 + k, 0.0, sigmoid(900.0 + 50.0 * k as f64, 2.0, 0.05))
        };
        for step in 0..12 {
            match step % 3 {
                0 => drop(jobs.remove((step * 17) % jobs.len())),
                1 => jobs.push(newcomer(step)),
                _ => {
                    jobs.remove((step * 5) % jobs.len());
                    jobs.push(newcomer(step));
                    jobs[3].samples.to_mut().push(61);
                }
            }
            let inc = compute_plan_incremental(&cfg, 64, &jobs, &mut state).unwrap();
            assert_eq!(inc, compute_plan(&cfg, 64, &jobs).unwrap(), "step {step}");
            assert!(state.last_stats().peel_replay.delta, "step {step}: churn must replay");
        }
    }

    #[test]
    fn batch_solve_matches_per_job_regardless_of_count() {
        // Each solve is a pure function of its job: the batch it rides in
        // must not change its result.
        let cfg = RushConfig::default();
        let jobs = mixed_fleet(70);
        let whole = compute_plan(&cfg, 16, &jobs).unwrap();
        for (i, job) in jobs.iter().enumerate() {
            let single = compute_plan(&cfg, 16, std::slice::from_ref(job)).unwrap();
            assert_eq!(
                (whole.entries[i].eta, whole.entries[i].task_len),
                (single.entries[0].eta, single.entries[0].task_len),
                "job {i} solve differs between batch and solo"
            );
        }
    }
}
