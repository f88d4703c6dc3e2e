//! The container-assignment (CA) pipeline: one full pass of the RUSH
//! feedback cycle.
//!
//! There is exactly one pipeline body. [`compute_plan_incremental`] runs it
//! on a caller-held [`PlanState`] (warm: the expensive stages are memoized
//! across scheduling events); [`compute_plan`] runs the same body on a cold
//! `PlanState::new()` and is therefore a pure function of its inputs. The
//! body is a sequence of stages a [`PlanState`] runs one by one, and a
//! reader that needs one job's entry runs only the stages that entry reads
//! ([`PlanState::entry`]).
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
//! estimator-visible state of a handful of jobs; the other jobs' robust
//! demands `(η, R)` are unchanged. A [`PlanState`] therefore aligns each
//! pass with the recorded one by job identity, [`PlanInput::key`], in one
//! order-preserving merge of the two key lists, used twice: the solve stage
//! merges against the last *solved* pass, the peel stage against the last
//! *peeled* one.
//!
//! The solve stage's [`PlanCache`] keeps one entry per recorded key: the
//! job's [`PlanInput::generation`], its remaining-task and failure counts,
//! the fingerprint of everything the stage reads (the sample sequence —
//! order-sensitive, the empirical estimator seeds its resampling from it —
//! the counts and the config knobs) and the solve. A job whose generation
//! and counts are its entry's hits without hashing anything. Any other job
//! is fingerprinted: it hits on its own entry's fingerprint, then on a job
//! fingerprinted earlier in this pass (a twin, or a cold-start job whose
//! borrowed pool changed for it too), and only then is it solved. Ages and
//! utilities are deliberately **not** part of the fingerprint: they only
//! enter the peel and mapping stages.
//!
//! The peel stage hands the replay a pair only if the job kept its utility
//! and aged by one pass-wide tick (the shift the first such pair implies),
//! and its demand did not cross zero (a job without demand never blocks a
//! level); any other pair is a departure plus an arrival. Two key lists in
//! ascending order align exactly, whatever arrived or departed where.
//! Either way a warm pass produces plans bit-identical to a cold one.

use crate::config::{Estimator, EstimatorKind};
use crate::mapping::{MapJob, MapStats, MapSummary, OccupationProfile};
use crate::onion::{peel_layers, JobEdit, OnionJob, PeelState, ReplayStats};
use crate::wcde::worst_case_quantile;
use crate::{CoreError, RushConfig};
use rush_estimator::DistributionEstimator;
use rush_utility::TimeUtility;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

/// Scheduler-visible state of one job, fed into the pipeline.
///
/// `samples` borrows from the caller whenever possible (the scheduler's
/// sample pools, the simulator's job views); owned vectors still convert
/// via `.into()`. One CA pass over 1000 jobs then clones no sample data
/// at all.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInput<'a> {
    /// The job's identity across passes: the planner kernel's job id, or
    /// any value a caller keeps for one job (a stable fleet index). Passes
    /// align by key, so keys should ascend in list order: a list out of
    /// order only loses reuse. Keys must be unique in a pass whenever
    /// `generation` is `Some`: the alignment pairs equal keys by position,
    /// so a duplicate could be served the solve of the job it shares its
    /// key with. Untracked jobs may share keys at the cost of reuse.
    pub key: u64,
    /// A stamp that changes whenever `samples` may have changed, or `None`
    /// (not tracked: the samples are hashed on every pass). The solve memo
    /// trusts it: for one key, an unchanged generation must come with
    /// unchanged samples.
    pub generation: Option<u64>,
    /// Observed runtimes (slots) of the job's completed tasks. May be
    /// empty (cold start) — the config's prior or a cross-job pool then
    /// substitutes.
    pub samples: Cow<'a, [u64]>,
    /// Tasks not yet started.
    pub remaining_tasks: usize,
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

/// Memo table for the per-job estimate + WCDE stage: one entry per job of
/// the last solved pass, found by the job's [`PlanInput::key`].
///
/// An entry records the job's [`PlanInput::generation`], its remaining-task
/// and failure counts, its fingerprint and its solve. The fingerprint covers
/// the job state *and* the config knobs the stage reads (θ, δ, bins,
/// estimator class and parameters, cold prior, failure awareness), and a
/// pass under other knobs reuses no entry. The table self-prunes: each pass
/// keeps only its own jobs' entries, so memory is bounded by the live job
/// set, and a departed job's entry vanishes on the next pass. In debug
/// builds every generation hit re-fingerprints the job and asserts that it
/// matches the entry.
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
    /// The [`config_tag`] the entries were solved under.
    tag: u64,
    /// The last solved pass's keys and, parallel, its entries.
    keys: Vec<u64>,
    memo: Vec<Memo>,
    hits: u64,
    misses: u64,
}

/// One job's memo entry: the [`tracked`] inputs and the fingerprint of the
/// inputs its solve was made from, and the solve.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Memo {
    tracked: (Option<u64>, usize, usize),
    fingerprint: u128,
    solve: JobSolve,
}

/// What a job's memo entry must match for its generation to vouch for it:
/// the generation and the remaining-task and failure counts.
fn tracked(job: &PlanInput<'_>) -> (Option<u64>, usize, usize) {
    (job.generation, job.remaining_tasks, job.failed_attempts)
}

impl PlanCache {
    fn new() -> Self {
        PlanCache { tag: 0, keys: Vec::new(), memo: Vec::new(), hits: 0, misses: 0 }
    }

    /// Lifetime count of per-job stage results served from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of per-job stage results actually computed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently retained (the jobs of the last solved pass).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Drops all entries (counters are kept).
    fn clear(&mut self) {
        self.keys.clear();
        self.memo.clear();
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

/// Independent lanes per stream of [`sample_hash`].
const LANES: usize = 4;

/// Two independently seeded 64-bit FNV streams over a sample sequence,
/// its length included. Each stream runs [`LANES`] chains, word `k` feeding
/// chain `k mod LANES`, and folds them with the length at the end: one
/// chain waits out every multiply before the next word, four keep the
/// multiplier busy.
fn sample_hash(samples: &[u64]) -> (u64, u64) {
    let mut lo: [Fnv; LANES] = std::array::from_fn(|k| Fnv::new(k as u64));
    let mut hi: [Fnv; LANES] = std::array::from_fn(|k| Fnv::new(HI_SEED ^ k as u64));
    let mut chunks = samples.chunks_exact(LANES);
    for chunk in &mut chunks {
        for k in 0..LANES {
            lo[k] = lo[k].u64(chunk[k]);
            hi[k] = hi[k].u64(chunk[k].rotate_left(17));
        }
    }
    for (k, &s) in chunks.remainder().iter().enumerate() {
        lo[k] = lo[k].u64(s);
        hi[k] = hi[k].u64(s.rotate_left(17));
    }
    let fold = |lanes: [Fnv; LANES], seed: u64| {
        lanes.iter().fold(Fnv::new(seed).u64(samples.len() as u64), |h, lane| h.u64(lane.0)).0
    };
    (fold(lo, 0), fold(hi, HI_SEED))
}

/// 128-bit fingerprint of one job's estimator-visible state: each half of
/// the [`sample_hash`] of its samples, mixed with the config tag, continues
/// over the remaining-task and failure counts. Key, generation, age and
/// utility are excluded on purpose — they do not enter this stage.
fn fingerprint(tag: u64, job: &PlanInput<'_>) -> u128 {
    let (s_lo, s_hi) = sample_hash(&job.samples);
    let fold = |state: u64| {
        Fnv(state ^ tag)
            .u64(job.remaining_tasks as u64)
            .u64(job.failed_attempts as u64)
            .0
    };
    (u128::from(fold(s_hi)) << 64) | u128::from(fold(s_lo))
}

/// Sizes one job from its runtime samples (steps 1–2 of the CA pass): the
/// `estimator`'s distribution of the demand of `remaining_tasks` tasks, then
/// WCDE's worst-case θ-quantile of it within the KL ball of radius δ.
/// Returns that robust demand `η` (container·slots) and the mean task
/// runtime (slots).
///
/// Planning sizes every job with it, and so does admission
/// (`rush_planner::estimate_eta`): the two never disagree about a job's
/// size.
///
/// # Errors
///
/// [`CoreError::Estimator`] when the estimate fails (e.g. no samples and no
/// prior), or WCDE's errors.
pub fn robust_demand(
    config: &RushConfig,
    estimator: &Estimator,
    samples: &[u64],
    remaining_tasks: usize,
) -> Result<(u64, f64), CoreError> {
    let est = estimator.estimate(samples, remaining_tasks)?;
    let wcde = worst_case_quantile(&est.pmf, config.theta, config.delta)?;
    Ok((wcde.eta, est.mean_task_runtime))
}

/// [`robust_demand`] plus failure inflation for one job; a job with no task
/// left needs nothing. Pure in its inputs — the contract the memo table
/// relies on.
fn solve_one(
    config: &RushConfig,
    job: &PlanInput<'_>,
    estimator: &Estimator,
) -> Result<JobSolve, CoreError> {
    let (base, mean_task_runtime) =
        robust_demand(config, estimator, &job.samples, job.remaining_tasks)?;
    let eta = if job.remaining_tasks == 0 {
        0
    } else if config.failure_aware && job.failed_attempts > 0 {
        // Inflate by the expected rework factor 1/(1−p̂) with a
        // Laplace-smoothed failure rate — the paper's stated future-work
        // extension.
        let attempts = job.failed_attempts + job.samples.len() + 1;
        let p_hat = (job.failed_attempts as f64 / attempts as f64).min(0.9);
        (base as f64 / (1.0 - p_hat)).ceil() as u64
    } else {
        base
    };
    Ok(JobSolve { eta, task_len: mean_task_runtime.ceil().max(1.0) as u64 })
}

/// Per-job stage, memoized (see [`PlanCache`]). On success the cache holds
/// exactly this pass's entries; on error only its counters moved.
fn solve_jobs(
    config: &RushConfig,
    jobs: &[PlanInput<'_>],
    estimator: &Estimator,
    cache: &mut PlanCache,
) -> Result<Vec<JobSolve>, CoreError> {
    let tag = config_tag(config);
    debug_assert!(tracked_keys_unique(jobs), "generation contract: two tracked jobs share a key");
    let keys: Vec<u64> = jobs.iter().map(|j| j.key).collect();
    let recorded: &[u64] = if cache.tag == tag { &cache.keys } else { &[] };
    let (prev, _) = merge_keys(recorded, &keys);
    // The jobs fingerprinted so far in this pass: a job its own entry does
    // not serve shares the solve of one with its fingerprint (a twin, or a
    // cold-start job borrowing the same pool) before it is solved.
    let mut content: HashMap<u128, JobSolve> = HashMap::new();
    let mut memo = Vec::with_capacity(jobs.len());
    for (job, was) in jobs.iter().zip(prev) {
        let entry = was.map(|i| cache.memo[i]);
        if let Some(m) = entry.filter(|m| job.generation.is_some() && m.tracked == tracked(job)) {
            debug_assert_eq!(
                m.fingerprint,
                fingerprint(tag, job),
                "generation contract: job {} kept generation {:?}, but its samples changed",
                job.key,
                job.generation
            );
            cache.hits += 1;
            memo.push(m);
            continue;
        }
        let fp = fingerprint(tag, job);
        let found = entry.filter(|m| m.fingerprint == fp).map(|m| m.solve);
        let solve = match found.or_else(|| content.get(&fp).copied()) {
            Some(s) => {
                cache.hits += 1;
                s
            }
            None => {
                cache.misses += 1;
                solve_one(config, job, estimator)?
            }
        };
        content.insert(fp, solve);
        memo.push(Memo { tracked: tracked(job), fingerprint: fp, solve });
    }
    let solves = memo.iter().map(|m| m.solve).collect();
    (cache.tag, cache.keys, cache.memo) = (tag, keys, memo);
    Ok(solves)
}

/// Whether no two jobs with a generation share a key (see
/// [`PlanInput::key`]).
fn tracked_keys_unique(jobs: &[PlanInput<'_>]) -> bool {
    let mut keys: Vec<u64> = jobs.iter().filter(|j| j.generation.is_some()).map(|j| j.key).collect();
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

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

/// Wall-clock phase breakdown and delta telemetry of the current pass
/// through a [`PlanState`]: the stages the calls since [`PlanState::solve`]
/// ran, summed. Times are nanoseconds.
#[derive(Default, Clone, Copy, Debug)]
pub struct PlanPhaseStats {
    /// Estimate + WCDE stage (including memo-table lookups).
    pub solve_ns: u64,
    /// Onion peel: its layers (delta replay or full re-peel) and, once it
    /// ran, its deferred phase.
    pub peel_ns: u64,
    /// Continuous time-slot mapping, as far as it ran.
    pub map_ns: u64,
    /// Target/placement bookkeeping and entry assembly.
    pub assemble_ns: u64,
    /// How the most recent peel executed (replayed / resumed / re-recorded).
    pub peel_replay: ReplayStats,
    /// What the most recent call that read the map placed: the pack
    /// positions it mapped, and those an earlier read had already mapped.
    pub map_delta: MapStats,
}

/// In debug builds, every this-many passes through one state the plan is
/// completed, recomputed on a cold state and compared — the delta structures
/// must never drift from a from-scratch pass.
const SPOT_CHECK_INTERVAL: u64 = 64;

/// Cross-pass state for [`compute_plan_incremental`]: the per-job memo
/// table and the peel trace the delta paths patch between events, plus
/// the mapper's recycled scratch buffers. A state that has seen no pass
/// (or was just [invalidated](Self::invalidate)) is *cold*: the next pass
/// computes everything and is a pure function of its inputs.
///
/// It also holds the current pass, which runs in stages, each when a reader
/// first needs it: [`Self::solve`] fixes every job's `(η, R)`, and
/// [`Self::entry`] runs the peel's layers, the deferred phase (for a lax job
/// only) and the map as far as one job's pack position. [`Self::finish`]
/// runs whatever is left. Every stage computes exactly what a complete pass
/// computes, so an entry is the same whichever reads came before it.
#[derive(Debug, Clone)]
pub struct PlanState {
    cache: PlanCache,
    peel: PeelState,
    map: OccupationProfile,
    /// The jobs of the last pass that peeled: what the peel stage aligns a
    /// pass with to tell the replay which jobs stayed, left and arrived.
    peeled: Peers,
    passes: u64,
    stats: PlanPhaseStats,
    pass: Pass,
}

/// The current pass: what its solve stage fixed, copied out of the borrowed
/// inputs, and how far the later stages have run.
#[derive(Debug, Clone, Default)]
struct Pass {
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    peers: Peers,
    remaining: Vec<u64>,
    solves: Vec<JobSolve>,
    /// Per job, once the layers ran: its target (a lax job's once the
    /// deferred phase placed it), its level, and whether it is lax.
    targets: Vec<f64>,
    levels: Vec<f64>,
    lax: Vec<bool>,
    layered: bool,
    placed: bool,
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
            peeled: Peers::default(),
            passes: 0,
            stats: PlanPhaseStats::default(),
            pass: Pass::default(),
        }
    }

    /// Drops all cross-pass structures; the next pass runs cold.
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.peel.invalidate();
        self.peeled = Peers::default();
    }

    /// The per-job estimate + WCDE memo table (hit/miss counters).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Phase breakdown of the current pass.
    pub fn last_stats(&self) -> PlanPhaseStats {
        self.stats
    }

    /// Passes fed through this state so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The solve stage: starts a pass over `jobs` and fixes every job's
    /// robust demand `η` and task runtime `R` (steps 1–2), memoized through
    /// the [`PlanCache`]. Nothing later runs until a reader needs it.
    ///
    /// # Errors
    ///
    /// Same as [`compute_plan`]. A failed solve leaves the state as it was,
    /// the previous pass included.
    pub fn solve(
        &mut self,
        config: &RushConfig,
        capacity: u32,
        jobs: &[PlanInput<'_>],
    ) -> Result<(), CoreError> {
        config.validate()?;
        if capacity == 0 {
            return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
        }
        if jobs.is_empty() {
            // A drained cluster retains no per-job state.
            self.invalidate();
            self.pass.set_jobs(config, capacity, jobs, Vec::new());
            (self.pass.layered, self.pass.placed) = (true, true);
            return self.map.start(&[], capacity);
        }
        let t0 = Instant::now();
        let solves = solve_jobs(config, jobs, &config.estimator(), &mut self.cache)?;
        self.pass.set_jobs(config, capacity, jobs, solves);
        self.passes += 1;
        self.stats = PlanPhaseStats {
            solve_ns: elapsed_ns(t0),
            peel_replay: self.peel.last_stats(),
            ..PlanPhaseStats::default()
        };
        if cfg!(debug_assertions) && self.passes.is_multiple_of(SPOT_CHECK_INTERVAL) {
            self.spot_check(config, jobs)?;
        }
        Ok(())
    }

    /// The current pass's `(η, R)` per job, in input order.
    pub fn solves(&self) -> &[JobSolve] {
        &self.pass.solves
    }

    /// Job `job`'s entry in the current pass (an index into the jobs the
    /// last [`Self::solve`] saw; `None` past them). Runs only the stages it
    /// reads: the peel's layers, the deferred phase if the job is lax, and
    /// the map up to the job's pack position — a later read resumes there.
    ///
    /// # Errors
    ///
    /// Same as [`compute_plan`]; the stages that ran are kept, and a later
    /// call retries the rest.
    pub fn entry(&mut self, job: usize) -> Result<Option<PlanEntry>, CoreError> {
        if job >= self.pass.solves.len() {
            return Ok(None);
        }
        self.layers()?;
        if self.pass.lax[job] {
            self.place_deferred();
        }
        let at = self.map.position(job).unwrap_or(usize::MAX);
        self.map_through(at.saturating_add(1));
        let t0 = Instant::now();
        let entry = self.map.summary(job).map(|s| self.pass.entry(job, s));
        self.stats.assemble_ns += elapsed_ns(t0);
        Ok(entry)
    }

    /// Runs what is left of the current pass and returns its plan.
    ///
    /// # Errors
    ///
    /// Same as [`Self::entry`].
    pub fn finish(&mut self) -> Result<Plan, CoreError> {
        self.layers()?;
        self.place_deferred();
        self.map_through(self.map.len());
        let t0 = Instant::now();
        let summaries = self.map.summaries().unwrap_or(&[]);
        let entries = summaries.iter().enumerate().map(|(i, &s)| self.pass.entry(i, s)).collect();
        self.stats.assemble_ns += elapsed_ns(t0);
        Ok(Plan { entries })
    }

    /// The peel's layers (step 3 up to its deferred phase), then the map's
    /// inputs: every strict job's target and level are fixed here, and so is
    /// the pack order. The pass is written back into the peel state, and its
    /// jobs become what the next pass aligns with.
    fn layers(&mut self) -> Result<(), CoreError> {
        if self.pass.layered {
            return Ok(());
        }
        let t0 = Instant::now();
        let Self { peel, peeled, pass, .. } = self;
        let n = pass.solves.len();
        // What the peel replay may assume is exactly what the alignment
        // found: a job mapped to a recorded one has its utility and its age
        // moved by the tick, so only its demand can differ beyond the tick;
        // everything else arrived or departed.
        let (mut prev, mut gone, tick) = align_jobs(peeled, &pass.peers);
        // A demand crossing zero changes how every probe sees the job (a job
        // without demand never blocks a level): replay it as a departure and
        // an arrival.
        for (was, job) in prev.iter_mut().zip(&pass.peers.jobs) {
            let crossed = |&i: &usize| (peeled.jobs[i].demand == 0) != (job.demand == 0);
            if let Some(i) = was.filter(crossed) {
                gone.push(i);
                *was = None;
            }
        }
        gone.sort_unstable();
        let departed: Vec<OnionJob> = gone.iter().map(|&i| peeled.jobs[i]).collect();
        let edit = JobEdit { prev: &prev, departed: &departed, tick };
        let targets =
            peel_layers(&pass.peers.jobs, pass.capacity, pass.tolerance, pass.horizon, edit, peel)?;
        peeled.clone_from(&pass.peers);
        let t1 = Instant::now();
        pass.targets.clear();
        pass.targets.resize(n, 0.0);
        pass.levels.clear();
        pass.levels.resize(n, 0.0);
        pass.lax.clear();
        pass.lax.resize(n, false);
        for t in &targets {
            pass.targets[t.job] = t.deadline;
            pass.levels[t.job] = t.level;
        }
        for &(job, level) in peel.deferred() {
            pass.levels[job] = level;
            pass.lax[job] = true;
        }
        let map_jobs = pass.map_jobs();
        self.map.start(&map_jobs, pass.capacity)?;
        pass.layered = true;
        self.stats.peel_ns += (t1 - t0).as_nanos() as u64;
        self.stats.map_ns += elapsed_ns(t1);
        self.stats.peel_replay = peel.last_stats();
        Ok(())
    }

    /// The peel's deferred phase: the lax jobs' targets. Only a lax job's
    /// entry reads them; the map never does.
    fn place_deferred(&mut self) {
        if self.pass.placed {
            return;
        }
        let t0 = Instant::now();
        for t in self.peel.place_deferred() {
            self.pass.targets[t.job] = t.deadline;
        }
        self.pass.placed = true;
        self.stats.peel_ns += elapsed_ns(t0);
    }

    /// The map (step 4) through pack position `end` (exclusive).
    fn map_through(&mut self, end: usize) {
        let t0 = Instant::now();
        self.map.map_through(end);
        self.stats.map_ns += elapsed_ns(t0);
        self.stats.map_delta = self.map.last_stats();
    }

    /// Completes the pass, recomputes it on a cold state and compares.
    fn spot_check(&mut self, config: &RushConfig, jobs: &[PlanInput<'_>]) -> Result<(), CoreError> {
        let plan = self.finish()?;
        // A cold state's pass count is 1, so this does not recurse.
        let scratch = compute_plan(config, self.pass.capacity, jobs)?;
        debug_assert_eq!(
            plan, scratch,
            "delta-plan contract: warm pass {} diverged from a cold CA pass",
            self.passes
        );
        // Both passes share the run-length mapper: hold it to the oracle too.
        let oracle = crate::mapping::map_continuous(self.map.jobs(), self.pass.capacity)?;
        debug_assert!(
            plan.entries.iter().zip(&oracle).all(|(e, p)| {
                (e.desired_now, e.planned_completion) == (p.active_at(0), p.completion)
            }),
            "mapping contract: run-length summary diverged from map_continuous"
        );
        Ok(())
    }
}

impl Pass {
    /// Starts the pass over `jobs`, whose solves are `solves`.
    fn set_jobs(&mut self, config: &RushConfig, capacity: u32, jobs: &[PlanInput<'_>], solves: Vec<JobSolve>) {
        (self.capacity, self.tolerance, self.horizon) = (capacity, config.tolerance, config.horizon);
        self.peers.fill(jobs, &solves);
        self.remaining.clear();
        self.remaining.extend(jobs.iter().map(|j| j.remaining_tasks as u64));
        self.solves = solves;
        self.targets.clear();
        self.levels.clear();
        self.lax.clear();
        (self.layered, self.placed) = (false, false);
    }

    /// The mapping inputs (step 4 preamble), in input order. A lax job's
    /// does not read its target: the deferred phase need not have run.
    fn map_jobs(&self) -> Vec<MapJob> {
        self.solves
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // Spread the robust demand over the real remaining tasks:
                // each task occupies a container for its robust runtime η/n
                // (≥ R), so the plan provisions exactly η container·slots
                // with the true task count.
                let n = self.remaining[i];
                let r = if n > 0 { s.eta.div_ceil(n).max(s.task_len) } else { s.task_len };
                if self.lax[i] {
                    // A lax job's packing ignores its target — the field is
                    // only the pack-order hint among lax jobs. Key on the
                    // job's own demand (mirroring the deferred phase's
                    // smallest-demand-first commit order) rather than its
                    // ASAP deadline: the deadline shifts for *every* deferred
                    // job whenever any demand changes, which would reshuffle
                    // who gets the leftover containers on every event.
                    MapJob { tasks: n, task_len: r, target: n.saturating_mul(r), lax: true }
                } else {
                    // Subtract `R` from the deadline, compensating the
                    // Theorem 3 `T + R` slack (paper Sec. III-C).
                    let shaved = (self.targets[i] - r as f64).max(1.0);
                    MapJob { tasks: n, task_len: r, target: shaved as u64, lax: false }
                }
            })
            .collect()
    }

    /// Step 5 for one job, whose map summary is `s`.
    fn entry(&self, i: usize, s: MapSummary) -> PlanEntry {
        PlanEntry {
            eta: self.solves[i].eta,
            task_len: self.solves[i].task_len,
            target: self.targets[i],
            level: self.levels[i],
            desired_now: s.desired_now,
            planned_completion: s.completion,
            impossible: self.levels[i] <= 1e-9,
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Runs one CA pass with the expensive stages memoized across events: the
/// per-job estimate + WCDE stage through [`PlanCache`] and the onion peel
/// through delta replay ([`crate::onion::peel_incremental`]). The continuous
/// mapping runs on a resumable cursor ([`OccupationProfile`]) over buffers
/// recycled in the state, to the end. It is [`PlanState::solve`], then
/// [`PlanState::finish`].
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
    state.solve(config, capacity, jobs)?;
    state.finish()
}

/// A pass's jobs as the peel stage sees them — what it peels, and what the
/// next pass aligns with: per job its key, and its robust demand, utility
/// and age.
#[derive(Debug, Clone, Default)]
struct Peers {
    keys: Vec<u64>,
    jobs: Vec<OnionJob>,
}

impl Peers {
    /// Refills the buffers with `jobs`'s keys and peel jobs, whose robust
    /// demands are `solves`'s.
    fn fill(&mut self, jobs: &[PlanInput<'_>], solves: &[JobSolve]) {
        self.keys.clear();
        self.keys.extend(jobs.iter().map(|j| j.key));
        self.jobs.clear();
        self.jobs.extend(jobs.iter().zip(solves).map(|(j, s)| OnionJob {
            demand: s.eta,
            utility: j.utility,
            age: j.age,
        }));
    }
}

/// Aligns a pass's jobs with the recorded pass's: [`merge_keys`] pairs them
/// by key, and a pair stands only if the job kept its utility and its age
/// is the recorded one moved by the pass-wide `tick`, bit for bit. The tick
/// is the shift the first standing pair implies (0 when none stands) — both
/// adapters age every job by the same whole slots, so one shift fits every
/// survivor. A pair that does not stand is a departure plus an arrival.
/// Returns, per job, the recorded index it continues (`None`: it arrived),
/// the recorded indices no job continues (they departed), ascending, and
/// the tick.
fn align_jobs(recorded: &Peers, now: &Peers) -> (Vec<Option<usize>>, Vec<usize>, f64) {
    let (mut prev, mut departed) = merge_keys(&recorded.keys, &now.keys);
    let mut tick = None;
    for (was, job) in prev.iter_mut().zip(&now.jobs) {
        let Some(i) = *was else { continue };
        let then = &recorded.jobs[i];
        let shift = tick.unwrap_or(job.age - then.age);
        if shift >= 0.0 && (then.age + shift).to_bits() == job.age.to_bits() && job.utility == then.utility {
            tick = Some(shift);
        } else {
            departed.push(i);
            *was = None;
        }
    }
    departed.sort_unstable();
    (prev, departed, tick.unwrap_or(0.0))
}

/// Aligns a pass's job keys with a recorded pass's in one order-preserving
/// merge: per job, the recorded index with its key (`None`: it arrived), and
/// the recorded indices no job took (they departed), ascending. Two lists in
/// ascending key order align exactly, whatever arrived or departed where; a
/// list out of order only loses matches, and every match pairs equal keys.
fn merge_keys(recorded: &[u64], keys: &[u64]) -> (Vec<Option<usize>>, Vec<usize>) {
    let (mut departed, mut at) = (Vec::new(), 0);
    let prev = keys
        .iter()
        .map(|&key| {
            while recorded.get(at).is_some_and(|&r| r < key) {
                departed.push(at);
                at += 1;
            }
            let found = recorded.get(at) == Some(&key);
            at += usize::from(found);
            found.then(|| at - 1)
        })
        .collect();
    departed.extend(at..recorded.len());
    (prev, departed)
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
            key: 0,
            generation: None,
            samples: samples.into(),
            remaining_tasks: remaining,
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
                j.key = i as u64;
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

    /// The fingerprint is the content of a job's samples, not where they
    /// live: a job borrowing a pooled slice and one owning a copy share a
    /// solve, in one pass or across passes.
    #[test]
    fn a_borrowed_pool_and_an_owned_copy_share_a_solve() {
        let pool: Vec<u64> = (0..300).map(|i| 40 + i % 37).collect();
        let u = sigmoid(900.0, 3.0, 0.02);
        let borrowed = PlanInput { samples: Cow::Borrowed(&pool), ..input(Vec::new(), 12, 0.0, u) };
        let owned = PlanInput { key: 1, ..input(pool.clone(), 12, 0.0, u) };
        let tag = config_tag(&RushConfig::default());
        let print = fingerprint(tag, &borrowed);
        assert_eq!(print, fingerprint(tag, &owned));
        // Anything the stage reads still moves it.
        assert_ne!(print, fingerprint(tag, &input([&pool[..], &[41]].concat(), 12, 0.0, u)));
        assert_ne!(print, fingerprint(tag, &input(pool.clone(), 13, 0.0, u)));
        // One pass over both costs one miss; a pass that swaps which of them
        // borrows recomputes nothing.
        let mut state = PlanState::new();
        let mut pass = |jobs: &[PlanInput<'_>]| {
            compute_plan_incremental(&RushConfig::default(), 16, jobs, &mut state).unwrap();
            (state.cache().misses(), state.cache().hits())
        };
        assert_eq!(pass(&[borrowed.clone(), owned.clone()]), (1, 1));
        let swapped = [
            PlanInput { samples: pool.clone().into(), ..borrowed },
            PlanInput { samples: Cow::Borrowed(&pool), ..owned },
        ];
        assert_eq!(pass(&swapped), (1, 3));
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
        // from-scratch pass, even for jobs whose generation vouches for them.
        let tracked: Vec<PlanInput<'_>> =
            jobs[..5].iter().map(|j| PlanInput { generation: Some(7), ..j.clone() }).collect();
        compute_plan_incremental(&cfg, 16, &tracked, &mut state).unwrap();
        let misses = state.cache().misses();
        let cfg2 = cfg.with_theta(0.95);
        let p = compute_plan_incremental(&cfg2, 16, &tracked, &mut state).unwrap();
        assert_eq!(p, compute_plan(&cfg2, 16, &tracked).unwrap());
        assert_eq!(state.cache().misses(), misses + 5, "every job re-solved under the new θ");
        // An emptied cluster clears the cache entirely.
        compute_plan_incremental(&cfg, 16, &[], &mut state).unwrap();
        assert!(state.cache().is_empty());
    }

    /// Feeds a stream of scheduling events through one state and compares
    /// every pass with a cold one. With `tracked`, every job carries a
    /// generation that, as in the kernel, moves only when its samples do:
    /// a failure moves only a count, and an aging pass is a generation hit
    /// for every job.
    fn event_stream_matches_cold_passes(tracked: bool) {
        let cfg = RushConfig::default();
        let mut jobs = mixed_fleet(30);
        let mut stamp = jobs.len() as u64;
        let mut new_samples = |job: &mut PlanInput<'_>, sample: u64| {
            job.samples.to_mut().push(sample);
            if tracked {
                stamp += 1;
                job.generation = Some(stamp);
            }
        };
        if tracked {
            for j in jobs.iter_mut() {
                j.generation = Some(j.key);
            }
        }
        let mut state = PlanState::new();
        for step in 0..24u64 {
            // One scheduling event per pass: a task completes (sample +
            // remaining), a task fails, or a job ages — the planner
            // steady state.
            let k = (step as usize * 7) % jobs.len();
            let misses = state.cache().misses();
            match step % 3 {
                0 => {
                    new_samples(&mut jobs[k], 40 + (step * 13) % 60);
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
            if step % 3 == 2 {
                assert_eq!(state.cache().misses(), misses, "step {step}: an aging pass solves nothing");
            }
        }
        // A demand-only event must actually replay, not re-peel.
        new_samples(&mut jobs[3], 47);
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

    #[test]
    fn incremental_plan_bit_identical_across_event_stream() {
        event_stream_matches_cold_passes(false);
    }

    #[test]
    fn tracked_plan_bit_identical_across_event_stream() {
        event_stream_matches_cold_passes(true);
    }

    /// Two tracked jobs may not share a key: the alignment could hand one
    /// the other's solve.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two tracked jobs share a key")]
    fn tracked_jobs_sharing_a_key_break_the_contract() {
        let mut jobs = mixed_fleet(3);
        for j in jobs.iter_mut() {
            (j.key, j.generation) = (5, Some(1));
        }
        let _ = compute_plan(&RushConfig::default(), 16, &jobs);
    }

    /// `align_jobs` against a recorded `(key, utility, age)` list, with the
    /// tick it found.
    fn aligned_ticked(
        recorded: &[PlanInput<'_>],
        jobs: &[PlanInput<'_>],
    ) -> (Vec<Option<usize>>, Vec<usize>, f64) {
        let (mut was, mut now) = (Peers::default(), Peers::default());
        let solves = [JobSolve { eta: 1, task_len: 1 }].repeat(recorded.len().max(jobs.len()));
        was.fill(recorded, &solves);
        now.fill(jobs, &solves);
        let (prev, departed, tick) = align_jobs(&was, &now);
        // Whatever the alignment decides, it must be sound: mapped pairs are
        // the same key, equal up to the one tick, the map ascends, and every
        // recorded job is accounted for.
        let mapped: Vec<usize> = prev.iter().flatten().copied().collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]), "{prev:?}");
        assert!(tick >= 0.0);
        for (job, was) in jobs.iter().zip(&prev) {
            if let Some(i) = *was {
                let shifted = (recorded[i].age + tick).to_bits();
                assert_eq!(job.key, recorded[i].key);
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

    /// A job keyed `key` with a sigmoid budget of `budget`.
    fn keyed(key: u64, budget: f64, age: f64) -> PlanInput<'static> {
        PlanInput { key, ..input(vec![50; 4], 5, age, sigmoid(budget, 3.0, 0.02)) }
    }

    #[test]
    fn alignment_follows_departures_and_arrivals_anywhere() {
        let (a, b, c, d) = (keyed(1, 100.0, 0.0), keyed(2, 200.0, 0.0), keyed(4, 300.0, 0.0), keyed(5, 400.0, 0.0));
        let abc = [a.clone(), b.clone(), c.clone()];
        // Same list: the identity.
        assert_eq!(aligned(&abc, &abc), (vec![Some(0), Some(1), Some(2)], vec![]));
        // First, middle, last removed.
        assert_eq!(aligned(&abc, &[b.clone(), c.clone()]), (vec![Some(1), Some(2)], vec![0]));
        assert_eq!(aligned(&abc, &[a.clone(), c.clone()]), (vec![Some(0), Some(2)], vec![1]));
        assert_eq!(aligned(&abc, &[a.clone(), b.clone()]), (vec![Some(0), Some(1)], vec![2]));
        // Identical jobs are told apart by key: losing the first reads as
        // losing the first.
        let twin = PlanInput { key: 3, ..b.clone() };
        assert_eq!(aligned(&[b.clone(), twin.clone()], std::slice::from_ref(&twin)), (vec![Some(1)], vec![0]));
        // A removal and an arrival in one pass.
        assert_eq!(
            aligned(&abc, &[a.clone(), c.clone(), d.clone()]),
            (vec![Some(0), Some(2), None], vec![1])
        );
        // Arrivals only, a batch at the tail.
        let e = keyed(6, 500.0, 0.0);
        assert_eq!(
            aligned(&abc, &[a.clone(), b.clone(), c.clone(), d.clone(), e]),
            (vec![Some(0), Some(1), Some(2), None, None], vec![])
        );
        // A job that re-enters mid-list keeps every survivor behind it mapped.
        let mid = keyed(3, 250.0, 0.0);
        assert_eq!(
            aligned(&abc, &[a.clone(), b.clone(), mid, c.clone()]),
            (vec![Some(0), Some(1), None, Some(2)], vec![])
        );
        // A key that kept its place but changed its utility is a departure
        // and an arrival.
        let reborn = PlanInput { utility: sigmoid(999.0, 1.0, 0.1), ..b.clone() };
        assert_eq!(
            aligned(&abc, &[a.clone(), reborn, c.clone()]),
            (vec![Some(0), None, Some(2)], vec![1])
        );
        // A list out of key order loses matches, never soundness.
        assert_eq!(
            aligned(&abc, &[b.clone(), a.clone(), c.clone()]),
            (vec![Some(1), None, Some(2)], vec![0])
        );
        // Nothing recorded: all new.
        assert_eq!(aligned(&[], &[a, b]), (vec![None, None], vec![]));
    }

    #[test]
    fn alignment_of_a_slot_tick_maps_every_job_in_one_pass() {
        // Every age moved by the same three slots: one pass-wide tick maps
        // every job, in one merge — linear, which 200 000 jobs would not
        // survive otherwise.
        let recorded: Vec<PlanInput<'static>> = (0..200_000)
            .map(|i| PlanInput {
                key: i,
                ..input(Vec::new(), 1, (i % 50) as f64, sigmoid(100.0 + i as f64, 2.0, 0.05))
            })
            .collect();
        let older = |by: f64, jobs: &[PlanInput<'static>]| -> Vec<PlanInput<'static>> {
            jobs.iter().map(|j| PlanInput { age: j.age + by, ..j.clone() }).collect()
        };
        let (prev, departed, tick) = aligned_ticked(&recorded, &older(3.0, &recorded));
        assert!(prev.iter().enumerate().all(|(j, &was)| was == Some(j)) && departed.is_empty());
        assert_eq!(tick, 3.0);
        // A tick with churn: the first survivor sets the tick, a departure
        // and a tail arrival align as without one.
        let (a, b, c, d) = (keyed(1, 100.0, 4.0), keyed(2, 200.0, 2.0), keyed(3, 300.0, 0.0), keyed(4, 400.0, 0.0));
        let abc = [a.clone(), b.clone(), c.clone()];
        let mut now = older(5.0, &[a.clone(), c.clone()]);
        now.push(d.clone());
        assert_eq!(aligned_ticked(&abc, &now), (vec![Some(0), Some(2), None], vec![1], 5.0));
        // One tick fits every survivor: a job that aged by another amount
        // is not the job it was.
        let mut mixed = older(1.0, &abc);
        mixed[1].age = b.age + 2.0;
        assert_eq!(aligned_ticked(&abc, &mixed), (vec![Some(0), None, Some(2)], vec![1], 1.0));
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
        let newcomer = |k: usize| PlanInput {
            key: 100 + k as u64,
            ..input(vec![45; 6], 7 + k, 0.0, sigmoid(900.0 + 50.0 * k as f64, 2.0, 0.05))
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
        // A job cancelled and registered again under its key re-enters
        // mid-list: the pass replays (the alignment test pins that every
        // survivor behind it keeps its match).
        jobs.retain(|j| j.key != 10);
        compute_plan_incremental(&cfg, 64, &jobs, &mut state).unwrap();
        let at = jobs.iter().position(|j| j.key > 10).unwrap();
        jobs.insert(at, PlanInput { utility: sigmoid(333.0, 2.0, 0.05), ..mixed_fleet(11)[10].clone() });
        let inc = compute_plan_incremental(&cfg, 64, &jobs, &mut state).unwrap();
        assert_eq!(inc, compute_plan(&cfg, 64, &jobs).unwrap());
        assert!(state.last_stats().peel_replay.delta, "a mid-list arrival replays");
    }

    /// Two jobs with the same estimator inputs in one pass cost one miss:
    /// the second shares the first's solve. Every job still gets the solve
    /// it would get alone.
    #[test]
    fn twin_jobs_in_one_pass_cost_one_miss() {
        let cfg = RushConfig::default();
        let est = cfg.estimator();
        let mut jobs = mixed_fleet(12);
        // Same samples, remaining tasks and failures as job 1; the key, age
        // and utility the fingerprint leaves out differ.
        jobs.push(PlanInput {
            key: 12,
            age: 999.0,
            utility: sigmoid(50.0, 2.0, 0.3),
            ..jobs[1].clone()
        });
        let mut cache = PlanCache::new();
        let solved = solve_jobs(&cfg, &jobs, &est, &mut cache).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (12, 1));
        assert_eq!(solved[12], solved[1]);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(solved[i], solve_one(&cfg, job, &est).unwrap(), "job {i}");
        }
        // A twin arriving later shares the solve of a job its own entry serves.
        jobs.push(PlanInput { key: 13, ..jobs[4].clone() });
        solve_jobs(&cfg, &jobs, &est, &mut cache).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (12, 1 + 14));
    }

    /// A pass that fails mid-solve leaves the memo as it was, still keyed to
    /// the right solves: neither the solves it finished nor its keys land.
    #[test]
    fn failed_pass_keeps_the_memo() {
        use rush_estimator::EstimatorError;
        let cfg = RushConfig::default();
        let est = cfg.estimator();
        let tag = config_tag(&cfg);
        let jobs: Vec<PlanInput<'_>> =
            mixed_fleet(8).into_iter().map(|j| PlanInput { generation: Some(1), ..j }).collect();
        let mut cache = PlanCache::new();
        let first = solve_jobs(&cfg, &jobs, &est, &mut cache).unwrap();
        let recorded = (cache.keys.clone(), cache.memo.clone());
        // A changed job, then a job this pass solves, then one no estimator
        // can size.
        let mut failing = jobs.clone();
        failing[2].samples.to_mut().push(77);
        failing[2].generation = Some(2);
        failing.push(PlanInput { key: 8, ..input(vec![61, 62, 63], 7, 0.0, sigmoid(400.0, 1.0, 0.05)) });
        failing.push(PlanInput { key: 9, ..input(vec![1 << 53], 1, 0.0, sigmoid(400.0, 1.0, 0.05)) });
        let misses = cache.misses();
        let err = solve_jobs(&cfg, &failing, &est, &mut cache).unwrap_err();
        assert!(
            matches!(err, CoreError::Estimator(EstimatorError::RangeTooLarge { .. })),
            "{err:?}"
        );
        assert_eq!(cache.misses(), misses + 3, "two jobs solved, the oversized one tried");
        assert_eq!((cache.keys.clone(), cache.memo.clone()), recorded);
        for (job, m) in jobs.iter().zip(&cache.memo) {
            assert_eq!(m.fingerprint, fingerprint(tag, job));
            assert_eq!(m.solve, solve_one(&cfg, job, &est).unwrap());
        }
        // The next pass serves the unchanged fleet from the memo alone.
        let misses = cache.misses();
        assert_eq!(solve_jobs(&cfg, &jobs, &est, &mut cache).unwrap(), first);
        assert_eq!(cache.misses(), misses);
    }

    /// A generation is trusted: a job whose samples changed under the
    /// generation it had is served its stale solve in release builds, and
    /// debug builds refuse it, naming the job.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "generation contract: job 5 kept generation Some(3)")]
    fn contract_layer_catches_samples_changed_under_a_kept_generation() {
        let cfg = RushConfig::default();
        let mut jobs: Vec<PlanInput<'_>> =
            mixed_fleet(8).into_iter().map(|j| PlanInput { generation: Some(3), ..j }).collect();
        let mut state = PlanState::new();
        compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        jobs[5].samples.to_mut().push(90);
        let _ = compute_plan_incremental(&cfg, 16, &jobs, &mut state);
    }
}
