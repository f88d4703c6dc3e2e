//! The onion-peeling algorithm — Algorithm 3, solving the Time-Aware
//! Scheduling (TAS) problem.
//!
//! With robust demands `η_i` fixed by WCDE, TAS becomes deterministic:
//! choose target completion times maximizing the **lexicographic max-min**
//! of the utility vector. The peeling loop maximizes the minimum utility by
//! bisection over the level `L` — a level is feasible iff every job can
//! finish by its induced deadline `U_i⁻¹(L)`, which Theorem 2 reduces to
//! the prefix-capacity condition
//!
//! ```text
//! Σ_{i∈N_k} η_i + G(U_k⁻¹(L)) ≤ C · U_k⁻¹(L)   for every prefix k
//! ```
//!
//! (jobs sorted by deadline; `G(t)` counts demand already committed to
//! previously peeled jobs with targets ≤ `t`). The bottleneck job of the
//! last infeasible level has reached its best achievable utility: it is
//! *peeled* — its target fixed, its demand added to `G` — and the loop
//! continues on the remaining jobs, one onion layer at a time.

use crate::CoreError;
use rush_utility::{LatestTime, Utility};

/// One job as seen by the peeling algorithm.
#[derive(Clone, Copy)]
pub struct OnionJob<'a> {
    /// Robust remaining demand `η` in container·slots (WCDE output).
    pub demand: u64,
    /// The job's completion-time utility (already shifted to "time from
    /// now" if the job has been running for a while).
    pub utility: &'a dyn Utility,
}

impl std::fmt::Debug for OnionJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnionJob")
            .field("demand", &self.demand)
            .field("sup", &self.utility.sup())
            .finish()
    }
}

/// A peeled job's target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Index of the job in the input slice.
    pub job: usize,
    /// The utility level at which the job peeled (its max-min layer).
    pub level: f64,
    /// Target completion time `T_i` in slots from now.
    pub deadline: f64,
    /// Whether the job is *deadline-free* at its level (flat utility or
    /// nothing left to gain): the mapping packs such jobs into leftover
    /// capacity instead of reserving for `deadline`.
    pub lax: bool,
}

/// A [`Utility`] shifted by the job's age: if a job arrived `shift` slots
/// ago, completing `t` slots *from now* completes it at `shift + t` from
/// arrival.
///
/// This adapter is what lets the static TAS formulation re-run inside the
/// dynamic feedback cycle: every scheduling event re-poses the problem in
/// "time from now" coordinates.
#[derive(Clone, Copy)]
pub struct Shifted<'a> {
    base: &'a dyn Utility,
    shift: f64,
}

impl std::fmt::Debug for Shifted<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shifted").field("shift", &self.shift).finish()
    }
}

impl<'a> Shifted<'a> {
    /// Wraps `base`, measuring time from `shift` slots after the job's
    /// arrival.
    pub fn new(base: &'a dyn Utility, shift: f64) -> Self {
        Shifted { base, shift: shift.max(0.0) }
    }
}

impl Utility for Shifted<'_> {
    fn utility(&self, t: f64) -> f64 {
        self.base.utility(self.shift + t.max(0.0))
    }

    fn inf(&self) -> f64 {
        self.base.inf()
    }

    fn latest_time(&self, level: f64) -> LatestTime {
        match self.base.latest_time(level) {
            LatestTime::At(t) if t >= self.shift => LatestTime::At(t - self.shift),
            // The level was only achievable before now.
            LatestTime::At(_) => LatestTime::Never,
            other => other,
        }
    }
}

/// Outcome of one feasibility probe, annotated with the evidence the
/// delta-replay engine ([`peel_incremental`]) needs to re-verify the probe
/// after a demand change without re-running the sweep.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// Every prefix-capacity boundary holds; `margin` is the minimum slack
    /// `C·t + ε − (cum + G(t))` over all boundaries the sweep checked
    /// (`+∞` when no boundary constrains the level).
    Feasible { margin: f64 },
    /// A boundary failed. `boundary` is the time at which the violation
    /// was detected; `prefix_margin` is the minimum slack over the
    /// boundaries checked *before* it (so a bounded demand increase
    /// provably cannot move the first violation earlier); `never` marks
    /// the pre-sweep case of a positive-demand job that cannot reach the
    /// level at all (no boundary involved).
    Infeasible { bottleneck: usize, boundary: f64, prefix_margin: f64, never: bool },
}

/// Sorted index over committed `(deadline, demand)` reservations with
/// prefix sums for cumulative-demand (`G(t)`) queries. Maintained
/// *incrementally*: peeling a job binary-inserts one reservation instead of
/// re-sorting the whole committed set every layer.
#[derive(Default)]
struct CommittedIndex {
    times: Vec<f64>,
    cums: Vec<u64>,
    /// Bumped on every mutation; lets a [`SweepCursor`] detect that the
    /// committed prefix it was captured against is unchanged.
    epoch: u64,
}

impl CommittedIndex {
    /// Adds a reservation, keeping `times` sorted (ties in commit order)
    /// and `cums` the running prefix demand.
    fn insert(&mut self, t: f64, demand: u64) {
        self.epoch += 1;
        // Tail append: reservations created by the deferred phase land at
        // or past the current maximum deadline (each packs after the load
        // that precedes it), so the O(len) shift-and-bump is skipped.
        if self.times.last().is_none_or(|&last| t >= last) {
            let before = self.cums.last().copied().unwrap_or(0);
            self.times.push(t);
            self.cums.push(before + demand);
            return;
        }
        let pos = self.times.partition_point(|&x| x <= t);
        self.times.insert(pos, t);
        let before = if pos == 0 { 0 } else { self.cums[pos - 1] };
        self.cums.insert(pos, before + demand);
        for c in &mut self.cums[pos + 1..] {
            *c += demand;
        }
    }

    /// Rebuilds the index from an unsorted committed list. A stable sort
    /// by time keeps ties in commit order — bitwise the same index an
    /// incremental insert sequence would have produced (inserts land
    /// *after* existing ties).
    fn rebuild(&mut self, committed: &[(f64, u64)]) {
        self.epoch += 1;
        let mut sorted: Vec<(f64, u64)> = committed.to_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.times.clear();
        self.cums.clear();
        let mut cum = 0u64;
        for (t, e) in sorted {
            cum += e;
            self.times.push(t);
            self.cums.push(cum);
        }
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

/// Reusable probe state: the `(deadline, job)` buffer persists across
/// probes and layers, so a feasibility check allocates nothing, and because
/// neighboring levels barely change the deadline order, the stable sort's
/// run detection makes the per-probe re-sort nearly linear.
///
/// Entries mirror the active set exactly; jobs whose deadline is `Never`
/// at the probed level keep a sentinel (`∞` for demand-free jobs — they
/// never block) so they are not lost for later, lower-level probes.
#[derive(Default)]
struct ProbeScratch {
    deadlines: Vec<(f64, usize)>,
    /// Deadline memo: when `filled`, the entries hold the *sorted* deadlines
    /// of a previous probe at level `level_bits` over a superset of the
    /// current entries. Consecutive layers overwhelmingly probe the exact
    /// same level (`lo + tolerance` with an unchanged floor), so the memo
    /// skips both the per-job utility inversion (the transcendental hot
    /// spot) and the re-sort: `remove` preserves order and values.
    level_bits: u64,
    filled: bool,
    /// Live entries. Removal tombstones an entry in place (job index set
    /// to the [`DEAD`] sentinel) instead of compacting the vector, so a
    /// peel/defer cascade removes in O(1) per layer rather than O(n);
    /// sweeps skip tombstones, preserving the compact scan's order and
    /// values exactly.
    alive: usize,
    /// Job index → position in `deadlines`; rebuilt with each sort (memo
    /// refill), valid while `filled` — tombstoning never moves entries.
    pos_of: Vec<u32>,
    /// Resume point for the merged sweep (see [`SweepCursor`]).
    cursor: SweepCursor,
}

/// Tombstone marker for a removed `ProbeScratch` entry.
const DEAD: usize = usize::MAX;

/// Snapshot of the merged sweep's running state, captured just *before*
/// the entry whose prefix-capacity check failed. While the memoized
/// deadline order, every entry ahead of `pos`, and the committed index are
/// all unchanged, the next probe at the same level re-enters the sweep at
/// `pos` instead of position 0 — the skipped prefix would recompute
/// bit-identical sums, margins, and boundary checks, so resuming is
/// indistinguishable from a full sweep. A defer cascade (hundreds of
/// consecutive same-level probes, each tombstoning exactly the entry at
/// `pos` and committing nothing) therefore sweeps each entry O(1) times
/// overall instead of once per layer.
///
/// Invalidated by: a memo refill (re-sort moves entries), a removal at any
/// position other than `pos`, tombstone compaction (positions shift), and
/// any committed-index mutation (tracked via its epoch).
#[derive(Clone, Copy, Default)]
struct SweepCursor {
    valid: bool,
    /// Entry position the sweep resumes at.
    pos: u32,
    /// Committed-boundary pointer at the resume point.
    ci: u32,
    /// Active demand accumulated strictly before `pos` (the violating
    /// entry's own demand is *excluded* — it is re-added when the resumed
    /// sweep processes `pos`, or skipped if the entry was tombstoned).
    cum: u64,
    /// Minimum slack over all boundaries checked before the capture.
    margin: f64,
    /// Last live active entry before `pos` (`usize::MAX` = none).
    last_active: usize,
    /// [`CommittedIndex::epoch`] at capture time.
    committed_epoch: u64,
}

impl ProbeScratch {
    fn fill(&mut self, jobs: &[OnionJob<'_>]) {
        self.deadlines = (0..jobs.len()).map(|i| (0.0, i)).collect();
        self.alive = self.deadlines.len();
        self.filled = false;
        self.cursor.valid = false;
    }

    /// Fills from an explicit active set (delta-replay materialization).
    /// Entry order does not matter for probe results — `check_level`
    /// re-sorts by a total order — but ascending index matches what the
    /// from-scratch loop's removals would have left.
    fn fill_active(&mut self, active: &[usize]) {
        self.deadlines.clear();
        self.deadlines.extend(active.iter().filter(|&&i| i != DEAD).map(|&i| (0.0, i)));
        self.alive = self.deadlines.len();
        self.filled = false;
        self.cursor.valid = false;
    }

    fn remove(&mut self, job: usize) {
        if self.filled {
            // Sorted + position-indexed: tombstone in place.
            let pos = self.pos_of[job] as usize;
            debug_assert_eq!(self.deadlines[pos].1, job, "stale scratch position index");
            self.deadlines[pos].1 = DEAD;
            self.alive -= 1;
            // A removal at or past the cursor's entry keeps the resumable
            // prefix intact (the resumed sweep skips tombstones); one
            // *before* it changes the prefix sums, so drop the cursor.
            if self.cursor.valid && pos < self.cursor.pos as usize {
                self.cursor.valid = false;
            }
            // Amortized compaction: once tombstones outnumber live entries,
            // drop them — order-preserving, so the sorted memo stays valid —
            // and rebuild the position index. Keeps probe sweeps O(live)
            // while removal stays O(1) amortized.
            if self.deadlines.len() > 2 * self.alive + 16 {
                self.deadlines.retain(|&(_, i)| i != DEAD);
                for (pos, &(_, i)) in self.deadlines.iter().enumerate() {
                    self.pos_of[i] = pos as u32;
                }
                self.cursor.valid = false;
            }
        } else {
            self.deadlines.retain(|&(_, i)| i != job);
            self.alive -= 1;
            self.cursor.valid = false;
        }
    }
}

/// Tests whether level `L` is feasible for the active jobs (the entries of
/// `scratch`) given the committed reservations of already-peeled jobs.
fn check_level(
    jobs: &[OnionJob<'_>],
    scratch: &mut ProbeScratch,
    committed: &CommittedIndex,
    capacity: u32,
    horizon: f64,
    level: f64,
) -> Check {
    // Deadline per active job; a `Never` with positive demand is an
    // immediate bottleneck (it cannot reach the level no matter what).
    // The lowest-indexed such job is reported, matching a scan of the
    // active set in index order.
    //
    // Memo hit: a previous probe at these exact level bits already filled
    // and sorted the deadlines (over a superset of the current entries —
    // removals preserve both), and proved no entry is a never-bottleneck;
    // the inversion and sort are skipped wholesale.
    if !(scratch.filled && scratch.level_bits == level.to_bits()) {
        scratch.cursor.valid = false;
        let mut never: Option<usize> = None;
        for slot in &mut scratch.deadlines {
            let i = slot.1;
            if i == DEAD {
                // Tombstone: park past every finite deadline so the sort
                // keeps all live entries in front.
                slot.0 = f64::INFINITY;
                continue;
            }
            match jobs[i].utility.latest_time(level).deadline_within(horizon) {
                Some(d) => slot.0 = d,
                None => {
                    if jobs[i].demand > 0 {
                        never = Some(never.map_or(i, |b| b.min(i)));
                    }
                    // Demand-free jobs never block a layer: park them past
                    // every finite deadline.
                    slot.0 = f64::INFINITY;
                }
            }
        }
        if let Some(b) = never {
            scratch.filled = false;
            return Check::Infeasible {
                bottleneck: b,
                boundary: f64::NAN,
                prefix_margin: 0.0,
                never: true,
            };
        }
        scratch.deadlines.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scratch.pos_of.resize(jobs.len(), 0);
        for (pos, &(_, i)) in scratch.deadlines.iter().enumerate() {
            if i != DEAD {
                scratch.pos_of[i] = pos as u32;
            }
        }
        scratch.level_bits = level.to_bits();
        scratch.filled = true;
    }
    // Merged sweep over active deadlines AND committed reservation times.
    // Verifying only the active prefixes is not enough: an active job whose
    // deadline lands just *before* a committed reservation adds its demand
    // to that reservation's prefix and can break it — feasibility is not
    // monotone in the level once reservations exist, so every boundary
    // must be re-checked.
    let c = capacity as f64;
    // Sweep resume: a valid cursor means every entry ahead of `pos`, the
    // memoized order, and the committed index are untouched since the last
    // same-level probe captured its state — re-sweeping that prefix would
    // recompute these exact values, so skip straight to `pos`.
    let resume = scratch.cursor;
    let (start, mut cum, mut ci, mut margin, mut last_active) =
        if resume.valid && resume.committed_epoch == committed.epoch {
            (
                resume.pos as usize,
                resume.cum,
                resume.ci as usize,
                resume.margin,
                (resume.last_active != DEAD).then_some(resume.last_active),
            )
        } else {
            (0, 0u64, 0usize, f64::INFINITY, None)
        };
    for pos in start..scratch.deadlines.len() {
        let (d, i) = scratch.deadlines[pos];
        if i == DEAD {
            continue;
        }
        if d.is_infinite() {
            // Demand-free sentinel: contributes nothing, checks nothing.
            break;
        }
        while ci < committed.times.len() && committed.times[ci] < d {
            let bound = c * committed.times[ci] + 1e-9;
            let load = (cum + committed.cums[ci]) as f64;
            if load > bound {
                // The blamed entry sits somewhere *before* this one — the
                // upcoming removal won't be at `pos`, so no resume point.
                scratch.cursor.valid = false;
                return Check::Infeasible {
                    bottleneck: last_active.unwrap_or(i),
                    boundary: committed.times[ci],
                    prefix_margin: margin,
                    never: false,
                };
            }
            margin = margin.min(bound - load);
            ci += 1;
        }
        cum += jobs[i].demand;
        // G(d): the sweep pointer already skipped times < d; peek past the
        // ties at exactly d without disturbing it.
        let mut cj = ci;
        while cj < committed.times.len() && committed.times[cj] <= d {
            cj += 1;
        }
        let g = if cj == 0 { 0 } else { committed.cums[cj - 1] };
        let bound = c * d + 1e-9;
        let load = (cum + g) as f64;
        if load > bound {
            // Capture the state just before this entry: if the caller
            // defers/peels this bottleneck (the common cascade), the next
            // probe at this level resumes here.
            scratch.cursor = SweepCursor {
                valid: true,
                pos: pos as u32,
                ci: ci as u32,
                cum: cum - jobs[i].demand,
                margin,
                last_active: last_active.unwrap_or(DEAD),
                committed_epoch: committed.epoch,
            };
            return Check::Infeasible {
                bottleneck: i,
                boundary: d,
                prefix_margin: margin,
                never: false,
            };
        }
        margin = margin.min(bound - load);
        last_active = Some(i);
    }
    while ci < committed.times.len() {
        let bound = c * committed.times[ci] + 1e-9;
        let load = (cum + committed.cums[ci]) as f64;
        if load > bound {
            if let Some(b) = last_active {
                // Blamed entry is not at a known single position ahead of
                // the sweep — no resume point.
                scratch.cursor.valid = false;
                return Check::Infeasible {
                    bottleneck: b,
                    boundary: committed.times[ci],
                    prefix_margin: margin,
                    never: false,
                };
            }
            // No active job to blame: the committed set alone is
            // infeasible (cannot arise from our own layering; guard for
            // caller-supplied states).
            break;
        }
        margin = margin.min(bound - load);
        ci += 1;
    }
    Check::Feasible { margin }
}

/// Utility levels at or below this are treated as "the job gains nothing".
const ZERO_LEVEL: f64 = 1e-9;

/// Earliest completion time for `demand` that leaves every committed
/// `(deadline, demand)` reservation intact: the smallest `d` such that
///
/// * `demand + G(d) ≤ C·d` (the job itself fits by `d`), and
/// * for every committed deadline `T_k ≥ d`,
///   `demand + cum(T_k) ≤ C·T_k` (inserting the job does not break the
///   prefix-capacity condition of any later reservation).
///
/// This is how a job that can no longer gain utility is squeezed into
/// leftover capacity without lowering anyone else's level — the
/// lexicographic tie-break the paper describes ("allocate resources to
/// other jobs because doing so can improve their utility without lowering
/// the utility of this job").
fn asap_deadline(demand: u64, index: &CommittedIndex, capacity: u32) -> f64 {
    let c = capacity as f64;
    // Barrier: the job must complete after any reservation it would break.
    // The index's `(times, cums)` pair is exactly the sorted prefix the
    // reference implementation rebuilds per call. When the *last*
    // reservation is already broken it is the maximal violated deadline —
    // the overloaded-steady-state common case — and the scan is skipped.
    let mut barrier = 0.0f64;
    match (index.times.last(), index.cums.last()) {
        (Some(&t_last), Some(&cum_last))
            if (demand + cum_last) as f64 > c * t_last + 1e-9 =>
        {
            barrier = t_last;
        }
        _ => {
            for (&t, &cum_t) in index.times.iter().zip(&index.cums) {
                if (demand + cum_t) as f64 > c * t + 1e-9 {
                    barrier = barrier.max(t);
                }
            }
        }
    }
    let mut d = ((demand as f64 / c).max(1.0)).max(barrier + 1e-9);
    // Fixed point over the step function G; terminates in ≤ |committed|+1
    // rounds because each bump crosses at least one reservation deadline.
    loop {
        let g = index.g(d);
        let next = (((demand + g) as f64 / c).max(1.0)).max(barrier + 1e-9);
        if next <= d + 1e-9 {
            return d;
        }
        d = next;
    }
}

/// The deadline a job should be given when peeling at `level`.
fn deadline_for(job: &OnionJob<'_>, level: f64, horizon: f64) -> f64 {
    // A job can never be asked to exceed its own supremum.
    let lvl = level.min(job.utility.sup());
    match job.utility.latest_time(lvl).deadline_within(horizon) {
        Some(d) => d.max(0.0),
        // Level above sup by floating-point noise: complete ASAP.
        None => 0.0,
    }
}

/// Runs the onion-peeling algorithm (Algorithm 3) from scratch:
/// [`peel_incremental`] on a cold [`PeelState`].
///
/// Returns one [`Target`] per job (in peel order). `tolerance` is the
/// bisection stopping width `Δ` on utility levels; `horizon` caps the
/// deadline of completion-time-insensitive jobs.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `capacity == 0`, `tolerance ≤ 0` or
/// `horizon ≤ 0`.
///
/// # Example
///
/// ```
/// use rush_core::onion::{peel, OnionJob};
/// use rush_utility::TimeUtility;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tight = TimeUtility::sigmoid(100.0, 5.0, 0.5)?;
/// let loose = TimeUtility::sigmoid(1000.0, 5.0, 0.01)?;
/// let jobs = [
///     OnionJob { demand: 300, utility: &tight },
///     OnionJob { demand: 300, utility: &loose },
/// ];
/// let targets = peel(&jobs, 8, 0.01, 1e6)?;
/// let t0 = targets.iter().find(|t| t.job == 0).unwrap();
/// let t1 = targets.iter().find(|t| t.job == 1).unwrap();
/// assert!(t0.deadline < t1.deadline); // the tight job gets the early slot
/// # Ok(())
/// # }
/// ```
pub fn peel(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
) -> Result<Vec<Target>, CoreError> {
    peel_incremental(jobs, capacity, tolerance, horizon, false, &mut PeelState::new())
}

fn validate_params(capacity: u32, tolerance: f64, horizon: f64) -> Result<(), CoreError> {
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "tolerance must be > 0" });
    }
    if !horizon.is_finite() || horizon <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "horizon must be > 0" });
    }
    Ok(())
}

/// One recorded feasibility probe: the exact level probed and the
/// annotated outcome. Replay verifies the outcome still holds after a
/// demand change; if every probe of every layer verifies, the whole
/// trajectory — and therefore the peel output — is unchanged bit for bit.
#[derive(Clone, Copy, Debug)]
struct ProbeRec {
    level: f64,
    outcome: Check,
}

/// The action that closed one layer.
#[derive(Clone, Copy, Debug)]
enum ActionRec {
    /// The bottleneck was deadline-free at its level: moved to the
    /// deferred list.
    Defer { job: usize, level: f64 },
    /// The bottleneck peeled: target fixed, demand committed.
    Peel { job: usize, level: f64, deadline: f64 },
    /// No bottleneck up to every active sup: all remaining jobs close at
    /// the converged level.
    FinishAll { lo: f64 },
}

/// Per-layer slice of the flat probe log plus the closing action.
#[derive(Clone, Copy, Debug)]
struct LayerRec {
    probe_start: u32,
    probe_len: u32,
    /// Whether the floor was (known or proven) feasible this layer — the
    /// `floor_feasible` value layers after this one inherit.
    floor_ok: bool,
    action: ActionRec,
}

/// Execution trace of one fast peel: every probe and every layer action,
/// in order, in flat reusable buffers.
#[derive(Default, Debug, Clone)]
struct PeelTrace {
    probes: Vec<ProbeRec>,
    layers: Vec<LayerRec>,
}

impl PeelTrace {
    fn clear(&mut self) {
        self.probes.clear();
        self.layers.clear();
    }

    /// Drops layer `at` and everything after it (delta-replay resume).
    fn truncate_layers(&mut self, at: usize) {
        if at < self.layers.len() {
            self.probes.truncate(self.layers[at].probe_start as usize);
            self.layers.truncate(at);
        }
    }
}

/// Mutable state of one peeling run — everything layer `ℓ+1` inherits from
/// layer `ℓ`. The delta-replay engine reconstructs exactly this state at
/// its resume point, which is what makes a resumed run bit-identical to a
/// from-scratch one.
struct PeelCtx<'j, 'u> {
    jobs: &'j [OnionJob<'u>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    /// Active (unpeeled, undeferred) jobs in ascending index order. The
    /// vector is the full `0..n` fill and is never compacted: removing job
    /// `b` writes the [`DEAD`] sentinel at position `b` (the invariant
    /// `active[b] == b` holds for every live job), so a peel/defer cascade
    /// removes in O(1) per layer. Iteration skips sentinels.
    active: Vec<usize>,
    /// Live (non-sentinel) entries in `active`.
    active_count: usize,
    committed: Vec<(f64, u64)>,
    index: CommittedIndex,
    scratch: ProbeScratch,
    deferred: Vec<(usize, f64)>,
    targets: Vec<Target>,
    /// Global floor: the lowest utility any job can end up with.
    level_lo: f64,
    /// Whether `level_lo` is known feasible for the current
    /// active/committed state. Peeling a bottleneck at a proven-feasible
    /// level preserves feasibility of that level exactly (the job's demand
    /// moves from the active sweep to a reservation at the same deadline),
    /// so the floor only needs an explicit probe on the first layer and
    /// after an infeasible-floor peel.
    floor_feasible: bool,
    /// Overload marker: once a job peels off an infeasible floor (or a
    /// deferred job's ASAP slot is clamped by the horizon), the cluster
    /// cannot honor every target and Theorem 2's premise no longer holds.
    overloaded: bool,
    trace: PeelTrace,
}

impl<'j, 'u> PeelCtx<'j, 'u> {
    fn fresh(jobs: &'j [OnionJob<'u>], capacity: u32, tolerance: f64, horizon: f64) -> Self {
        let mut level_lo =
            jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
        if !level_lo.is_finite() {
            level_lo = 0.0;
        }
        let mut scratch = ProbeScratch::default();
        scratch.fill(jobs);
        PeelCtx {
            jobs,
            capacity,
            tolerance,
            horizon,
            active: (0..jobs.len()).collect(),
            active_count: jobs.len(),
            committed: Vec::new(),
            index: CommittedIndex::default(),
            scratch,
            deferred: Vec::new(),
            targets: Vec::with_capacity(jobs.len()),
            level_lo,
            floor_feasible: false,
            overloaded: false,
            trace: PeelTrace::default(),
        }
    }
}

/// The peeling loop (Algorithm 3's outer iteration), recording a
/// [`PeelTrace`] as it goes. May start from a mid-run context — the
/// delta-replay resume path — and behaves exactly as if a from-scratch run
/// had reached that state.
fn run_layers(ctx: &mut PeelCtx<'_, '_>) {
    let jobs = ctx.jobs;
    let (capacity, tolerance, horizon) = (ctx.capacity, ctx.tolerance, ctx.horizon);
    // Descending-sup order of the live active set. With a cursor that
    // skips jobs removed by earlier layers, the per-layer supremum is O(1)
    // amortized instead of an O(n) fold; the first live entry under the
    // descending total order is exactly the fold's maximum. Suprema are
    // evaluated once up front — `sup()` costs a transcendental for the
    // sigmoid class.
    let mut sups: Vec<(f64, usize)> = ctx
        .active
        .iter()
        .filter(|&&i| i != DEAD)
        .map(|&i| (jobs[i].utility.sup(), i))
        .collect();
    sups.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut sup_cursor = 0usize;
    while ctx.active_count > 0 {
        let probe_start = ctx.trace.probes.len() as u32;
        let mut lo = ctx.level_lo;
        let mut bottleneck: Option<usize> = None;
        // The floor itself may be infeasible in overload; the bottleneck of
        // the floor check then peels at the floor level.
        let floor_ok = ctx.floor_feasible || {
            let chk = check_level(jobs, &mut ctx.scratch, &ctx.index, capacity, horizon, lo);
            ctx.trace.probes.push(ProbeRec { level: lo, outcome: chk });
            match chk {
                Check::Feasible { .. } => true,
                Check::Infeasible { bottleneck: b, .. } => {
                    bottleneck = Some(b);
                    false
                }
            }
        };
        if floor_ok {
            while sup_cursor < sups.len() && ctx.active[sups[sup_cursor].1] == DEAD {
                sup_cursor += 1;
            }
            let level_hi = sups
                .get(sup_cursor)
                .map_or(f64::NEG_INFINITY, |&(s, _)| s)
                .max(ctx.level_lo);
            let hi_cap = (level_hi + tolerance).max(lo + tolerance);
            // Warm-started bisection: consecutive layers converge to
            // nearby levels, so instead of always bracketing against the
            // global sup, gallop upward from the floor with a geometrically
            // growing window until a probe turns infeasible (or the cap is
            // reached), then bisect the bracket down to `tolerance`. The
            // first probe sits one tolerance above the floor: with many
            // jobs the level gap between layers is usually smaller, and an
            // infeasible first probe converges the layer immediately.
            let mut width = tolerance;
            let mut hi = (lo + width).min(hi_cap);
            while hi < hi_cap {
                let chk =
                    check_level(jobs, &mut ctx.scratch, &ctx.index, capacity, horizon, hi);
                ctx.trace.probes.push(ProbeRec { level: hi, outcome: chk });
                match chk {
                    Check::Feasible { .. } => {
                        lo = hi;
                        width *= 4.0;
                        hi = (lo + width).min(hi_cap);
                    }
                    Check::Infeasible { bottleneck: b, .. } => {
                        bottleneck = Some(b);
                        break;
                    }
                }
            }
            if bottleneck.is_none() {
                hi = hi_cap;
            }
            while hi - lo > tolerance {
                let mid = 0.5 * (lo + hi);
                let chk =
                    check_level(jobs, &mut ctx.scratch, &ctx.index, capacity, horizon, mid);
                ctx.trace.probes.push(ProbeRec { level: mid, outcome: chk });
                match chk {
                    Check::Feasible { .. } => lo = mid,
                    Check::Infeasible { bottleneck: b, .. } => {
                        hi = mid;
                        bottleneck = Some(b);
                    }
                }
            }
        }

        let probe_len = ctx.trace.probes.len() as u32 - probe_start;
        match bottleneck {
            Some(b) => {
                let level_b = lo.min(jobs[b].utility.sup());
                if is_deadline_free(&jobs[b], level_b) {
                    // The job's utility no longer depends on when it runs —
                    // either it can gain nothing (level ~0) or its utility
                    // is flat at this level (time-insensitive). Defer it:
                    // it will be slotted into leftover capacity once every
                    // job that *does* care has been peeled.
                    ctx.deferred.push((b, level_b));
                    debug_assert_eq!(ctx.active[b], b, "active-slot invariant");
                    ctx.active[b] = DEAD;
                    ctx.active_count -= 1;
                    ctx.scratch.remove(b);
                    // Removing demand can only help: a floor proven
                    // feasible this layer stays feasible.
                    ctx.floor_feasible = floor_ok;
                    ctx.trace.layers.push(LayerRec {
                        probe_start,
                        probe_len,
                        floor_ok,
                        action: ActionRec::Defer { job: b, level: level_b },
                    });
                    continue;
                }
                if !floor_ok {
                    ctx.overloaded = true;
                }
                let deadline = deadline_for(&jobs[b], lo, horizon);
                ctx.targets.push(Target { job: b, level: lo, deadline, lax: false });
                ctx.committed.push((deadline, jobs[b].demand));
                ctx.index.insert(deadline, jobs[b].demand);
                debug_assert_eq!(ctx.active[b], b, "active-slot invariant");
                ctx.active[b] = DEAD;
                ctx.active_count -= 1;
                ctx.scratch.remove(b);
                // Later layers can only improve on this level; it stays
                // feasible only if it was proven so this layer (peeling
                // from an infeasible floor must re-probe).
                ctx.level_lo = lo;
                ctx.floor_feasible = floor_ok;
                ctx.trace.layers.push(LayerRec {
                    probe_start,
                    probe_len,
                    floor_ok,
                    action: ActionRec::Peel { job: b, level: lo, deadline },
                });
            }
            None => {
                // Everything feasible up to every job's supremum: peel all
                // remaining jobs at the converged level.
                for &i in &ctx.active {
                    if i == DEAD {
                        continue;
                    }
                    let level_i = lo.min(jobs[i].utility.sup());
                    if is_deadline_free(&jobs[i], level_i) {
                        ctx.deferred.push((i, level_i));
                        continue;
                    }
                    let deadline = deadline_for(&jobs[i], lo, horizon);
                    ctx.targets.push(Target { job: i, level: level_i, deadline, lax: false });
                    ctx.committed.push((deadline, jobs[i].demand));
                    ctx.index.insert(deadline, jobs[i].demand);
                }
                ctx.active.clear();
                ctx.active_count = 0;
                ctx.trace.layers.push(LayerRec {
                    probe_start,
                    probe_len,
                    floor_ok: true,
                    action: ActionRec::FinishAll { lo },
                });
            }
        }
    }
}

/// Places the deferred (zero-gain or time-insensitive) jobs: earliest
/// completion that leaves every committed reservation intact — they run in
/// the leftover capacity at full parallelism instead of being parked at
/// the horizon. Hopeless-but-time-sensitive jobs (level ~0) go before
/// genuinely flat ones — any residual utility tail still prefers earlier
/// completion — and smaller demands go first within each group.
fn finish_deferred(ctx: &mut PeelCtx<'_, '_>) {
    let jobs = ctx.jobs;
    ctx.deferred.sort_by(|a, b| {
        let flat_a = a.1 > ZERO_LEVEL;
        let flat_b = b.1 > ZERO_LEVEL;
        (flat_a, jobs[a.0].demand, a.0).cmp(&(flat_b, jobs[b.0].demand, b.0))
    });
    for &(i, level) in &ctx.deferred {
        let asap = asap_deadline(jobs[i].demand, &ctx.index, ctx.capacity);
        if asap > ctx.horizon {
            ctx.overloaded = true;
        }
        let deadline = asap.min(ctx.horizon);
        ctx.targets.push(Target { job: i, level, deadline, lax: true });
        ctx.committed.push((deadline, jobs[i].demand));
        ctx.index.insert(deadline, jobs[i].demand);
    }
}

/// Telemetry: how the last [`peel_incremental`] pass executed. Exposed so
/// benches and tests can assert the delta path actually replays instead of
/// silently re-peeling.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct ReplayStats {
    /// Whether the pass took the delta-replay path at all (false: full
    /// re-peel, because the context changed or the state was invalid).
    pub delta: bool,
    /// Layers whose recorded trajectory was verified and applied.
    pub replayed_layers: usize,
    /// Layer index at which replay fell back to the real peeling loop
    /// (`None`: replay ran to completion).
    pub resumed_at: Option<usize>,
    /// Probes re-verified in O(1) arithmetic, without a sweep.
    pub verified_probes: usize,
    /// Probes re-executed for real against materialized sweep state.
    pub refreshed_probes: usize,
}

/// Cross-pass state for [`peel_incremental`]: the previous pass's
/// execution trace, demands and parameters.
///
/// The state is opaque; it only promises that feeding consecutive passes
/// through it yields plans bit-identical to from-scratch [`peel`] calls.
#[derive(Default, Debug, Clone)]
pub struct PeelState {
    trace: PeelTrace,
    demands: Vec<u64>,
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    valid: bool,
    stats: ReplayStats,
}

impl PeelState {
    /// Creates an empty state; the first pass through it records a trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the recorded trace: the next pass re-peels from scratch.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// How the most recent pass executed.
    pub fn last_stats(&self) -> ReplayStats {
        self.stats
    }
}

/// Absolute slack (container·slots) a recorded margin must retain beyond
/// the demand delta before arithmetic re-verification is trusted; covers
/// accumulated f64 rounding from margin decay across events.
const REPLAY_GUARD: f64 = 1e-6;

/// [`peel`] with cross-pass memoization: when only demands (η) and/or the
/// capacity changed since the previous pass — `same_context` asserts the
/// job count, order, utilities and ages are unchanged; tolerance/horizon
/// are checked against the state — the recorded probe trajectory is
/// *replayed* instead of re-peeled.
///
/// Replay verifies each recorded feasibility probe in O(1) arithmetic
/// using the monotone structure of the Theorem-2 prefix-capacity test: a
/// feasible probe whose minimum slack exceeds the total demand increase
/// plus the capacity-loss term `ΔC·horizon` stays feasible; an infeasible
/// probe stays infeasible at the same boundary when the capacity did not
/// grow, every decreased demand lies strictly after the boundary, and the
/// increases (demand and `ΔC·boundary`) fit inside the pre-violation
/// slack. A capacity *revocation* therefore replays as a divergence-layer
/// event — probes whose slack absorbs the loss verify arithmetically, and
/// the first layer genuinely flipped by the shrink resumes the real loop —
/// rather than forcing a from-scratch re-peel. Probes that cannot be
/// verified arithmetically are re-executed against materialized sweep
/// state (under the *new* capacity); the first probe whose *outcome*
/// actually flips aborts the replay and resumes the real peeling loop from
/// that layer — on exactly the state a from-scratch run would have
/// reached, so the result is bitwise identical to [`peel`] in every case.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] under the same conditions as [`peel`].
pub fn peel_incremental(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    same_context: bool,
    state: &mut PeelState,
) -> Result<Vec<Target>, CoreError> {
    validate_params(capacity, tolerance, horizon)?;
    let eligible = same_context
        && state.valid
        && state.demands.len() == jobs.len()
        && state.tolerance.to_bits() == tolerance.to_bits()
        && state.horizon.to_bits() == horizon.to_bits()
        // A demand crossing zero flips the job's never-blocks/∞-sentinel
        // classification inside probes; replay does not model that.
        && jobs.iter().zip(&state.demands).all(|(j, &old)| (j.demand == 0) == (old == 0));
    if !eligible {
        let mut ctx = PeelCtx::fresh(jobs, capacity, tolerance, horizon);
        state.trace.clear();
        std::mem::swap(&mut ctx.trace, &mut state.trace);
        run_layers(&mut ctx);
        finish_deferred(&mut ctx);
        debug_check_theorem2(&ctx.committed, capacity, ctx.overloaded);
        std::mem::swap(&mut ctx.trace, &mut state.trace);
        state.demands.clear();
        state.demands.extend(jobs.iter().map(|j| j.demand));
        state.capacity = capacity;
        state.tolerance = tolerance;
        state.horizon = horizon;
        state.valid = true;
        state.stats = ReplayStats::default();
        return Ok(ctx.targets);
    }
    Ok(replay(jobs, capacity, tolerance, horizon, state))
}

/// Where a changed job's demand currently sits during replay.
#[derive(Clone, Copy, PartialEq)]
enum ChangedStatus {
    /// Still in the active sweep (deadline = U⁻¹ at the probed level).
    Active,
    /// Peeled: the demand is a committed reservation at the stored target.
    Committed(f64),
    /// Deferred: the demand influences nothing until the deferred phase,
    /// which replay always recomputes for real.
    Deferred,
}

/// One job whose demand differs from the recorded pass.
struct ChangedJob {
    idx: usize,
    /// `new − old`; exact in f64 for demands below 2⁵³.
    delta: f64,
    status: ChangedStatus,
    /// Memoized `latest_time(level).deadline_within(horizon)` keyed by the
    /// level's bits: cascade layers probe long runs of one level, and the
    /// utility inversion is the only transcendental in the verify path.
    inv: Option<(u64, Option<f64>)>,
}

/// How the capacity drifted since the recorded pass, with the constants
/// needed to bound the resulting slack drain per boundary.
#[derive(Clone, Copy)]
struct CapDrift {
    /// Containers revoked since the recorded pass (0 when capacity grew
    /// or held).
    dec: f64,
    /// Whether the capacity grew.
    inc: bool,
    /// `dec / C_old` — the relative shrink.
    scale: f64,
    /// Total demand of the recorded pass, an upper bound on the load at
    /// any swept boundary.
    demand_bound: f64,
}

impl CapDrift {
    /// Upper-bounds the slack a `dec`-container revocation drains at any
    /// boundary whose recorded slack was at least `margin`: the drain at
    /// boundary `d` is `dec·d`, and `d ≤ horizon` while
    /// `C_old·d = slack + load − ε ≤ slack + demand_bound` gives the
    /// usually far tighter `dec·d ≤ scale·(slack + demand_bound)`. The
    /// bound is increasing in slack, so evaluating it at the recorded
    /// minimum bounds the post-drift minimum from below.
    fn drain(&self, margin: f64, boundary_cap: f64) -> f64 {
        (self.dec * boundary_cap).min(self.scale * (margin + self.demand_bound))
    }
}

/// Re-verifies one recorded probe arithmetically. `pos` is the total
/// demand increase currently in play; `cap` the capacity drift since the
/// recorded pass. Returns the updated record (conservatively decayed
/// margins) or `None` when a real probe is needed.
fn verify_probe(
    jobs: &[OnionJob<'_>],
    horizon: f64,
    rec: ProbeRec,
    changed: &mut [ChangedJob],
    pos: f64,
    cap: CapDrift,
) -> Option<Check> {
    match rec.outcome {
        Check::Feasible { margin } => {
            // Decreases (and a capacity *increase*) only grow every
            // boundary's slack; demand increases shrink each by at most
            // `pos`, and a capacity loss drains at most
            // [`CapDrift::drain`] more. Under a pure capacity increase the
            // recorded margin is kept unchanged — an understatement of the
            // true slack, which is conservative (it can only force an
            // extra refresh, never verify a flipped probe).
            let decay = pos + cap.drain(margin, horizon);
            // Exact zero means no decaying deltas exist, not a rounded value.
            if decay == 0.0 {
                Some(rec.outcome)
            } else if margin - decay >= REPLAY_GUARD {
                Some(Check::Feasible { margin: margin - decay })
            } else {
                None
            }
        }
        // The never-scan reads utilities and the demand>0 pattern only —
        // both unchanged under the delta-eligibility preconditions, and
        // independent of the capacity.
        Check::Infeasible { never: true, .. } => Some(rec.outcome),
        Check::Infeasible { bottleneck, boundary, prefix_margin, never: false } => {
            // A capacity increase could heal the violated boundary itself;
            // only a real probe can tell.
            if cap.inc {
                return None;
            }
            // A decreased demand at or before the violated boundary could
            // heal it; require every decrease to sit strictly after it.
            for c in changed.iter_mut() {
                if c.delta >= 0.0 || c.status == ChangedStatus::Deferred {
                    continue;
                }
                let eff = match c.status {
                    ChangedStatus::Committed(t) => Some(t),
                    ChangedStatus::Active => match c.inv {
                        Some((bits, d)) if bits == rec.level.to_bits() => d,
                        _ => {
                            let d = jobs[c.idx]
                                .utility
                                .latest_time(rec.level)
                                .deadline_within(horizon);
                            c.inv = Some((rec.level.to_bits(), d));
                            d
                        }
                    },
                    #[expect(clippy::unreachable, reason = "deferred jobs are skipped by the `continue` above")]
                    ChangedStatus::Deferred => unreachable!(),
                };
                match eff {
                    Some(e) if e > boundary => {}
                    _ => return None,
                }
            }
            // Increases (demand, or the capacity loss's slack drain at
            // every boundary `d ≤ boundary`) cannot heal the violation;
            // they could only move it *earlier*, which the pre-violation
            // slack rules out.
            let decay = pos + cap.drain(prefix_margin, boundary);
            if decay > prefix_margin - REPLAY_GUARD {
                return None;
            }
            Some(Check::Infeasible {
                bottleneck,
                boundary,
                prefix_margin: prefix_margin - decay,
                never: false,
            })
        }
    }
}

/// Whether a freshly executed probe confirms the recorded trajectory: the
/// layer's control flow depends on the outcome variant and (for the layer
/// action) the bottleneck identity.
fn same_trajectory(fresh: Check, rec: Check) -> bool {
    match (fresh, rec) {
        (Check::Feasible { .. }, Check::Feasible { .. }) => true,
        (Check::Infeasible { bottleneck: a, .. }, Check::Infeasible { bottleneck: b, .. }) => {
            a == b
        }
        _ => false,
    }
}

/// The delta-replay pass. See [`peel_incremental`] for the contract.
fn replay(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    state: &mut PeelState,
) -> Vec<Target> {
    let n = jobs.len();
    let mut changed: Vec<ChangedJob> = jobs
        .iter()
        .zip(&state.demands)
        .enumerate()
        .filter(|(_, (j, &old))| j.demand != old)
        .map(|(i, (j, &old))| ChangedJob {
            idx: i,
            delta: j.demand as f64 - old as f64,
            status: ChangedStatus::Active,
            inv: None,
        })
        .collect();
    let mut stats = ReplayStats { delta: true, ..Default::default() };
    // Capacity divergence: a revocation drains slack at every boundary
    // (see [`CapDrift::drain`]); a restock can only add slack (but may
    // heal recorded violations, forcing refreshes).
    let cap = CapDrift {
        dec: f64::from(state.capacity.saturating_sub(capacity)),
        inc: capacity > state.capacity,
        scale: f64::from(state.capacity.saturating_sub(capacity))
            / f64::from(state.capacity.max(1)),
        demand_bound: state.demands.iter().map(|&d| d as f64).sum(),
    };
    let cap_changed = capacity != state.capacity;

    let mut removed = vec![false; n];
    let mut committed: Vec<(f64, u64)> = Vec::new();
    let mut deferred: Vec<(usize, f64)> = Vec::new();
    let mut targets: Vec<Target> = Vec::with_capacity(n);
    let mut level_lo = jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
    if !level_lo.is_finite() {
        level_lo = 0.0;
    }
    let mut floor_feasible = false;
    let mut overloaded = false;
    let mut removed_count = 0usize;
    // Sweep state materialized at the first refresh probe, then kept in
    // sync lazily: layer actions only bump `removed`/`committed`, and the
    // next refresh catches up in one retain pass plus the few pending
    // reservation inserts — preserving the scratch's deadline memo, which
    // makes a dense run of refresh probes at one recorded level cost one
    // utility inversion total.
    let mut live: Option<(ProbeScratch, CommittedIndex)> = None;
    // Committed entries already present in the live index.
    let mut live_commits = 0usize;
    // Jobs removed by layer actions since the live scratch last caught up.
    let mut pending_removed: Vec<usize> = Vec::new();
    let mut resume_at: Option<usize> = None;

    'layers: for li in 0..state.trace.layers.len() {
        let layer = state.trace.layers[li];
        let pos: f64 = changed
            .iter()
            .filter(|c| c.status != ChangedStatus::Deferred)
            .map(|c| c.delta.max(0.0))
            .sum();
        let influenced =
            cap_changed || changed.iter().any(|c| c.status != ChangedStatus::Deferred);
        let pr = layer.probe_start as usize..(layer.probe_start + layer.probe_len) as usize;
        for p in pr {
            let rec = state.trace.probes[p];
            let verdict = if influenced {
                verify_probe(jobs, horizon, rec, &mut changed, pos, cap)
            } else {
                Some(rec.outcome)
            };
            match verdict {
                Some(updated) => {
                    stats.verified_probes += 1;
                    state.trace.probes[p].outcome = updated;
                }
                None => {
                    match live.as_mut() {
                        None => {
                            let active: Vec<usize> =
                                (0..n).filter(|&i| !removed[i]).collect();
                            let mut scratch = ProbeScratch::default();
                            scratch.fill_active(&active);
                            let mut index = CommittedIndex::default();
                            index.rebuild(&committed);
                            live = Some((scratch, index));
                        }
                        Some((scratch, index)) => {
                            // Catch up on actions applied since the last
                            // refresh: O(1) per removed job (tombstone via
                            // the scratch's position index), a few
                            // reservation inserts.
                            for &j in &pending_removed {
                                scratch.remove(j);
                            }
                            if committed.len() - live_commits > 32 {
                                index.rebuild(&committed);
                            } else {
                                for &(t, e) in &committed[live_commits..] {
                                    index.insert(t, e);
                                }
                            }
                        }
                    }
                    pending_removed.clear();
                    live_commits = committed.len();
                    #[expect(clippy::expect_used, reason = "populated by the refresh branch directly above")]
                    let (scratch, index) = live.as_mut().expect("just materialized");
                    let fresh = check_level(jobs, scratch, index, capacity, horizon, rec.level);
                    stats.refreshed_probes += 1;
                    if same_trajectory(fresh, rec.outcome) {
                        state.trace.probes[p].outcome = fresh;
                    } else {
                        // The trajectory genuinely diverged: resume the
                        // real loop from this layer's entry state.
                        resume_at = Some(li);
                        break 'layers;
                    }
                }
            }
        }
        match layer.action {
            ActionRec::Defer { job, level } => {
                removed[job] = true;
                removed_count += 1;
                pending_removed.push(job);
                deferred.push((job, level));
                floor_feasible = layer.floor_ok;
                if let Some(c) = changed.iter_mut().find(|c| c.idx == job) {
                    c.status = ChangedStatus::Deferred;
                }
            }
            ActionRec::Peel { job, level, deadline } => {
                targets.push(Target { job, level, deadline, lax: false });
                committed.push((deadline, jobs[job].demand));
                removed[job] = true;
                removed_count += 1;
                pending_removed.push(job);
                if !layer.floor_ok {
                    overloaded = true;
                }
                level_lo = level;
                floor_feasible = layer.floor_ok;
                if let Some(c) = changed.iter_mut().find(|c| c.idx == job) {
                    c.status = ChangedStatus::Committed(deadline);
                }
            }
            ActionRec::FinishAll { lo } => {
                for i in 0..n {
                    if removed[i] {
                        continue;
                    }
                    removed[i] = true;
                    removed_count += 1;
                    pending_removed.push(i);
                    let level_i = lo.min(jobs[i].utility.sup());
                    if is_deadline_free(&jobs[i], level_i) {
                        deferred.push((i, level_i));
                        continue;
                    }
                    let deadline = deadline_for(&jobs[i], lo, horizon);
                    targets.push(Target { job: i, level: level_i, deadline, lax: false });
                    committed.push((deadline, jobs[i].demand));
                }
            }
        }
        stats.replayed_layers += 1;
    }

    let mut ctx = PeelCtx {
        jobs,
        capacity,
        tolerance,
        horizon,
        active: Vec::new(),
        active_count: 0,
        committed,
        index: CommittedIndex::default(),
        scratch: ProbeScratch::default(),
        deferred,
        targets,
        level_lo,
        floor_feasible,
        overloaded,
        trace: std::mem::take(&mut state.trace),
    };
    if let Some(li) = resume_at {
        stats.resumed_at = Some(li);
        ctx.trace.truncate_layers(li);
        ctx.active = (0..n).map(|i| if removed[i] { DEAD } else { i }).collect();
        ctx.active_count = n - removed_count;
        #[expect(clippy::expect_used, reason = "divergence always refreshes `live` before breaking out")]
        let (scratch, index) = live.take().expect("resume always follows a refresh");
        ctx.scratch = scratch;
        ctx.index = index;
        run_layers(&mut ctx);
    } else {
        // Replay covered every layer; only the deferred phase (always
        // recomputed — its packing order keys on the live demands) needs
        // the committed index.
        ctx.index.rebuild(&ctx.committed);
    }
    finish_deferred(&mut ctx);
    debug_check_theorem2(&ctx.committed, capacity, ctx.overloaded);
    state.trace = ctx.trace;
    state.demands.clear();
    state.demands.extend(jobs.iter().map(|j| j.demand));
    state.capacity = capacity;
    state.stats = stats;
    ctx.targets
}

/// Contract (Theorem 2): in a non-overloaded instance, the committed
/// reservations satisfy the prefix-capacity condition
/// `Σ_{T_k ≤ d} η_k ≤ C · d` at every reservation deadline `d` — the
/// feasibility certificate the peeling loop maintained layer by layer.
#[cfg(feature = "strict-invariants")]
fn debug_check_theorem2(committed: &[(f64, u64)], capacity: u32, overloaded: bool) {
    if overloaded {
        return;
    }
    let mut sorted: Vec<(f64, u64)> = committed.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    if sorted.iter().any(|&(d, e)| e > 0 && d <= 0.0) {
        // Degenerate clamp: a level sitting above a job's supremum by
        // floating-point noise maps to an ASAP deadline of 0 — the same
        // "cannot satisfy" category as overload.
        return;
    }
    let c = capacity as f64;
    let mut cum = 0u64;
    for &(d, e) in &sorted {
        cum += e;
        debug_assert!(
            cum as f64 <= c * d + 1e-6,
            "Theorem 2 contract: committed demand {cum} exceeds C·d = {} at deadline {d}",
            c * d
        );
    }
}

#[cfg(not(feature = "strict-invariants"))]
#[inline(always)]
fn debug_check_theorem2(_committed: &[(f64, u64)], _capacity: u32, _overloaded: bool) {}

/// The Theorem-2 prefix-capacity feasibility test, exposed as a standalone
/// probe: given `(deadline, demand)` reservations (in any order), returns
/// whether `Σ_{T_k ≤ d} η_k ≤ C · d` holds at every reservation deadline
/// `d` — i.e. whether a schedule meeting every deadline exists on `capacity`
/// containers.
///
/// This is the test an *admission controller* runs at submission time: take
/// the current plan's committed `(target, η)` pairs, add the candidate
/// job's `(deadline, η)`, and probe. Infeasible means admitting the job
/// would overcommit the cluster — some deadline must slip.
///
/// Non-finite deadlines (a job with no deadline at all) never constrain
/// feasibility and are skipped; a non-positive deadline with positive
/// demand is immediately infeasible. `capacity == 0` is infeasible unless
/// there is no demand at all.
///
/// # Example
///
/// ```
/// use rush_core::onion::prefix_capacity_feasible;
///
/// // 2 containers: 100 container·slots by t=60 and 140 more by t=120.
/// assert!(prefix_capacity_feasible(&[(60.0, 100), (120.0, 140)], 2));
/// // Adding 80 more by t=60 breaks the first prefix (180 > 2·60).
/// assert!(!prefix_capacity_feasible(&[(60.0, 100), (120.0, 140), (60.0, 80)], 2));
/// ```
pub fn prefix_capacity_feasible(reservations: &[(f64, u64)], capacity: u32) -> bool {
    let mut sorted: Vec<(f64, u64)> = reservations
        .iter()
        .copied()
        .filter(|&(d, e)| e > 0 && d.is_finite())
        .collect();
    if sorted.is_empty() {
        return true;
    }
    if capacity == 0 {
        return false;
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let c = capacity as f64;
    let mut cum = 0u64;
    for &(d, e) in &sorted {
        if d <= 0.0 {
            return false;
        }
        cum += e;
        if cum as f64 > c * d + 1e-9 {
            return false;
        }
    }
    true
}

/// The smallest integer capacity under which `reservations` still satisfy
/// the Theorem 2 prefix condition: `max_k ⌈(Σ_{T_i ≤ T_k} η_i) / T_k⌉`
/// over the deadline-sorted prefixes.
///
/// This is the *committed prefix demand* of a planner partition — the
/// floor below which its capacity slice cannot be cut without breaking a
/// deadline it has already promised. Together with the slice it yields the
/// shard's headroom (`slice − required`), the quantity the cross-shard
/// rebalancer migrates. Returns `0` when nothing is reserved, and
/// `u32::MAX` when some positive demand carries a non-positive deadline
/// (no finite capacity helps).
///
/// Consistent with [`prefix_capacity_feasible`] by construction:
/// `prefix_capacity_feasible(r, c)` holds iff
/// `c >= prefix_capacity_required(r)` (up to the probe's `1e-9` slack).
///
/// # Example
///
/// ```
/// use rush_core::onion::{prefix_capacity_feasible, prefix_capacity_required};
///
/// let r = [(60.0, 100), (120.0, 140), (60.0, 80)];
/// let need = prefix_capacity_required(&r);
/// assert_eq!(need, 3); // 180 container·slots by t=60
/// assert!(prefix_capacity_feasible(&r, need));
/// assert!(!prefix_capacity_feasible(&r, need - 1));
/// ```
pub fn prefix_capacity_required(reservations: &[(f64, u64)]) -> u32 {
    let mut sorted: Vec<(f64, u64)> = reservations
        .iter()
        .copied()
        .filter(|&(d, e)| e > 0 && d.is_finite())
        .collect();
    if sorted.is_empty() {
        return 0;
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cum = 0u64;
    let mut need = 0u32;
    for &(d, e) in &sorted {
        if d <= 0.0 {
            return u32::MAX;
        }
        cum += e;
        // Smallest integer c with cum ≤ c·d + 1e-9, i.e. ⌈(cum − ε)/d⌉.
        let exact = (cum as f64 - 1e-9) / d;
        let c = exact.ceil();
        if c >= u32::MAX as f64 {
            return u32::MAX;
        }
        need = need.max(c as u32);
    }
    need
}

/// Whether a job's utility is indifferent to *when* it completes at the
/// given level: either the level has collapsed to ~0 (nothing left to
/// gain) or the utility is flat at/above the level (time-insensitive).
fn is_deadline_free(job: &OnionJob<'_>, level: f64) -> bool {
    if level <= ZERO_LEVEL && job.utility.sup() > ZERO_LEVEL {
        return true;
    }
    matches!(job.utility.latest_time(level), LatestTime::Always)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn sigmoid(budget: f64, weight: f64, beta: f64) -> TimeUtility {
        TimeUtility::sigmoid(budget, weight, beta).unwrap()
    }

    #[test]
    fn single_job_peels_near_its_sup() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let jobs = [OnionJob { demand: 200, utility: &u }];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert_eq!(t.len(), 1);
        // Demand 200 on 8 containers needs ≥ 25 slots; deadline must be
        // at least that, and the level consistent with the deadline.
        assert!(t[0].deadline >= 25.0 - 1e-6, "deadline {}", t[0].deadline);
        let u_at = u.utility(t[0].deadline);
        assert!((u_at - t[0].level).abs() < 0.1, "level {} vs U(T) {}", t[0].level, u_at);
    }

    #[test]
    fn capacity_binds_the_deadline() {
        let u = sigmoid(10.0, 5.0, 0.5);
        // Demand 800 on 8 containers needs ≥ 100 slots >> budget 10.
        let jobs = [OnionJob { demand: 800, utility: &u }];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert!(t[0].deadline >= 100.0 - 1e-6, "deadline {}", t[0].deadline);
        assert!(t[0].level < 0.01, "utility is gone at 10x the budget");
    }

    #[test]
    fn equal_jobs_share_equally() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let jobs = [
            OnionJob { demand: 400, utility: &u },
            OnionJob { demand: 400, utility: &u },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert_eq!(t.len(), 2);
        // Total 800 on 8 containers = 100 slots; both can't finish at 50,
        // one must wait for ~100. Levels differ because one binds earlier,
        // but both deadlines fit within capacity:
        let mut deadlines: Vec<f64> = t.iter().map(|x| x.deadline).collect();
        deadlines.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(deadlines[1] >= 100.0 - 1.0, "latest deadline {}", deadlines[1]);
    }

    #[test]
    fn urgent_job_peels_with_earlier_deadline() {
        let tight = sigmoid(50.0, 5.0, 0.2);
        let loose = sigmoid(5000.0, 5.0, 0.002);
        let jobs = [
            OnionJob { demand: 200, utility: &tight },
            OnionJob { demand: 200, utility: &loose },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        let d_tight = t.iter().find(|x| x.job == 0).unwrap().deadline;
        let d_loose = t.iter().find(|x| x.job == 1).unwrap().deadline;
        assert!(d_tight < d_loose, "tight {d_tight} vs loose {d_loose}");
    }

    #[test]
    fn lexicographic_improves_beyond_min() {
        // One hopeless job (overdue) must not drag the other to zero.
        let hopeless = sigmoid(1.0, 5.0, 5.0); // effectively expired
        let healthy = sigmoid(500.0, 5.0, 0.05);
        let jobs = [
            OnionJob { demand: 1000, utility: &hopeless },
            OnionJob { demand: 200, utility: &healthy },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        let lvl_healthy = t.iter().find(|x| x.job == 1).unwrap().level;
        assert!(lvl_healthy > 4.0, "healthy job should still achieve ~5, got {lvl_healthy}");
    }

    #[test]
    fn constant_utility_jobs_defer_into_leftover_capacity() {
        let c = TimeUtility::constant(3.0).unwrap();
        let s = sigmoid(100.0, 5.0, 0.1);
        let jobs = [
            OnionJob { demand: 400, utility: &c },
            OnionJob { demand: 400, utility: &s },
        ];
        let t = peel(&jobs, 8, 0.001, 10_000.0).unwrap();
        let tc = t.iter().find(|x| x.job == 0).unwrap();
        let ts = t.iter().find(|x| x.job == 1).unwrap();
        // The insensitive job is lax: ordered behind the sigmoid job but
        // with a work-conserving ASAP completion (800 demand / 8 = 100),
        // not parked at the horizon.
        assert!(tc.lax);
        assert!(!ts.lax);
        assert!(tc.deadline > ts.deadline, "insensitive defers: {tc:?} vs {ts:?}");
        assert!((tc.deadline - 100.0).abs() < 2.0, "ASAP behind reservations, got {tc:?}");
        assert!((tc.level - 3.0).abs() < 0.01, "flat job keeps ~its full level, got {}", tc.level);
    }

    #[test]
    fn zero_demand_jobs_never_block() {
        let low = sigmoid(10.0, 1.0, 0.5); // low sup
        let high = sigmoid(100.0, 5.0, 0.1);
        let jobs = [
            OnionJob { demand: 0, utility: &low },
            OnionJob { demand: 100, utility: &high },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert_eq!(t.len(), 2);
        let lvl_high = t.iter().find(|x| x.job == 1).unwrap().level;
        assert!(lvl_high > 4.5, "zero-demand job must not cap the layer, got {lvl_high}");
    }

    #[test]
    fn overload_peels_everyone_without_panic() {
        let u = sigmoid(5.0, 5.0, 1.0);
        let jobs: Vec<OnionJob<'_>> =
            (0..10).map(|_| OnionJob { demand: 10_000, utility: &u }).collect();
        let t = peel(&jobs, 1, 0.01, 1e5).unwrap();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn feasibility_condition_theorem2_holds_at_targets() {
        // After peeling, the prefix-capacity condition must hold for the
        // chosen deadlines: Σ_{T_i ≤ d} η_i ≤ C·d for every target d.
        let a = sigmoid(60.0, 5.0, 0.2);
        let b = sigmoid(120.0, 4.0, 0.1);
        let c = TimeUtility::constant(2.0).unwrap();
        let jobs = [
            OnionJob { demand: 300, utility: &a },
            OnionJob { demand: 500, utility: &b },
            OnionJob { demand: 400, utility: &c },
        ];
        let capacity = 8u32;
        let t = peel(&jobs, capacity, 0.001, 1e5).unwrap();
        let mut ds: Vec<(f64, u64)> =
            t.iter().map(|x| (x.deadline, jobs[x.job].demand)).collect();
        ds.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut cum = 0u64;
        for (d, e) in ds {
            cum += e;
            assert!(
                cum as f64 <= capacity as f64 * d + 1e-6,
                "prefix demand {cum} exceeds C*d = {}",
                capacity as f64 * d
            );
        }
    }

    #[test]
    fn validation_errors() {
        let u = sigmoid(10.0, 1.0, 0.1);
        let jobs = [OnionJob { demand: 1, utility: &u }];
        assert!(peel(&jobs, 0, 0.01, 1e6).is_err());
        assert!(peel(&jobs, 8, 0.0, 1e6).is_err());
        assert!(peel(&jobs, 8, 0.01, 0.0).is_err());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let t = peel(&[], 8, 0.01, 1e6).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn shifted_utility_behaves() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let s = Shifted::new(&u, 40.0);
        assert_eq!(s.utility(10.0), u.utility(50.0));
        assert_eq!(s.inf(), u.inf());
        match (s.latest_time(2.5), u.latest_time(2.5)) {
            (LatestTime::At(a), LatestTime::At(b)) => assert!((a - (b - 40.0)).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        // A level only achievable before "now" becomes Never.
        let s_late = Shifted::new(&u, 1000.0);
        assert_eq!(s_late.latest_time(4.9), LatestTime::Never);
    }

    #[test]
    fn shifted_negative_shift_clamps() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let s = Shifted::new(&u, -5.0);
        assert_eq!(s.utility(10.0), u.utility(10.0));
    }

    #[test]
    fn max_min_delays_the_job_that_retains_more_utility() {
        // Same budget/demand, different weights. Capacity forces one job to
        // the late slot (~100); max-min on absolute utilities delays the
        // HEAVY job, because U_heavy(100) > U_light(100): the resulting
        // sorted utility vector dominates the swapped assignment.
        let heavy = sigmoid(50.0, 5.0, 0.1);
        let light = sigmoid(50.0, 1.0, 0.1);
        let jobs = [
            OnionJob { demand: 400, utility: &heavy },
            OnionJob { demand: 400, utility: &light },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        let d_heavy = t.iter().find(|x| x.job == 0).unwrap().deadline;
        let d_light = t.iter().find(|x| x.job == 1).unwrap().deadline;
        assert!(d_heavy > d_light, "heavy {d_heavy} should take the late slot vs {d_light}");
        // The achieved min level beats the swapped assignment's min level
        // (light at deadline 100 would sit at U_light(100) ≈ 0.0067).
        let min_level =
            t.iter().map(|x| x.level).fold(f64::INFINITY, f64::min);
        assert!(min_level > 0.02, "min level {min_level} must beat the swapped order");
    }

    #[test]
    fn prefix_capacity_probe_accepts_and_rejects() {
        // Exactly at capacity is feasible (2 containers, 120 by t=60).
        assert!(prefix_capacity_feasible(&[(60.0, 120)], 2));
        // One over is not.
        assert!(!prefix_capacity_feasible(&[(60.0, 121)], 2));
        // Order of reservations does not matter.
        assert!(prefix_capacity_feasible(&[(120.0, 140), (60.0, 100)], 2));
        assert!(!prefix_capacity_feasible(&[(120.0, 140), (60.0, 180)], 2));
        // A later prefix can be the binding one.
        assert!(!prefix_capacity_feasible(&[(60.0, 50), (61.0, 200)], 2));
        // Empty and zero-demand sets are trivially feasible.
        assert!(prefix_capacity_feasible(&[], 4));
        assert!(prefix_capacity_feasible(&[(10.0, 0)], 0));
        // Zero capacity with demand is not.
        assert!(!prefix_capacity_feasible(&[(10.0, 1)], 0));
        // Non-finite deadlines never constrain; non-positive ones always do.
        assert!(prefix_capacity_feasible(&[(f64::INFINITY, 10_000)], 1));
        assert!(!prefix_capacity_feasible(&[(0.0, 5)], 8));
        assert!(!prefix_capacity_feasible(&[(-3.0, 5)], 8));
    }

    #[test]
    fn prefix_capacity_required_is_the_probe_threshold() {
        // required == the exact threshold at which the probe flips.
        for r in [
            vec![(60.0, 120)],
            vec![(60.0, 121)],
            vec![(120.0, 140), (60.0, 100)],
            vec![(60.0, 50), (61.0, 200)],
            vec![(1.0, 1), (2.0, 1), (3.0, 1)],
            vec![(0.5, 3)],
        ] {
            let need = prefix_capacity_required(&r);
            assert!(prefix_capacity_feasible(&r, need), "{r:?} at {need}");
            if need > 0 {
                assert!(!prefix_capacity_feasible(&r, need - 1), "{r:?} at {}", need - 1);
            }
        }
        // Nothing reserved → nothing required.
        assert_eq!(prefix_capacity_required(&[]), 0);
        assert_eq!(prefix_capacity_required(&[(10.0, 0)]), 0);
        // Unconstrained deadlines are skipped, hopeless ones saturate.
        assert_eq!(prefix_capacity_required(&[(f64::INFINITY, 10_000)]), 0);
        assert_eq!(prefix_capacity_required(&[(0.0, 5)]), u32::MAX);
        assert_eq!(prefix_capacity_required(&[(-3.0, 5)]), u32::MAX);
    }

    #[test]
    fn prefix_capacity_probe_agrees_with_peel_output() {
        // The reservations the peel commits in a non-overloaded instance
        // must pass the standalone probe (Theorem 2's certificate).
        let a = sigmoid(200.0, 5.0, 0.05);
        let b = sigmoid(400.0, 3.0, 0.02);
        let c = sigmoid(800.0, 1.0, 0.01);
        let jobs = [
            OnionJob { demand: 300, utility: &a },
            OnionJob { demand: 500, utility: &b },
            OnionJob { demand: 400, utility: &c },
        ];
        let targets = peel(&jobs, 4, 0.001, 1e6).unwrap();
        let reservations: Vec<(f64, u64)> =
            targets.iter().map(|t| (t.deadline, jobs[t.job].demand)).collect();
        assert!(prefix_capacity_feasible(&reservations, 4));
        // Squeezing the same demands onto 1 container breaks feasibility.
        assert!(!prefix_capacity_feasible(&reservations, 1));
    }

    fn assert_targets_bitwise(a: &[Target], b: &[Target], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.job, y.job, "{ctx}: job order");
            assert_eq!(x.level.to_bits(), y.level.to_bits(), "{ctx}: level, job {}", x.job);
            assert_eq!(x.deadline.to_bits(), y.deadline.to_bits(), "{ctx}: deadline, job {}", x.job);
            assert_eq!(x.lax, y.lax, "{ctx}: lax, job {}", x.job);
        }
    }

    /// Delta replay must be bit-identical to a from-scratch peel across a
    /// deterministic sweep of single- and multi-job demand perturbations,
    /// including large swings that force trajectory resumes.
    #[test]
    fn incremental_peel_bitwise_matches_full_peel() {
        let utilities: Vec<TimeUtility> = (0..40)
            .map(|i| {
                let budget = 120.0 + 61.0 * i as f64;
                sigmoid(budget, 1.0 + (i % 5) as f64, 10.0 / budget)
            })
            .collect();
        let mut demands: Vec<u64> = (0..40).map(|i| 37 + 91 * i as u64 % 1800).collect();
        let mut state = PeelState::new();
        let (cap, tol, hor) = (16u32, 1e-4, 1e6);

        let jobs: Vec<OnionJob<'_>> = demands
            .iter()
            .zip(&utilities)
            .map(|(&d, u)| OnionJob { demand: d, utility: u })
            .collect();
        let full = peel(&jobs, cap, tol, hor).unwrap();
        let inc = peel_incremental(&jobs, cap, tol, hor, true, &mut state).unwrap();
        assert_targets_bitwise(&full, &inc, "cold");
        assert!(!state.last_stats().delta, "first pass records, not replays");

        let mut saw_replay = false;
        let mut saw_resume = false;
        for step in 0..60u64 {
            // Deterministic perturbation: small nudges, occasional large
            // swings, and a periodic burst touching several jobs at once.
            let k = (step as usize * 7) % demands.len();
            match step % 5 {
                0 => demands[k] = demands[k].saturating_add(3).max(1),
                1 => demands[k] = demands[k].saturating_sub(2).max(1),
                2 => demands[k] = (demands[k] * 3).max(1),
                3 => demands[k] = (demands[k] / 4).max(1),
                _ => {
                    for j in 0..4 {
                        let m = (k + j * 11) % demands.len();
                        demands[m] = (demands[m] + 17 * j as u64 + 1).max(1);
                    }
                }
            }
            let jobs: Vec<OnionJob<'_>> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: u })
                .collect();
            let full = peel(&jobs, cap, tol, hor).unwrap();
            let inc = peel_incremental(&jobs, cap, tol, hor, true, &mut state).unwrap();
            assert_targets_bitwise(&full, &inc, &format!("step {step}"));
            let stats = state.last_stats();
            assert!(stats.delta, "step {step}: eligible pass must take delta path");
            saw_replay |= stats.resumed_at.is_none();
            saw_resume |= stats.resumed_at.is_some();
        }
        assert!(saw_replay, "sweep never exercised a full replay");
        assert!(saw_resume, "sweep never exercised a trajectory resume");
    }

    /// Capacity churn (revocations and restocks, with and without
    /// simultaneous demand drift) must stay on the delta path and remain
    /// bit-identical to a from-scratch peel — the planner-side contract
    /// behind spot-revocation replanning.
    #[test]
    fn incremental_peel_absorbs_capacity_churn() {
        let utilities: Vec<TimeUtility> = (0..24)
            .map(|i| {
                let budget = 150.0 + 73.0 * i as f64;
                sigmoid(budget, 1.0 + (i % 4) as f64, 12.0 / budget)
            })
            .collect();
        let mut demands: Vec<u64> = (0..24).map(|i| 53 + 67 * i as u64 % 900).collect();
        let mut state = PeelState::new();
        let (tol, hor) = (1e-4, 1e6);
        // Revocations, restocks, deep cuts, and recoveries around C=16.
        let capacities: [u32; 12] = [16, 14, 14, 9, 12, 3, 3, 16, 15, 2, 11, 16];

        {
            let jobs: Vec<OnionJob<'_>> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: u })
                .collect();
            peel_incremental(&jobs, capacities[0], tol, hor, true, &mut state).unwrap();
        }
        let mut saw_resume = false;
        let mut max_verified = 0usize;
        for (step, &cap) in capacities.iter().enumerate().skip(1) {
            // Every other step also drifts one demand, exercising the
            // combined demand + capacity decay arithmetic.
            if step % 2 == 0 {
                let k = (step * 5) % demands.len();
                demands[k] = (demands[k] + 29).max(1);
            }
            let jobs: Vec<OnionJob<'_>> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: u })
                .collect();
            let full = peel(&jobs, cap, tol, hor).unwrap();
            let inc = peel_incremental(&jobs, cap, tol, hor, true, &mut state).unwrap();
            assert_targets_bitwise(&full, &inc, &format!("capacity step {step} (C={cap})"));
            let stats = state.last_stats();
            assert!(stats.delta, "capacity step {step}: must take the delta path");
            saw_resume |= stats.resumed_at.is_some();
            max_verified = max_verified.max(stats.verified_probes);
        }
        // A capacity shift moves the max-min level itself, so most passes
        // divergence-resume partway — the point is that the drain bound
        // arithmetically verifies the dense probe prefix *before* the
        // divergence layer instead of refreshing (or re-peeling) the world.
        assert!(saw_resume, "churn never forced a divergence resume");
        assert!(max_verified >= 20, "drain bound never verified a dense probe prefix");
        // A pass with no change at all replays the whole trajectory.
        let jobs: Vec<OnionJob<'_>> = demands
            .iter()
            .zip(&utilities)
            .map(|(&d, u)| OnionJob { demand: d, utility: u })
            .collect();
        let cap = *capacities.last().unwrap();
        let full = peel(&jobs, cap, tol, hor).unwrap();
        let inc = peel_incremental(&jobs, cap, tol, hor, true, &mut state).unwrap();
        assert_targets_bitwise(&full, &inc, "quiescent replay");
        assert!(state.last_stats().resumed_at.is_none(), "quiescent pass must fully replay");
    }

    /// Context changes (job count, zero-crossings, caller flag) must force
    /// the safe full-record path; a capacity change alone does *not* — it
    /// replays as a divergence layer.
    #[test]
    fn incremental_peel_rejects_context_changes() {
        let u = sigmoid(300.0, 2.0, 0.03);
        let utilities = vec![u, u, u];
        fn jobs<'a>(d: &[u64], us: &'a [TimeUtility]) -> Vec<OnionJob<'a>> {
            d.iter().zip(us).map(|(&d, u)| OnionJob { demand: d, utility: u }).collect()
        }
        let mut state = PeelState::new();
        let j = jobs(&[100, 200, 300], &utilities);
        peel_incremental(&j, 8, 1e-4, 1e6, true, &mut state).unwrap();

        // Caller says context changed.
        peel_incremental(&j, 8, 1e-4, 1e6, false, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        // Capacity change stays on the delta path, bit-identically.
        let full = peel(&j, 9, 1e-4, 1e6).unwrap();
        let inc = peel_incremental(&j, 9, 1e-4, 1e6, true, &mut state).unwrap();
        assert_targets_bitwise(&full, &inc, "capacity delta");
        assert!(state.last_stats().delta);
        // Job count changed.
        let j2 = jobs(&[100, 200], &utilities[..2]);
        peel_incremental(&j2, 9, 1e-4, 1e6, true, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        // Demand zero-crossing.
        let j3 = jobs(&[100, 0], &utilities[..2]);
        peel_incremental(&j3, 9, 1e-4, 1e6, true, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        // And back on the happy path: same context replays.
        let j4 = jobs(&[101, 0], &utilities[..2]);
        let full = peel(&j4, 9, 1e-4, 1e6).unwrap();
        let inc = peel_incremental(&j4, 9, 1e-4, 1e6, true, &mut state).unwrap();
        assert_targets_bitwise(&full, &inc, "post-reset delta");
        assert!(state.last_stats().delta);
    }
}