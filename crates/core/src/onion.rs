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
use rush_utility::{LatestTime, SigmoidInverse, Utility};

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
        // A level only achievable before now is `Never`.
        self.base.latest_time(level).after(self.shift)
    }

    fn sigmoid_inverse(&self) -> Option<SigmoidInverse> {
        // A base already shifted by +0.0 composes (its `after(0.0)` is the
        // identity on the sigmoid's non-negative, non-NaN times); any other
        // base shift would round differently, so it keeps the slow path.
        let base = self.base.sigmoid_inverse().filter(|s| s.shift.to_bits() == 0)?;
        Some(SigmoidInverse { shift: self.shift, ..base })
    }
}

/// `job.utility.latest_time(level).deadline_within(horizon)`, bit for bit:
/// through the job's sigmoid record when it has one (`sigmoid`, from
/// [`Utility::sigmoid_inverse`]), whose `ln` term comes from `memo`.
fn inverse_deadline(
    job: &OnionJob<'_>,
    sigmoid: Option<&SigmoidInverse>,
    level: f64,
    horizon: f64,
    memo: &mut LnMemo,
) -> Option<f64> {
    match sigmoid {
        Some(s) => s.latest_time(level, || memo.ln_term(s.weight, level)),
        None => job.utility.latest_time(level),
    }
    .deadline_within(horizon)
}

/// Direct-mapped memo of [`SigmoidInverse::ln_term`] at one level: a probe
/// inverts every active job at the same level, and jobs share a handful of
/// weights, so most inversions reuse an earlier job's `ln`. Direct mapping
/// (rather than a scan) keeps continuous weights — every job distinct —
/// at O(1) per lookup.
#[derive(Default)]
struct LnMemo {
    level_bits: u64,
    /// `(weight bits, ln term)`; valid while `level_bits` is the level.
    slots: [Option<(u64, f64)>; LN_MEMO_SLOTS],
}

const LN_MEMO_SLOTS: usize = 16;

impl LnMemo {
    /// Forgets every term unless `level` is the level they were computed at.
    fn at_level(&mut self, level: f64) {
        if self.level_bits != level.to_bits() {
            self.level_bits = level.to_bits();
            self.slots = [None; LN_MEMO_SLOTS];
        }
    }

    /// The slot `weight` lives in. Fibonacci hashing: the top bits of the
    /// product mix the exponent and the high mantissa bits, where small
    /// integral weights differ.
    fn slot(weight: f64) -> usize {
        let hash = weight.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> (64 - LN_MEMO_SLOTS.ilog2())) as usize
    }

    /// `ln_term(weight, level)` for the level set by [`Self::at_level`].
    fn ln_term(&mut self, weight: f64, level: f64) -> f64 {
        debug_assert_eq!(level.to_bits(), self.level_bits, "ln memo used off its level");
        let bits = weight.to_bits();
        let slot = &mut self.slots[Self::slot(weight)];
        match *slot {
            Some((w, ln)) if w == bits => ln,
            _ => {
                let ln = SigmoidInverse::ln_term(weight, level);
                *slot = Some((bits, ln));
                ln
            }
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

impl Check {
    /// The pre-sweep verdict: `bottleneck` has demand and cannot reach the
    /// level at all.
    fn never(bottleneck: usize) -> Self {
        Check::Infeasible { bottleneck, boundary: f64::NAN, prefix_margin: 0.0, never: true }
    }
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
    /// Job index → position in `deadlines`; written by every fill, sort
    /// and compaction — tombstoning never moves entries, so it is always
    /// current.
    pos_of: Vec<u32>,
    /// Resume point for the merged sweep (see [`SweepCursor`]).
    cursor: SweepCursor,
    /// The kept `never` scan (see [`NeverList`]).
    nevers: NeverList,
    /// The `ln` terms of the level last inverted at.
    ln: LnMemo,
    /// The earliest due time of a job with demand at the level last
    /// inverted at (see [`ProbeRec::reach`]); removals only raise it.
    reach: f64,
}

/// The result of the last `never` scan, kept instead of discarded: every
/// positive-demand entry that cannot reach the level `level_bits` at all,
/// in ascending job index — the order the scan reports bottlenecks in. A
/// supremum-capped peel probes one level for a whole run of layers, each
/// answered by the *next* job of this list (the previous answer was peeled
/// and the live set only shrinks), so while the level repeats a probe costs
/// O(1) instead of re-inverting every deadline.
///
/// Invalidated by: `fill`/`fill_active`, a probe at other level bits (its
/// scan overwrites the list), and the removal of a listed job other than
/// the next answer.
#[derive(Default)]
struct NeverList {
    kept: bool,
    level_bits: u64,
    jobs: Vec<usize>,
    /// First entry not yet removed from the live set.
    next: usize,
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
        self.pos_of = (0..jobs.len() as u32).collect();
        self.alive = self.deadlines.len();
        self.filled = false;
        self.cursor.valid = false;
        self.nevers.kept = false;
    }

    /// Fills from an explicit active set of jobs below `n` (delta-replay
    /// materialization). Entry order does not matter for probe results —
    /// `check_level` re-sorts by a total order — but ascending index
    /// matches what the from-scratch loop's removals would have left.
    fn fill_active(&mut self, active: &[usize], n: usize) {
        self.deadlines.clear();
        self.deadlines.extend(active.iter().map(|&i| (0.0, i)));
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        self.reindex();
        self.alive = self.deadlines.len();
        self.filled = false;
        self.cursor.valid = false;
        self.nevers.kept = false;
    }

    /// Rebuilds `pos_of` from the entries' current positions.
    fn reindex(&mut self) {
        for (pos, &(_, i)) in self.deadlines.iter().enumerate() {
            if i != DEAD {
                self.pos_of[i] = pos as u32;
            }
        }
    }

    /// Drops tombstones, keeping the order of the live entries; positions
    /// shift, so `pos_of` and the sweep cursor go stale (the caller
    /// reindexes). Returns whether anything was dropped.
    fn drop_tombstones(&mut self) -> bool {
        if self.deadlines.len() == self.alive {
            return false;
        }
        self.deadlines.retain(|&(_, i)| i != DEAD);
        self.cursor.valid = false;
        true
    }

    fn remove(&mut self, job: usize) {
        // Position-indexed: tombstone in place.
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
        if self.nevers.kept {
            // The layer that a `never` probe closes removes that probe's
            // answer; anything else leaving the list breaks its order.
            if self.nevers.jobs.get(self.nevers.next) == Some(&job) {
                self.nevers.next += 1;
            } else if self.nevers.jobs[self.nevers.next.min(self.nevers.jobs.len())..]
                .binary_search(&job)
                .is_ok()
            {
                self.nevers.kept = false;
            }
        }
        // Amortized compaction: once tombstones outnumber live entries,
        // drop them — order-preserving, so a sorted memo stays valid —
        // and rebuild the position index. Keeps probe sweeps O(live)
        // while removal stays O(1) amortized.
        if self.deadlines.len() > 2 * self.alive + 16 {
            self.drop_tombstones();
            self.reindex();
        }
    }
}

/// Sorts probe entries by `(deadline, job)`. Neighbouring probe levels
/// barely reorder the deadlines, so an insertion pass usually finishes in
/// O(n) moves; past a budget of `2n` moves it hands the rest to the library
/// sort. The keys are unique (one entry per job), so either way the order is
/// the one total order.
fn sort_deadlines(entries: &mut [(f64, usize)]) {
    let before = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut budget = 2 * entries.len();
    for k in 1..entries.len() {
        let x = entries[k];
        let mut j = k;
        while j > 0 && before(&x, &entries[j - 1]).is_lt() {
            if budget == 0 {
                entries[j] = x;
                entries.sort_by(before);
                return;
            }
            budget -= 1;
            entries[j] = entries[j - 1];
            j -= 1;
        }
        entries[j] = x;
    }
}

/// Tests whether level `L` is feasible for the active jobs (the entries of
/// `scratch`) given the committed reservations of already-peeled jobs.
/// `sigmoids` holds each job's [`Utility::sigmoid_inverse`].
fn check_level(
    jobs: &[OnionJob<'_>],
    sigmoids: &[Option<SigmoidInverse>],
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
    // the inversion and sort are skipped wholesale. A scan that *did* find
    // never-bottlenecks keeps them too (see [`NeverList`]).
    if !(scratch.filled && scratch.level_bits == level.to_bits()) {
        scratch.cursor.valid = false;
        // Kept list hit: the last scan ran at these exact level bits over a
        // superset of the current entries, and every removal since was
        // accounted for — its next job is what a rescan would report.
        if scratch.nevers.kept && scratch.nevers.level_bits == level.to_bits() {
            if let Some(&b) = scratch.nevers.jobs.get(scratch.nevers.next) {
                return Check::never(b);
            }
        }
        scratch.nevers.kept = false;
        scratch.nevers.jobs.clear();
        // Only live entries are inverted and sorted.
        let compacted = scratch.drop_tombstones();
        scratch.ln.at_level(level);
        scratch.reach = f64::INFINITY;
        for slot in &mut scratch.deadlines {
            let i = slot.1;
            let sigmoid = sigmoids[i].as_ref();
            match inverse_deadline(&jobs[i], sigmoid, level, horizon, &mut scratch.ln) {
                Some(d) => {
                    slot.0 = d;
                    if jobs[i].demand > 0 {
                        scratch.reach = scratch.reach.min(d);
                    }
                }
                None => {
                    if jobs[i].demand > 0 {
                        scratch.nevers.jobs.push(i);
                    }
                    // Demand-free jobs never block a layer: park them past
                    // every finite deadline.
                    slot.0 = f64::INFINITY;
                }
            }
        }
        if !scratch.nevers.jobs.is_empty() {
            if compacted {
                scratch.reindex();
            }
            scratch.nevers.jobs.sort_unstable();
            scratch.nevers.level_bits = level.to_bits();
            scratch.nevers.next = 0;
            scratch.nevers.kept = true;
            scratch.filled = false;
            return Check::never(scratch.nevers.jobs[0]);
        }
        sort_deadlines(&mut scratch.deadlines);
        scratch.reindex();
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

/// How a layer that converged to `lo` closes on job `b`: deferred at
/// `min(lo, sup)` when the job is deadline-free there, else peeled at `lo`
/// with a target of the latest completion attaining `min(lo, sup)` — a job
/// is never asked to exceed its own supremum — within the horizon. One
/// inversion, through the job's sigmoid record when it has one.
///
/// Deadline-free means its utility no longer depends on when it runs:
/// either the level has collapsed to ~0 (nothing left to gain) or the
/// utility is flat at/above the level (time-insensitive).
fn close_on(
    jobs: &[OnionJob<'_>],
    sigmoids: &[Option<SigmoidInverse>],
    sups: &[f64],
    b: usize,
    lo: f64,
    horizon: f64,
) -> ActionRec {
    let (sup, level) = (sups[b], lo.min(sups[b]));
    if level <= ZERO_LEVEL && sup > ZERO_LEVEL {
        return ActionRec::Defer { job: b, level };
    }
    let latest = match &sigmoids[b] {
        Some(s) => s.latest_time(level, || SigmoidInverse::ln_term(s.weight, level)),
        None => jobs[b].utility.latest_time(level),
    };
    match latest {
        LatestTime::Always => ActionRec::Defer { job: b, level },
        // `Never`: a level above sup by floating-point noise completes ASAP.
        _ => {
            let deadline = latest.deadline_within(horizon).map_or(0.0, |d| d.max(0.0));
            ActionRec::Peel { job: b, level: lo, deadline }
        }
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
    peel_incremental(jobs, capacity, tolerance, horizon, JobEdit::COLD, &mut PeelState::new())
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
    /// A lower bound on the due time at `level` of every job with demand
    /// in the probe's active set: what a slot tick may subtract before one
    /// of them can no longer reach the level.
    reach: f64,
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
    /// The bisection's upper cap (max live supremum plus one tolerance) —
    /// the one input of a layer's probe levels that a job-set edit can move
    /// without touching any probe. `NaN` when the floor was infeasible (no
    /// bisection ran).
    hi_cap: f64,
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
    /// `sup()` per job, evaluated once per job *identity* — it costs a
    /// transcendental for the sigmoid class, and a job that survives into
    /// the next pass keeps its value (see [`PeelState`]).
    sups: Vec<f64>,
    /// [`Utility::sigmoid_inverse`] per job, kept the same way: it carries
    /// the unshifted `sup()`, so a probe inverts a sigmoid with one `ln`.
    sigmoids: Vec<Option<SigmoidInverse>>,
}

/// The global floor a peel starts from: the lowest utility any job can end
/// up with.
fn initial_floor(jobs: &[OnionJob<'_>]) -> f64 {
    let lo = jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
    if lo.is_finite() {
        lo
    } else {
        0.0
    }
}

impl<'j, 'u> PeelCtx<'j, 'u> {
    fn fresh(jobs: &'j [OnionJob<'u>], capacity: u32, tolerance: f64, horizon: f64) -> Self {
        let level_lo = initial_floor(jobs);
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
            sups: jobs.iter().map(|j| j.utility.sup()).collect(),
            sigmoids: jobs.iter().map(|j| j.utility.sigmoid_inverse()).collect(),
        }
    }

    /// One feasibility probe at `level` against the current state, recorded
    /// in the trace.
    fn probe(&mut self, level: f64) -> Check {
        let (jobs, sigmoids, scratch) = (self.jobs, &self.sigmoids, &mut self.scratch);
        let outcome =
            check_level(jobs, sigmoids, scratch, &self.index, self.capacity, self.horizon, level);
        self.trace.probes.push(ProbeRec { level, reach: scratch.reach, outcome });
        outcome
    }
}

/// The live jobs of `active` in descending-supremum order (ties by index):
/// with a cursor that skips removed jobs, a layer's maximum live supremum
/// is O(1) amortized instead of an O(n) fold, and the first live entry
/// under this total order is exactly the fold's maximum.
fn descending_sups(sups: &[f64], live: impl Iterator<Item = usize>) -> Vec<(f64, usize)> {
    let mut order: Vec<(f64, usize)> = live.map(|i| (sups[i], i)).collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    order
}

/// A layer's bisection cap: one tolerance above the highest level any live
/// job could still reach (never below one tolerance above the floor).
fn bisection_cap(max_live_sup: Option<f64>, level_lo: f64, tolerance: f64) -> f64 {
    let level_hi = max_live_sup.unwrap_or(f64::NEG_INFINITY).max(level_lo);
    (level_hi + tolerance).max(level_lo + tolerance)
}

/// The peeling loop (Algorithm 3's outer iteration), recording a
/// [`PeelTrace`] as it goes. May start from a mid-run context — the
/// delta-replay resume path — and behaves exactly as if a from-scratch run
/// had reached that state.
fn run_layers(ctx: &mut PeelCtx<'_, '_>) {
    let jobs = ctx.jobs;
    let (tolerance, horizon) = (ctx.tolerance, ctx.horizon);
    let sups = descending_sups(&ctx.sups, ctx.active.iter().copied().filter(|&i| i != DEAD));
    let mut sup_cursor = 0usize;
    while ctx.active_count > 0 {
        let probe_start = ctx.trace.probes.len() as u32;
        let mut lo = ctx.level_lo;
        let mut bottleneck: Option<usize> = None;
        let mut hi_cap = f64::NAN;
        // The floor itself may be infeasible in overload; the bottleneck of
        // the floor check then peels at the floor level.
        let floor_ok = ctx.floor_feasible || {
            match ctx.probe(lo) {
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
            hi_cap = bisection_cap(sups.get(sup_cursor).map(|&(s, _)| s), lo, tolerance);
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
                match ctx.probe(hi) {
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
                match ctx.probe(mid) {
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
                let action = close_on(jobs, &ctx.sigmoids, &ctx.sups, b, lo, horizon);
                debug_assert_eq!(ctx.active[b], b, "active-slot invariant");
                ctx.active[b] = DEAD;
                ctx.active_count -= 1;
                ctx.scratch.remove(b);
                // Removing demand can only help: a floor proven feasible this
                // layer stays feasible. Peeling keeps it exactly (the demand
                // moves from the sweep to a reservation at the same
                // deadline), and later layers can only improve on this level;
                // a floor this layer did not prove must be re-probed.
                ctx.floor_feasible = floor_ok;
                match action {
                    // The job's utility no longer depends on when it runs —
                    // either it can gain nothing (level ~0) or its utility is
                    // flat at this level (time-insensitive). Defer it: it will
                    // be slotted into leftover capacity once every job that
                    // *does* care has been peeled.
                    ActionRec::Defer { level, .. } => ctx.deferred.push((b, level)),
                    ActionRec::Peel { deadline, .. } => {
                        if !floor_ok {
                            ctx.overloaded = true;
                        }
                        ctx.targets.push(Target { job: b, level: lo, deadline, lax: false });
                        ctx.committed.push((deadline, jobs[b].demand));
                        ctx.index.insert(deadline, jobs[b].demand);
                        ctx.level_lo = lo;
                    }
                    ActionRec::FinishAll { .. } => {}
                }
                let layer = LayerRec { probe_start, probe_len, floor_ok, hi_cap, action };
                ctx.trace.layers.push(layer);
            }
            None => {
                // Everything feasible up to every job's supremum: peel all
                // remaining jobs at the converged level.
                for &i in &ctx.active {
                    if i == DEAD {
                        continue;
                    }
                    match close_on(jobs, &ctx.sigmoids, &ctx.sups, i, lo, horizon) {
                        ActionRec::Peel { deadline, .. } => {
                            let level = lo.min(ctx.sups[i]);
                            ctx.targets.push(Target { job: i, level, deadline, lax: false });
                            ctx.committed.push((deadline, jobs[i].demand));
                            ctx.index.insert(deadline, jobs[i].demand);
                        }
                        ActionRec::Defer { level, .. } => ctx.deferred.push((i, level)),
                        ActionRec::FinishAll { .. } => {}
                    }
                }
                ctx.active.clear();
                ctx.active_count = 0;
                ctx.trace.layers.push(LayerRec {
                    probe_start,
                    probe_len,
                    floor_ok: true,
                    hi_cap,
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
    /// Whether the pass took the delta-replay path at all. False means a
    /// full re-peel, because:
    /// - the state holds no valid recording (a first pass, or
    ///   [`PeelState::invalidate`]);
    /// - the tolerance or the horizon changed;
    /// - [`JobEdit::tick`] is negative or not finite;
    /// - [`JobEdit::prev`] does not have one entry per job;
    /// - its indices do not ascend strictly, or one is past the recorded
    ///   job count;
    /// - a surviving job's demand crossed zero;
    /// - no job of this pass was in the recorded one;
    /// - [`JobEdit::departed`] does not list exactly the recorded jobs
    ///   nobody continues.
    pub delta: bool,
    /// Recorded layers whose trajectory was verified and applied.
    pub replayed_layers: usize,
    /// Index, among the *recorded* layers, at which replay fell back to
    /// the real peeling loop (`None`: replay ran to completion; the
    /// recorded layer count: every recorded layer was replayed and the
    /// loop only peeled what was still active after the last one).
    pub resumed_at: Option<usize>,
    /// Probes re-verified in O(1) arithmetic, without a sweep.
    pub verified_probes: usize,
    /// Probes re-executed for real against materialized sweep state.
    pub refreshed_probes: usize,
    /// Recorded layers of departed jobs dropped from the trace unprobed.
    pub dropped_layers: usize,
    /// Layers of arrived jobs spliced into the trace.
    pub spliced_layers: usize,
}

/// How the job list of a [`peel_incremental`] pass relates to the list of
/// the pass its [`PeelState`] recorded: the edit that turns one into the
/// other. Both lists share their order.
#[derive(Clone, Copy)]
pub struct JobEdit<'a, 'u> {
    /// For each job of this pass, its index in the recorded pass (`None`:
    /// the job is new). The `Some` values ascend strictly, and a mapped job
    /// carries the utility it was recorded under moved `tick` slots later
    /// (a [`Shifted`] whose age grew by exactly `tick`) — only that and its
    /// demand may differ. The identity map says "same jobs"; all `None` (or
    /// a map of the wrong length) says "nothing in common" and peels from
    /// scratch.
    pub prev: &'a [Option<usize>],
    /// The utilities of the recorded jobs no entry of `prev` names — the
    /// departed jobs — in recorded order, as they were recorded (no tick).
    /// A departed job is replayed as a job that left the boundary set,
    /// which needs to know where its demand was due.
    pub departed: &'a [&'u dyn Utility],
    /// Slots the clock advanced since the recorded pass: every due time
    /// of a mapped job moved `tick` slots closer (one the horizon clamps
    /// moves less).
    pub tick: f64,
}

impl JobEdit<'_, '_> {
    /// The edit of a pass that shares nothing with the recorded one.
    pub const COLD: JobEdit<'static, 'static> = JobEdit {
        prev: &[],
        departed: &[],
        tick: 0.0,
    };
}

/// Cross-pass state for [`peel_incremental`]: the previous pass's
/// execution trace, demands and parameters.
///
/// The state is opaque; it only promises that feeding consecutive passes
/// through it yields plans bit-identical to from-scratch [`peel`] calls.
#[derive(Default, Debug, Clone)]
pub struct PeelState {
    trace: PeelTrace,
    /// The buffers of the trace before `trace`, recycled: a replay writes
    /// the re-indexed trace here and swaps.
    spare: PeelTrace,
    demands: Vec<u64>,
    /// `sup()` per recorded job (see [`PeelCtx::sups`]).
    sups: Vec<f64>,
    /// Sigmoid record per recorded job (see [`PeelCtx::sigmoids`]).
    sigmoids: Vec<Option<SigmoidInverse>>,
    /// The floor the recorded pass started from.
    floor: f64,
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

    /// The demand of each job of the recorded pass.
    pub(crate) fn demands(&self) -> &[u64] {
        &self.demands
    }

    /// Checks `edit` against the recorded pass and inverts it: for each
    /// recorded job its index in this pass, [`DEAD`] when it departed.
    /// `None` when the pass cannot be replayed at all.
    fn align(
        &self,
        jobs: &[OnionJob<'_>],
        tolerance: f64,
        horizon: f64,
        edit: &JobEdit<'_, '_>,
    ) -> Option<Vec<usize>> {
        let recorded = self.demands.len();
        if !(self.valid
            && edit.prev.len() == jobs.len()
            && (0.0..f64::INFINITY).contains(&edit.tick)
            && self.tolerance.to_bits() == tolerance.to_bits()
            && self.horizon.to_bits() == horizon.to_bits())
        {
            return None;
        }
        let mut now_at = vec![DEAD; recorded];
        let mut unclaimed_from = 0usize;
        let mut survivors = 0usize;
        for (j, (job, was)) in jobs.iter().zip(edit.prev).enumerate() {
            let Some(i) = *was else { continue };
            // A demand crossing zero flips the job's never-blocks/∞-sentinel
            // classification inside probes; replay does not model that.
            if i < unclaimed_from || i >= recorded || (job.demand == 0) != (self.demands[i] == 0) {
                return None;
            }
            now_at[i] = j;
            unclaimed_from = i + 1;
            survivors += 1;
        }
        (survivors > 0 && edit.departed.len() == recorded - survivors).then_some(now_at)
    }
}

/// Absolute slack (container·slots) a recorded margin must retain beyond
/// the demand delta before arithmetic re-verification is trusted; covers
/// accumulated f64 rounding from margin decay across events.
const REPLAY_GUARD: f64 = 1e-6;

/// [`peel`] with cross-pass memoization: the recorded probe trajectory of
/// the previous pass is *replayed* under `edit` instead of re-peeled.
/// Demands, the capacity, the job set itself and the clock may all have
/// moved; tolerance and horizon are checked against the state.
///
/// Every event is one **drift** of the condition each probe tests at a
/// boundary `e`, the budget `C·e` against the load `Σ_{T_k ≤ e} η_k`: the
/// budget moves by `ΔC·e`, each changed job moves the load by its demand
/// delta at its due time, and a tick of Δ slots moves every due time down
/// by at most Δ, so every budget falls by at most `C·Δ`. A job in both
/// passes stays a member of the boundary set; an arrival joined it, a
/// departure left it. One rule, re-checked in O(changed jobs) arithmetic,
/// decides whether a recorded probe stands:
///
/// - a **feasible** probe stays feasible while its minimum slack absorbs all
///   growth — members' demand increases, joiners' demand, a revocation's
///   drain, a tick's `C·Δ` — and each joiner's own new boundary holds;
/// - a **boundary violation** stands while the budget did not grow nor the
///   clock move, every shrinking or joining job (a departure of the job
///   blamed included) is due strictly after the boundary, and the
///   pre-violation slack absorbs the growth;
/// - a **`never`** answer stands unless the answer left, a member due
///   within the tick may have moved out of reach, or a lower-indexed joiner
///   with demand cannot reach the level either.
///
/// Around that rule sit the rules for the layer structure itself. A
/// departed job's own layer leaves the trace unprobed when it handed nothing
/// on (same floor, same `floor_feasible`). An arrival that cannot reach the
/// first probe of a layer entered on a feasible floor — where a
/// from-scratch run would peel it — has its layer spliced in ahead. A layer
/// whose bisection cap moved stands only if its gallop broke out below the
/// new cap, and an edit that moves the floor shares no probe at all. After
/// a tick each layer's action is re-timed at its level in the new frame.
///
/// Probes that cannot be verified arithmetically are re-executed against
/// materialized sweep state (under the *new* capacity and job set); the
/// first probe whose *outcome* actually flips — or the first layer no rule
/// above covers — aborts the replay and resumes the real peeling loop from
/// that layer, on exactly the state a from-scratch run would have reached,
/// so the result is bitwise identical to [`peel`] in every case.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] under the same conditions as [`peel`].
pub fn peel_incremental(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    edit: JobEdit<'_, '_>,
    state: &mut PeelState,
) -> Result<Vec<Target>, CoreError> {
    validate_params(capacity, tolerance, horizon)?;
    let Some(now_at) = state.align(jobs, tolerance, horizon, &edit) else {
        let mut ctx = PeelCtx::fresh(jobs, capacity, tolerance, horizon);
        state.floor = ctx.level_lo;
        state.trace.clear();
        std::mem::swap(&mut ctx.trace, &mut state.trace);
        run_layers(&mut ctx);
        finish_deferred(&mut ctx);
        debug_check_theorem2(&ctx.committed, capacity, ctx.overloaded);
        state.trace = ctx.trace;
        state.sups = ctx.sups;
        state.sigmoids = ctx.sigmoids;
        state.demands.clear();
        state.demands.extend(jobs.iter().map(|j| j.demand));
        state.capacity = capacity;
        state.tolerance = tolerance;
        state.horizon = horizon;
        state.valid = true;
        state.stats = ReplayStats::default();
        return Ok(ctx.targets);
    };
    Ok(Replay::new(jobs, capacity, tolerance, horizon, &edit, &now_at, state).run(&now_at, state))
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

/// One job whose demand differs from the recorded pass: its share of the
/// [`Drift`]. A job in both passes stays a member of the boundary set; an
/// arrival joined it with its whole demand, a departure left it with its
/// whole demand.
struct JobDrift<'u> {
    /// Index in this pass — in the recorded pass for a job that left.
    idx: usize,
    /// The utility its due time is read from (the recorded one for a job
    /// that left: it is not among this pass's jobs).
    utility: &'u dyn Utility,
    /// `new − old`; exact in f64 for demands below 2⁵³.
    delta: f64,
    /// Only in this pass.
    joined: bool,
    /// Only in the recorded pass.
    left: bool,
    status: ChangedStatus,
    /// Memoized `latest_time(level).deadline_within(horizon)` keyed by the
    /// level's bits: cascade layers probe long runs of one level, and the
    /// utility inversion is the only transcendental in the verify path.
    inv: Option<(u64, Option<f64>)>,
}

impl JobDrift<'_> {
    /// Whether the job's demand bears on the current layer's probes: a
    /// deferred job's does not.
    fn in_play(&self) -> bool {
        self.status != ChangedStatus::Deferred
    }

    /// When the job's demand is due at a probe of `level`: its target once
    /// committed, else its deadline at that level (`None`: it cannot reach
    /// the level). Not meaningful for a deferred job.
    fn due(&mut self, level: f64, horizon: f64) -> Option<f64> {
        if let ChangedStatus::Committed(t) = self.status {
            return Some(t);
        }
        match self.inv {
            Some((bits, d)) if bits == level.to_bits() => d,
            _ => {
                let d = self.utility.latest_time(level).deadline_within(horizon);
                self.inv = Some((level.to_bits(), d));
                d
            }
        }
    }
}

/// Everything that moved between the recorded pass and this one, in the
/// terms of the condition every probe tests at each boundary `e`: the
/// budget `C·e` against the load `Σ_{T_k ≤ e} η_k`. The budget moves by
/// `ΔC·e`; each changed job moves the load by its demand delta at its due
/// time, and may have joined or left the boundary set. [`Drift::stands`]
/// re-verifies every recorded probe against it, whatever the event.
struct Drift<'u> {
    /// This pass's capacity `C` and horizon; [`Replay`] reads them here.
    capacity: u32,
    horizon: f64,
    /// Containers revoked since the recorded pass (0 when the capacity
    /// grew or held).
    revoked: f64,
    grew: bool,
    /// `revoked / C_old` — the relative shrink.
    shrink: f64,
    /// How far any due time moved down since the recorded pass: the tick
    /// plus [`tick_slop`] (0 without a tick). Every boundary's budget falls
    /// by at most `C·lag`.
    lag: f64,
    /// Total demand of the recorded pass, an upper bound on the load at
    /// any swept boundary.
    demand_bound: f64,
    /// The changed jobs: departures in recorded order, then this pass's
    /// moved and arrived jobs in ascending index.
    jobs: Vec<JobDrift<'u>>,
    /// Under the layer being replayed (see [`Drift::enter_layer`]): the
    /// in-play members' demand increases, the in-play joiners' demand, and
    /// whether nothing at all moved under it.
    grown: f64,
    joined: f64,
    still: bool,
}

impl<'u> Drift<'u> {
    fn new(
        jobs: &[OnionJob<'u>],
        capacity: u32,
        horizon: f64,
        edit: &JobEdit<'_, 'u>,
        now_at: &[usize],
        state: &PeelState,
    ) -> Self {
        let mut changed = Vec::new();
        let mut change = |idx, utility, delta, joined, left| {
            let status = ChangedStatus::Active;
            changed.push(JobDrift { idx, utility, delta, joined, left, status, inv: None });
        };
        let gone = now_at.iter().enumerate().filter(|&(_, &j)| j == DEAD);
        for ((i, _), &utility) in gone.zip(edit.departed) {
            change(i, utility, -(state.demands[i] as f64), false, true);
        }
        for (j, (job, was)) in jobs.iter().zip(edit.prev).enumerate() {
            match *was {
                Some(i) if job.demand != state.demands[i] => {
                    let delta = job.demand as f64 - state.demands[i] as f64;
                    change(j, job.utility, delta, false, false);
                }
                Some(_) => {}
                None => change(j, job.utility, job.demand as f64, true, false),
            }
        }
        let revoked = f64::from(state.capacity.saturating_sub(capacity));
        Drift {
            capacity,
            horizon,
            revoked,
            grew: capacity > state.capacity,
            shrink: revoked / f64::from(state.capacity.max(1)),
            lag: if edit.tick > 0.0 { edit.tick + tick_slop(horizon) } else { 0.0 },
            demand_bound: state.demands.iter().map(|&d| d as f64).sum(),
            jobs: changed,
            grown: 0.0,
            joined: 0.0,
            still: false,
        }
    }

    /// Sums what moved under the next recorded layer: a job deferred by an
    /// earlier layer no longer counts.
    fn enter_layer(&mut self) {
        (self.grown, self.joined) = (0.0, 0.0);
        self.still = self.revoked == 0.0 && !self.grew && self.lag == 0.0;
        for j in self.jobs.iter().filter(|j| j.in_play()) {
            self.still = false;
            if j.joined {
                self.joined += j.delta;
            } else {
                self.grown += j.delta.max(0.0);
            }
        }
    }

    /// Upper-bounds the budget a revocation drains at any boundary up to
    /// `boundary_cap` whose recorded slack was at least `margin`: the drain
    /// at boundary `e` is `revoked·e`, and `C_old·e = slack + load − ε ≤
    /// slack + demand_bound` gives the usually far tighter
    /// `revoked·e ≤ shrink·(slack + demand_bound)`. The bound is increasing
    /// in slack, so evaluating it at the recorded minimum bounds the
    /// post-drift minimum from below.
    fn drain(&self, margin: f64, boundary_cap: f64) -> f64 {
        (self.revoked * boundary_cap).min(self.shrink * (margin + self.demand_bound))
    }

    /// The lowest-indexed in-play joiner with demand that cannot reach
    /// `level` — the `never` scan's answer among the joiners — as a
    /// position in `jobs` (joiners are listed in ascending index).
    fn unreachable_joiner(&mut self, level: f64) -> Option<usize> {
        let horizon = self.horizon;
        self.jobs.iter_mut().position(|j| {
            j.joined && j.in_play() && j.delta > 0.0 && j.due(level, horizon).is_none()
        })
    }

    /// The one replay rule: whether a recorded probe's outcome — the sign
    /// of `C·e − load(e)` at its boundaries, and the job that answers it —
    /// stands under the drift. Returns the updated record (margins
    /// conservatively decayed) or `None` when only a real probe can tell.
    ///
    /// Growth is what can only eat slack: a member's demand increase, a
    /// joiner's whole demand, a revocation's drain. Shrinks — a member's
    /// decrease, a leaver's whole demand, a capacity increase — only add
    /// slack, and could heal a violation. A joiner that cannot reach the
    /// level answers `never` when it has demand, and is parked past every
    /// boundary when it has none.
    ///
    /// A slot tick moves every due time down by at most `lag`, so every
    /// boundary's budget falls by at most `C·lag`: growth, charged like a
    /// drain. It also moves a job due before `lag` out of reach of the
    /// level; [`ProbeRec::reach`] says whether one can be.
    fn stands(&mut self, probe: ProbeRec) -> Option<ProbeRec> {
        if self.still {
            return Some(probe);
        }
        let (level, horizon) = (probe.level, self.horizon);
        let c = f64::from(self.capacity);
        let outcome = match probe.outcome {
            // Every boundary keeps at least its slack less the growth; the
            // recorded margin understates what shrinks added (conservative:
            // it can only force an extra refresh). A job with demand is due
            // no earlier than `(1 + margin)/C`, so a margin that absorbs
            // `C·lag` also keeps every job in reach.
            Check::Feasible { margin } => {
                let decay = self.grown + self.joined + self.drain(margin, horizon) + c * self.lag;
                // Exact zero means no decaying deltas exist, not a rounded value.
                if decay == 0.0 {
                    return Some(probe);
                }
                // A joiner also adds a boundary of its own, at its due time
                // `e`. With a recorded boundary at or before `e` the load
                // there is that boundary's plus the joiners', which the
                // decayed margin covers; with none it is the joiners' alone,
                // which must fit under `C·e`.
                let mut margin = margin - decay;
                let joined = self.joined;
                for j in self.jobs.iter_mut().filter(|j| j.joined && j.in_play()) {
                    match j.due(level, horizon) {
                        Some(e) => margin = margin.min(c * e - joined),
                        None if j.delta > 0.0 => return None,
                        None => {}
                    }
                }
                if margin < REPLAY_GUARD {
                    return None;
                }
                Check::Feasible { margin }
            }
            // The `never` scan reads utilities and the demand>0 pattern only
            // — independent of the budget and of every member's demand
            // (eligibility pins their zero pattern) — and reports the lowest
            // index: the answer stands unless it left, a member the tick
            // moved out of reach may be lower-indexed, or a lower-indexed
            // joiner cannot reach the level either. (A tick keeps the answer
            // out of reach: it only moves due times down.)
            Check::Infeasible { bottleneck, never: true, .. } => {
                if bottleneck == DEAD || (self.lag > 0.0 && probe.reach <= self.lag) {
                    return None;
                }
                let joiner = self.unreachable_joiner(level).map(|at| self.jobs[at].idx);
                if joiner.is_some_and(|idx| idx < bottleneck) {
                    return None;
                }
                probe.outcome
            }
            Check::Infeasible { bottleneck, boundary, prefix_margin, never: false } => {
                // A grown budget could heal the violated boundary. A tick
                // cannot, but due times do not all move by the same Δ (a
                // clamp, a re-timed target, rounding), so two boundaries
                // close together may swap (DESIGN.md §12): only a real
                // probe tells which breaks first, and who is blamed.
                if self.grew || self.lag > 0.0 {
                    return None;
                }
                // A shrink at or before the boundary could heal it, and a
                // joiner there could move the violation earlier or change
                // who is blamed: both must be due strictly after it. (A
                // member's increase may sit anywhere — the slack below.)
                // The job blamed is due at or before the boundary, so its
                // departure is such a shrink; the one exception, a boundary
                // the committed set breaks alone, needs an infeasible floor
                // and so only occurs as the blamed job's own one-probe
                // layer, which is dropped or resumed before it is verified.
                for j in self.jobs.iter_mut().filter(|j| j.in_play()) {
                    if j.joined || j.left || j.delta < 0.0 {
                        match j.due(level, horizon) {
                            Some(e) if e > boundary => {}
                            None if j.joined && j.delta == 0.0 => {}
                            _ => return None,
                        }
                    }
                }
                // Growth before the boundary cannot heal the violation; it
                // could only move it *earlier*, which the pre-violation slack
                // rules out.
                let decay = self.grown + self.drain(prefix_margin, boundary);
                if decay > prefix_margin - REPLAY_GUARD {
                    return None;
                }
                let prefix_margin = prefix_margin - decay;
                Check::Infeasible { bottleneck, boundary, prefix_margin, never: false }
            }
        };
        Some(ProbeRec { level, reach: self.reach(level, probe.reach), outcome })
    }

    /// A recorded probe's [`ProbeRec::reach`] in this pass's frame: moved
    /// down by the lag, and lowered to the due time of every in-play joiner
    /// with demand.
    fn reach(&mut self, level: f64, reach: f64) -> f64 {
        let horizon = self.horizon;
        self.jobs
            .iter_mut()
            .filter(|j| j.joined && j.in_play() && j.delta > 0.0)
            .filter_map(|j| j.due(level, horizon))
            .fold(reach - self.lag, f64::min)
    }
}

/// Rounding a due time re-measured after a tick can add: `U⁻¹(L) − (a+Δ)`
/// and `(U⁻¹(L) − a) − Δ` are each within half an ulp of the exact value,
/// and every due time is clamped to the horizon.
fn tick_slop(horizon: f64) -> f64 {
    8.0 * f64::EPSILON * horizon
}

/// A per-job value of this pass (`sup()`, the sigmoid record) carried over
/// from the recorded pass's `recorded`: moved out whole when the job list is
/// unchanged (`!edited`), else gathered through `prev`, with `fresh(j)` for
/// an arrival — and for every job after a tick, which moved each job's
/// shift.
fn carried<T: Copy>(
    recorded: &mut Vec<T>,
    edited: bool,
    edit: &JobEdit<'_, '_>,
    fresh: impl Fn(usize) -> T,
) -> Vec<T> {
    if edit.tick > 0.0 {
        return (0..edit.prev.len()).map(fresh).collect();
    }
    if !edited {
        return std::mem::take(recorded);
    }
    edit.prev
        .iter()
        .enumerate()
        .map(|(j, was)| was.map_or_else(|| fresh(j), |i| recorded[i]))
        .collect()
}

impl ProbeRec {
    /// The recorded probe with its job index rewritten for this pass
    /// ([`DEAD`] when the job departed — no fresh probe can name it, so it
    /// never compares equal).
    fn reindexed(mut self, now_at: &[usize]) -> Self {
        if let Check::Infeasible { bottleneck, .. } = &mut self.outcome {
            *bottleneck = now_at[*bottleneck];
        }
        self
    }
}

impl ActionRec {
    /// The recorded action with the job it closed on as this pass indexes
    /// it.
    fn reindexed(mut self, now_at: &[usize]) -> Self {
        if let ActionRec::Defer { job, .. } | ActionRec::Peel { job, .. } = &mut self {
            *job = now_at[*job];
        }
        self
    }
}

/// Whether a freshly executed probe confirms the recorded trajectory. A
/// layer's control flow reads every probe's outcome variant, but a
/// bottleneck's identity only from its last infeasible probe — the
/// `decisive` one, whose bottleneck the layer's action removes.
fn same_trajectory(fresh: Check, rec: Check, decisive: bool) -> bool {
    match (fresh, rec) {
        (Check::Feasible { .. }, Check::Feasible { .. }) => true,
        (Check::Infeasible { bottleneck: a, .. }, Check::Infeasible { bottleneck: b, .. }) => {
            a == b || !decisive
        }
        _ => false,
    }
}

/// What the start of a recorded layer means for the arrivals still active.
enum Splice {
    /// No arrival peels here: verify the recorded layer as it stands.
    NotHere,
    /// An arrival's one-probe layer went in ahead of the recorded one.
    Done,
    /// An arrival peels here, but not in a layer arithmetic can write.
    Diverged,
}

/// The delta-replay pass: the state a from-scratch run would hold at the
/// start of the recorded layer being replayed, rebuilt from the recorded
/// actions alone. See [`peel_incremental`] for the contract.
struct Replay<'j, 'u> {
    jobs: &'j [OnionJob<'u>],
    tolerance: f64,
    /// Also holds the pass's capacity and horizon.
    drift: Drift<'u>,
    /// Whether a layer's bisection cap can move: the job set changed (a
    /// departure or an arrival), or a tick moved every supremum.
    recap: bool,
    sups: Vec<f64>,
    sigmoids: Vec<Option<SigmoidInverse>>,
    /// Descending-supremum order of this pass's jobs with its cursor (only
    /// built when `recap`).
    by_sup: Vec<(f64, usize)>,
    sup_cursor: usize,
    removed: Vec<bool>,
    removed_count: usize,
    committed: Vec<(f64, u64)>,
    deferred: Vec<(usize, f64)>,
    targets: Vec<Target>,
    level_lo: f64,
    floor_feasible: bool,
    overloaded: bool,
    /// Sweep state materialized at the first refresh probe, then kept in
    /// sync lazily: layer actions only bump `removed`/`committed`, and the
    /// next refresh catches up with the pending tombstones plus the few
    /// pending reservation inserts — preserving the scratch's deadline
    /// memo, which makes a dense run of refresh probes at one recorded
    /// level cost one utility inversion total.
    live: Option<(ProbeScratch, CommittedIndex)>,
    /// Committed entries already present in the live index.
    live_commits: usize,
    /// Jobs removed by layer actions since the live scratch last caught up.
    pending_removed: Vec<usize>,
    /// The trace of *this* pass, written layer by layer.
    out: PeelTrace,
    stats: ReplayStats,
}

impl<'j, 'u> Replay<'j, 'u> {
    fn new(
        jobs: &'j [OnionJob<'u>],
        capacity: u32,
        tolerance: f64,
        horizon: f64,
        edit: &JobEdit<'_, 'u>,
        now_at: &[usize],
        state: &mut PeelState,
    ) -> Self {
        let n = jobs.len();
        let drift = Drift::new(jobs, capacity, horizon, edit, now_at, state);
        let edited = drift.jobs.iter().any(|j| j.joined || j.left);
        // Without arrivals or departures `prev` is the identity.
        let sups = carried(&mut state.sups, edited, edit, |j| jobs[j].utility.sup());
        let sigmoids = carried(&mut state.sigmoids, edited, edit, |j| {
            jobs[j].utility.sigmoid_inverse()
        });
        let recap = edited || drift.lag > 0.0;
        let by_sup = if recap {
            descending_sups(&sups, 0..n)
        } else {
            Vec::new()
        };
        let mut out = std::mem::take(&mut state.spare);
        out.clear();
        Replay {
            jobs,
            tolerance,
            drift,
            recap,
            sups,
            sigmoids,
            by_sup,
            sup_cursor: 0,
            removed: vec![false; n],
            removed_count: 0,
            committed: Vec::new(),
            deferred: Vec::new(),
            targets: Vec::with_capacity(n),
            level_lo: initial_floor(jobs),
            floor_feasible: false,
            overloaded: false,
            live: None,
            live_commits: 0,
            pending_removed: Vec::new(),
            out,
            stats: ReplayStats {
                delta: true,
                ..Default::default()
            },
        }
    }

    /// The bisection cap a from-scratch run computes entering this layer.
    fn hi_cap(&mut self) -> f64 {
        while self
            .by_sup
            .get(self.sup_cursor)
            .is_some_and(|&(_, i)| self.removed[i])
        {
            self.sup_cursor += 1;
        }
        let max_live = self.by_sup.get(self.sup_cursor).map(|&(s, _)| s);
        bisection_cap(max_live, self.level_lo, self.tolerance)
    }

    fn remove(&mut self, job: usize) {
        self.removed[job] = true;
        self.removed_count += 1;
        self.pending_removed.push(job);
    }

    /// The layer-closing bookkeeping of `run_layers` for a deferred
    /// bottleneck, minus the sweep state (caught up lazily), plus where the
    /// job's drift now sits.
    fn defer(&mut self, job: usize, level: f64, floor_ok: bool) {
        self.remove(job);
        self.deferred.push((job, level));
        self.floor_feasible = floor_ok;
        self.settle(false, job, ChangedStatus::Deferred);
    }

    /// Likewise for a peeled bottleneck.
    fn commit(&mut self, job: usize, level: f64, deadline: f64, floor_ok: bool) {
        self.targets.push(Target {
            job,
            level,
            deadline,
            lax: false,
        });
        self.committed.push((deadline, self.jobs[job].demand));
        self.remove(job);
        if !floor_ok {
            self.overloaded = true;
        }
        self.level_lo = level;
        self.floor_feasible = floor_ok;
        self.settle(false, job, ChangedStatus::Committed(deadline));
    }

    /// Closes the replayed layer with `action`, as `run_layers` does.
    fn apply(&mut self, action: ActionRec, floor_ok: bool) {
        match action {
            ActionRec::Defer { job, level } => self.defer(job, level, floor_ok),
            ActionRec::Peel { job, level, deadline } => self.commit(job, level, deadline, floor_ok),
            ActionRec::FinishAll { lo } => {
                for i in 0..self.jobs.len() {
                    if self.removed[i] {
                        continue;
                    }
                    self.remove(i);
                    match close_on(self.jobs, &self.sigmoids, &self.sups, i, lo, self.drift.horizon)
                    {
                        ActionRec::Peel { deadline, .. } => {
                            let level = lo.min(self.sups[i]);
                            self.targets.push(Target { job: i, level, deadline, lax: false });
                            self.committed.push((deadline, self.jobs[i].demand));
                        }
                        ActionRec::Defer { level, .. } => self.deferred.push((i, level)),
                        ActionRec::FinishAll { .. } => {}
                    }
                }
            }
        }
    }

    /// Records where a changed job's demand went when its layer closed
    /// (jobs that `left` are listed under their recorded index).
    fn settle(&mut self, left: bool, idx: usize, status: ChangedStatus) {
        if let Some(j) = self.drift.jobs.iter_mut().find(|j| j.left == left && j.idx == idx) {
            j.status = status;
        }
    }

    /// Brings the materialized sweep state up to the replayed layer; hands
    /// it out with the per-job sigmoid records a probe reads.
    fn materialize(
        &mut self,
    ) -> (&mut ProbeScratch, &mut CommittedIndex, &[Option<SigmoidInverse>]) {
        let n = self.jobs.len();
        let committed = &self.committed;
        let removed = &self.removed;
        let pending = &self.pending_removed;
        let live_commits = self.live_commits;
        let (scratch, index) = match &mut self.live {
            Some((scratch, index)) => {
                // Catch up on actions applied since the last refresh: O(1)
                // per removed job (tombstone via the scratch's position
                // index), a few reservation inserts.
                for &j in pending {
                    scratch.remove(j);
                }
                if committed.len() - live_commits > 32 {
                    index.rebuild(committed);
                } else {
                    for &(t, e) in &committed[live_commits..] {
                        index.insert(t, e);
                    }
                }
                (scratch, index)
            }
            empty => {
                let active: Vec<usize> = (0..n).filter(|&i| !removed[i]).collect();
                let mut scratch = ProbeScratch::default();
                scratch.fill_active(&active, n);
                let mut index = CommittedIndex::default();
                index.rebuild(committed);
                let (scratch, index) = empty.insert((scratch, index));
                (scratch, index)
            }
        };
        self.pending_removed.clear();
        self.live_commits = self.committed.len();
        (scratch, index, &self.sigmoids)
    }

    /// At the start of a recorded layer entered with a feasible floor, a
    /// from-scratch run's first probe sits one tolerance above the floor.
    /// If an active arrival cannot reach that level — and no lower-indexed
    /// job is recorded as that probe's `never` answer — the run answers
    /// with the arrival and bisects down to the floor on `never` answers
    /// alone (no recorded job is out of reach below a level all of them
    /// reached), then peels the last one named at the floor: a layer that
    /// hands nothing on, so the recorded layer follows it unchanged.
    fn splice_arrival(&mut self, first: Option<ProbeRec>) -> Splice {
        let Some(first) = first.filter(|_| self.floor_feasible) else {
            return Splice::NotHere;
        };
        let Some(mut at) = self.drift.unreachable_joiner(first.level) else {
            return Splice::NotHere;
        };
        let recorded_never = match first.outcome {
            Check::Infeasible {
                bottleneck,
                never: true,
                ..
            } => Some(bottleneck),
            _ => None,
        };
        if recorded_never.is_some_and(|b| b < self.drift.jobs[at].idx) {
            return Splice::NotHere;
        }
        // A member the tick moved out of reach could answer first.
        if self.drift.lag > 0.0 && first.reach <= self.drift.lag {
            return Splice::Diverged;
        }
        let never = |level, at: usize, drift: &mut Drift<'_>| ProbeRec {
            level,
            reach: drift.reach(level, first.reach),
            outcome: Check::never(drift.jobs[at].idx),
        };
        let lo = self.level_lo;
        let hi_cap = self.hi_cap();
        let mut hi = (lo + self.tolerance).min(hi_cap);
        // The probe must happen, at the level the arrival was tested against.
        if !(hi < hi_cap && hi.to_bits() == first.level.to_bits()) {
            return Splice::Diverged;
        }
        let probe_start = self.out.probes.len();
        let rec = never(hi, at, &mut self.drift);
        self.out.probes.push(rec);
        while hi - lo > self.tolerance {
            let mid = 0.5 * (lo + hi);
            // A recorded `never` answer may stay out of reach below its
            // level, and a probe no arrival answers needs a real sweep.
            let Some(next) = self
                .drift
                .unreachable_joiner(mid)
                .filter(|_| recorded_never.is_none())
            else {
                self.out.probes.truncate(probe_start);
                return Splice::Diverged;
            };
            let rec = never(mid, next, &mut self.drift);
            self.out.probes.push(rec);
            (hi, at) = (mid, next);
        }
        let job = self.drift.jobs[at].idx;
        let action = close_on(self.jobs, &self.sigmoids, &self.sups, job, lo, self.drift.horizon);
        self.apply(action, true);
        self.out.layers.push(LayerRec {
            probe_start: probe_start as u32,
            probe_len: (self.out.probes.len() - probe_start) as u32,
            floor_ok: true,
            hi_cap,
            action,
        });
        self.stats.spliced_layers += 1;
        Splice::Done
    }

    /// Whether the recorded layer's probe levels survive this pass's
    /// bisection cap `hi_cap`: trivially when the cap is the recorded one,
    /// and also when the gallop broke out on an infeasible probe below it —
    /// every level up to there is `lo + width` under either cap, and the
    /// bisection that follows never reads the cap.
    fn cap_holds(&self, layer: LayerRec, probes: &[ProbeRec], hi_cap: f64) -> bool {
        if hi_cap.to_bits() == layer.hi_cap.to_bits() {
            return true;
        }
        // Entered with an unproven floor, the layer's first probe is the
        // floor check, not the gallop.
        let gallop = probes
            .get(usize::from(!self.floor_feasible)..)
            .unwrap_or(&[]);
        let (mut lo, mut width) = (self.level_lo, self.tolerance);
        for p in gallop {
            // A level that is not the unclamped gallop step belongs to a
            // bisection under the recorded cap: the gallop ran into it.
            if p.level.to_bits() != (lo + width).to_bits() || p.level >= hi_cap {
                return false;
            }
            match p.outcome {
                Check::Feasible { .. } => {
                    lo = p.level;
                    width *= 4.0;
                }
                Check::Infeasible { .. } => return true,
            }
        }
        false
    }

    /// The action a from-scratch run closes a layer with once its `probes`
    /// verified: the recorded one — under a tick with the bottleneck's class
    /// and target read off its supremum and due time in this pass's frame,
    /// at the level the layer converged to. `None` when the class flipped
    /// (deferred ↔ peeled) or the target moved down past the lag, which the
    /// later layers' probes are verified under.
    fn retimed(&self, action: ActionRec, probes: &[ProbeRec]) -> Option<ActionRec> {
        if self.drift.lag == 0.0 {
            return Some(action);
        }
        let (ActionRec::Defer { job, .. } | ActionRec::Peel { job, .. }) = action else {
            return Some(action);
        };
        // The bisection raises its floor to every feasible probe it makes.
        let lo = probes
            .iter()
            .rev()
            .find(|p| matches!(p.outcome, Check::Feasible { .. }))
            .map_or(self.level_lo, |p| p.level);
        let now = close_on(self.jobs, &self.sigmoids, &self.sups, job, lo, self.drift.horizon);
        match (action, now) {
            (ActionRec::Defer { .. }, ActionRec::Defer { .. }) => Some(now),
            (ActionRec::Peel { deadline: was, .. }, ActionRec::Peel { deadline, .. }) => {
                (deadline + self.drift.lag >= was).then_some(now)
            }
            _ => None,
        }
    }

    /// Replays the recorded layers in order; returns the recorded layer the
    /// real loop must take over from, if any.
    fn replay_layers(&mut self, rec: &PeelTrace, now_at: &[usize]) -> Option<usize> {
        let n = self.jobs.len();
        for (li, &layer) in rec.layers.iter().enumerate() {
            let probes = &rec.probes
                [layer.probe_start as usize..(layer.probe_start + layer.probe_len) as usize];
            // A departed job's own layer: without the job a from-scratch
            // run never runs it. If it handed nothing on — same floor, same
            // `floor_feasible` — the next layer starts from the state this
            // one started from less the job, which is the departure the
            // probes from here on are verified under; else the layers after
            // it were recorded on a floor this pass may not reach.
            let closed_on = match layer.action {
                ActionRec::Defer { job, .. } => Some((job, ChangedStatus::Deferred, true)),
                ActionRec::Peel {
                    job,
                    level,
                    deadline,
                } => Some((
                    job,
                    ChangedStatus::Committed(deadline),
                    level.to_bits() == self.level_lo.to_bits(),
                )),
                ActionRec::FinishAll { .. } => None,
            };
            if let Some((was, status, floor_kept)) = closed_on.filter(|c| now_at[c.0] == DEAD) {
                if !(floor_kept && layer.floor_ok == self.floor_feasible) {
                    return Some(li);
                }
                self.settle(true, was, status);
                self.stats.dropped_layers += 1;
                continue;
            }
            let action = layer.action.reindexed(now_at);
            let first = probes.first().map(|p| p.reindexed(now_at));
            loop {
                match self.splice_arrival(first) {
                    Splice::NotHere => break,
                    Splice::Done => {}
                    Splice::Diverged => return Some(li),
                }
            }
            let hi_cap = if self.recap && layer.floor_ok {
                let hi_cap = self.hi_cap();
                if !self.cap_holds(layer, probes, hi_cap) {
                    return Some(li);
                }
                hi_cap
            } else {
                layer.hi_cap
            };

            self.drift.enter_layer();
            let probe_start = self.out.probes.len();
            let decisive = probes
                .iter()
                .rposition(|p| matches!(p.outcome, Check::Infeasible { .. }));
            for (k, p) in probes.iter().enumerate() {
                let rec = p.reindexed(now_at);
                let verified = match self.drift.stands(rec) {
                    Some(updated) => {
                        self.stats.verified_probes += 1;
                        updated
                    }
                    None => {
                        let (jobs, capacity, horizon) =
                            (self.jobs, self.drift.capacity, self.drift.horizon);
                        let (scratch, index, sigmoids) = self.materialize();
                        let level = rec.level;
                        let fresh =
                            check_level(jobs, sigmoids, scratch, index, capacity, horizon, level);
                        let reach = scratch.reach;
                        self.stats.refreshed_probes += 1;
                        if !same_trajectory(fresh, rec.outcome, decisive == Some(k)) {
                            // The trajectory genuinely diverged: resume the
                            // real loop from this layer's entry state.
                            self.out.probes.truncate(probe_start);
                            return Some(li);
                        }
                        ProbeRec { level, reach, outcome: fresh }
                    }
                };
                self.out.probes.push(verified);
            }
            let Some(action) = self.retimed(action, &self.out.probes[probe_start..]) else {
                self.out.probes.truncate(probe_start);
                return Some(li);
            };
            self.apply(action, layer.floor_ok);
            self.out.layers.push(LayerRec {
                probe_start: probe_start as u32,
                probe_len: layer.probe_len,
                floor_ok: layer.floor_ok,
                hi_cap,
                action,
            });
            self.stats.replayed_layers += 1;
        }
        // Arrivals no recorded probe rose above are still active: the real
        // loop peels them from the state the last layer left.
        (self.removed_count < n).then_some(rec.layers.len())
    }

    fn run(mut self, now_at: &[usize], state: &mut PeelState) -> Vec<Target> {
        let n = self.jobs.len();
        let rec = std::mem::take(&mut state.trace);
        let floor = self.level_lo;
        // An edit that moved the floor itself shares no probe level with
        // the recorded pass.
        let resume_at = if floor.to_bits() == state.floor.to_bits() {
            self.replay_layers(&rec, now_at)
        } else {
            Some(0)
        };
        self.stats.resumed_at = resume_at;
        let live = resume_at.map(|_| {
            self.materialize();
            self.live.take().unwrap_or_default()
        });
        let mut ctx = PeelCtx {
            jobs: self.jobs,
            capacity: self.drift.capacity,
            tolerance: self.tolerance,
            horizon: self.drift.horizon,
            active: Vec::new(),
            active_count: 0,
            committed: self.committed,
            index: CommittedIndex::default(),
            scratch: ProbeScratch::default(),
            deferred: self.deferred,
            targets: self.targets,
            level_lo: self.level_lo,
            floor_feasible: self.floor_feasible,
            overloaded: self.overloaded,
            trace: self.out,
            sups: self.sups,
            sigmoids: self.sigmoids,
        };
        if let Some((scratch, index)) = live {
            let removed = &self.removed;
            ctx.active = (0..n).map(|i| if removed[i] { DEAD } else { i }).collect();
            ctx.active_count = n - self.removed_count;
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
        debug_check_theorem2(&ctx.committed, self.drift.capacity, ctx.overloaded);
        state.trace = ctx.trace;
        state.spare = rec;
        state.sups = ctx.sups;
        state.sigmoids = ctx.sigmoids;
        state.floor = floor;
        state.demands.clear();
        state.demands.extend(self.jobs.iter().map(|j| j.demand));
        state.capacity = self.drift.capacity;
        state.stats = self.stats;
        ctx.targets
    }
}

/// Contract (Theorem 2): in a non-overloaded instance, the committed
/// reservations satisfy the prefix-capacity condition
/// `Σ_{T_k ≤ d} η_k ≤ C · d` at every reservation deadline `d` — the
/// feasibility certificate the peeling loop maintained layer by layer.
/// Debug builds only.
fn debug_check_theorem2(committed: &[(f64, u64)], capacity: u32, overloaded: bool) {
    if !cfg!(debug_assertions) || overloaded {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::{PiecewiseLinear, TimeUtility};

    fn sigmoid(budget: f64, weight: f64, beta: f64) -> TimeUtility {
        TimeUtility::sigmoid(budget, weight, beta).unwrap()
    }

    /// The contract layer is armed in every debug build: 100 container·slots
    /// due by slot 10 on 2 containers over-commits the prefix (100 > 2·10).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Theorem 2 contract")]
    fn contract_layer_catches_an_overcommitted_prefix() {
        debug_check_theorem2(&[(40.0, 20), (10.0, 100)], 2, false);
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

    /// One pass over the same jobs, in the same order, as the recorded one.
    fn replayed(
        jobs: &[OnionJob<'_>],
        capacity: u32,
        tolerance: f64,
        horizon: f64,
        state: &mut PeelState,
    ) -> Vec<Target> {
        let prev: Vec<Option<usize>> = (0..jobs.len()).map(Some).collect();
        let edit = JobEdit { prev: &prev, departed: &[], tick: 0.0 };
        peel_incremental(jobs, capacity, tolerance, horizon, edit, state).unwrap()
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
        let inc = replayed(&jobs, cap, tol, hor, &mut state);
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
            let inc = replayed(&jobs, cap, tol, hor, &mut state);
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
            replayed(&jobs, capacities[0], tol, hor, &mut state);
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
            let inc = replayed(&jobs, cap, tol, hor, &mut state);
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
        let inc = replayed(&jobs, cap, tol, hor, &mut state);
        assert_targets_bitwise(&full, &inc, "quiescent replay");
        assert!(state.last_stats().resumed_at.is_none(), "quiescent pass must fully replay");
    }

    /// What still forces the full-record path: an edit with nothing in
    /// common, and a surviving demand crossing zero. A capacity change or a
    /// departure alone does *not* — they replay.
    #[test]
    fn incremental_peel_cold_triggers() {
        let u = sigmoid(300.0, 2.0, 0.03);
        let utilities = vec![u, u, u];
        fn jobs<'a>(d: &[u64], us: &'a [TimeUtility]) -> Vec<OnionJob<'a>> {
            d.iter().zip(us).map(|(&d, u)| OnionJob { demand: d, utility: u }).collect()
        }
        let mut state = PeelState::new();
        let j = jobs(&[100, 200, 300], &utilities);
        replayed(&j, 8, 1e-4, 1e6, &mut state);

        // Caller says nothing carried over.
        peel_incremental(&j, 8, 1e-4, 1e6, JobEdit::COLD, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        let all_new = [None, None, None];
        let gone: Vec<&dyn Utility> = utilities.iter().map(|u| u as &dyn Utility).collect();
        let edit = JobEdit { prev: &all_new, departed: &gone, tick: 0.0 };
        peel_incremental(&j, 8, 1e-4, 1e6, edit, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        // Capacity change stays on the delta path, bit-identically.
        let full = peel(&j, 9, 1e-4, 1e6).unwrap();
        let inc = replayed(&j, 9, 1e-4, 1e6, &mut state);
        assert_targets_bitwise(&full, &inc, "capacity delta");
        assert!(state.last_stats().delta);
        // So does the last job leaving.
        let j2 = jobs(&[100, 200], &utilities[..2]);
        let full = peel(&j2, 9, 1e-4, 1e6).unwrap();
        let edit = JobEdit { prev: &[Some(0), Some(1)], departed: &gone[2..], tick: 0.0 };
        let inc = peel_incremental(&j2, 9, 1e-4, 1e6, edit, &mut state).unwrap();
        assert_targets_bitwise(&full, &inc, "departure delta");
        assert!(state.last_stats().delta);
        // An edit that does not account for every recorded job is refused.
        let edit = JobEdit { prev: &[Some(1)], departed: &[], tick: 0.0 };
        peel_incremental(&j2[1..], 9, 1e-4, 1e6, edit, &mut state).unwrap();
        assert!(!state.last_stats().delta);
        replayed(&j2, 9, 1e-4, 1e6, &mut state);
        // Demand zero-crossing.
        let j3 = jobs(&[100, 0], &utilities[..2]);
        replayed(&j3, 9, 1e-4, 1e6, &mut state);
        assert!(!state.last_stats().delta);
        // And back on the happy path: same jobs replay.
        let j4 = jobs(&[101, 0], &utilities[..2]);
        let full = peel(&j4, 9, 1e-4, 1e6).unwrap();
        let inc = replayed(&j4, 9, 1e-4, 1e6, &mut state);
        assert_targets_bitwise(&full, &inc, "post-reset delta");
        assert!(state.last_stats().delta);
    }

    /// Records a pass over `before`, replays `after` (the jobs of `before`
    /// plus arrivals, placed by `prev`) and checks it bitwise against a
    /// from-scratch peel.
    fn replay_arrivals(
        before: &[OnionJob<'_>],
        after: &[OnionJob<'_>],
        prev: &[Option<usize>],
        capacity: u32,
    ) -> ReplayStats {
        let (tol, hor) = (1e-3, 1e6);
        let mut state = PeelState::new();
        replayed(before, capacity, tol, hor, &mut state);
        let edit = JobEdit { prev, departed: &[], tick: 0.0 };
        let inc = peel_incremental(after, capacity, tol, hor, edit, &mut state).unwrap();
        assert_targets_bitwise(&peel(after, capacity, tol, hor).unwrap(), &inc, "arrivals");
        state.last_stats()
    }

    fn step(budget: f64, weight: f64) -> TimeUtility {
        TimeUtility::step(budget, weight).unwrap()
    }

    /// The drift rule's joiner terms, each the only one to catch its case
    /// (the fleet streams never need them). Recorded: two jobs whose
    /// boundaries are late, the layers ending at their weights 0.5 and 2.
    #[test]
    fn replay_charges_arrivals_their_own_boundaries_and_answers() {
        let (late, low, top) = (step(5000.0, 2.0), step(3000.0, 0.5), step(500.0, 2.0));
        let before =
            [OnionJob { demand: 100, utility: &late }, OnionJob { demand: 100, utility: &low }];
        // Due at 20, before every recorded boundary: the feasible probes'
        // slack absorbs its 500, but 10 containers · 20 slots do not.
        let early = step(20.0, 1.0);
        let after = [before[0], before[1], OnionJob { demand: 500, utility: &early }];
        assert!(replay_arrivals(&before, &after, &[Some(0), Some(1), None], 10).delta);
        // Out of reach above 1.5, where the second recorded layer probed
        // feasible levels: from scratch it answers `never` there.
        let mid = step(5000.0, 1.5);
        let after = [before[0], before[1], OnionJob { demand: 100, utility: &mid }];
        assert!(replay_arrivals(&before, &after, &[Some(0), Some(1), None], 10).delta);
        // A twin of the recorded job `top`, inserted ahead of it: the same
        // levels are out of reach for both, and the `never` scan answers
        // with the lower index.
        let before =
            [OnionJob { demand: 10, utility: &low }, OnionJob { demand: 10, utility: &top }];
        let after = [before[0], before[1], before[1]];
        assert!(replay_arrivals(&before, &after, &[Some(0), None, Some(1)], 1000).delta);
    }

    /// Records a pass over `jobs` (`(utility, demand, age)` each), moves the
    /// clock `tick` slots and replays, bitwise against a from-scratch peel.
    fn replay_tick(
        jobs: &[(&dyn Utility, u64, f64)],
        tick: f64,
        capacity: u32,
        horizon: f64,
    ) -> ReplayStats {
        let tol = 1e-3;
        let shifted = |by: f64| -> Vec<Shifted<'_>> {
            jobs.iter().map(|&(u, _, age)| Shifted::new(u, age + by)).collect()
        };
        let (old, new) = (shifted(0.0), shifted(tick));
        let (before, after): (Vec<OnionJob<'_>>, Vec<OnionJob<'_>>) = jobs
            .iter()
            .zip(old.iter().zip(&new))
            .map(|(&(_, demand, _), (old, new))| {
                (OnionJob { demand, utility: old }, OnionJob { demand, utility: new })
            })
            .unzip();
        let mut state = PeelState::new();
        peel_incremental(&before, capacity, tol, horizon, JobEdit::COLD, &mut state).unwrap();
        let prev: Vec<Option<usize>> = (0..jobs.len()).map(Some).collect();
        let edit = JobEdit { prev: &prev, departed: &[], tick };
        let inc = peel_incremental(&after, capacity, tol, horizon, edit, &mut state).unwrap();
        assert_targets_bitwise(&peel(&after, capacity, tol, horizon).unwrap(), &inc, "tick");
        let stats = state.last_stats();
        assert!(stats.delta, "a tick replays");
        stats
    }

    fn piecewise(points: &[(f64, f64)]) -> PiecewiseLinear {
        PiecewiseLinear::new(points.to_vec()).unwrap()
    }

    /// A tick moves a job due before it out of reach of the level. On a
    /// feasible probe the `C·lag` charge catches it (the job's own boundary
    /// holds its demand); on a `never` probe only [`ProbeRec::reach`] does.
    #[test]
    fn tick_moves_jobs_due_before_it_out_of_reach() {
        let top = step(10_000.0, 3.0);
        // Due at 5 + (3 − L)·995/3: under 6 slots only within 0.003 of its
        // supremum, where the recorded layer's last feasible probes sit.
        let edge = piecewise(&[(5.0, 3.0), (1000.0, 0.0)]);
        let stats = replay_tick(&[(&edge, 1, 0.0), (&top, 1, 0.0)], 6.0, 1000, 1e6);
        assert_eq!(stats.resumed_at, Some(0), "{stats:?}");
        assert!(stats.verified_probes >= 10 && stats.refreshed_probes == 1, "{stats:?}");
        // Due at about 5 above 1.2 and at 50 or later below it (a flat stretch):
        // the `never` probes above 1.2 are `low`'s, and the tick moves the
        // lower-indexed `jump` out of reach there, not at the feasible
        // probes below.
        let jump = piecewise(&[(4.0, 2.0), (5.0, 1.2), (50.0, 1.2), (60.0, 0.0)]);
        let low = step(10_000.0, 1.2);
        let jobs = [(&jump as &dyn Utility, 1, 0.0), (&low, 1, 0.0), (&top, 1, 0.0)];
        let stats = replay_tick(&jobs, 6.0, 1000, 1e6);
        assert_eq!(stats.resumed_at, Some(0), "{stats:?}");
        assert!(stats.verified_probes >= 5 && stats.refreshed_probes >= 2, "{stats:?}");
    }

    /// An arrival out of reach of a layer's first probe is spliced in ahead
    /// of it only while no member, lower-indexed, can answer that probe
    /// instead: here the tick moved `jump` out of reach there.
    #[test]
    fn tick_splices_no_arrival_ahead_of_a_member_it_moved_out_of_reach() {
        let jump = piecewise(&[(4.0, 2.0), (5.0, 0.5), (500.0, 0.5), (600.0, 0.0)]);
        let (low, top) = (step(10_000.0, 0.5), step(10_000.0, 3.0));
        // Out of reach just above `low`'s level, where the second layer starts.
        let late = step(10_000.0, 0.5002);
        let at = |age: f64| [&low as &dyn Utility, &jump, &top].map(|u| Shifted::new(u, age));
        let (old, new) = (at(0.0), at(6.0));
        let arrival = Shifted::new(&late, 0.0);
        let onion = |u| OnionJob { demand: 1, utility: u };
        let before: Vec<OnionJob<'_>> = old.iter().map(|u| onion(u as &dyn Utility)).collect();
        let mut after: Vec<OnionJob<'_>> = new.iter().map(|u| onion(u as &dyn Utility)).collect();
        after.push(onion(&arrival));
        let (tol, hor) = (1e-3, 1e6);
        let mut state = PeelState::new();
        peel_incremental(&before, 1000, tol, hor, JobEdit::COLD, &mut state).unwrap();
        let edit = JobEdit { prev: &[Some(0), Some(1), Some(2), None], departed: &[], tick: 6.0 };
        let inc = peel_incremental(&after, 1000, tol, hor, edit, &mut state).unwrap();
        assert_targets_bitwise(&peel(&after, 1000, tol, hor).unwrap(), &inc, "splice");
        let stats = state.last_stats();
        assert_eq!((stats.resumed_at, stats.spliced_layers), (Some(1), 0), "{stats:?}");
    }

    /// A due time clamped at the horizon moves less than the tick, or not
    /// at all: the lag bounds how far a due time moves *down*, so both the
    /// probes and the recomputed targets stand.
    #[test]
    fn tick_leaves_horizon_clamped_due_times_where_they_are() {
        // Due at 1003 and 1010 under a horizon of 1000: the tick unclamps
        // the first (to 998) and leaves the second at the horizon.
        let (near, far) = (step(1003.0, 1.0), step(1010.0, 2.0));
        let stats = replay_tick(&[(&near, 400, 0.0), (&far, 400, 0.0)], 5.0, 1, 1000.0);
        assert_eq!((stats.resumed_at, stats.refreshed_probes), (None, 0), "{stats:?}");
        assert!(stats.verified_probes > 0 && stats.replayed_layers == 2, "{stats:?}");
    }

    /// A sup the tick lowers moves the bisection cap of every layer it
    /// bounds: the first layer's gallop broke out below the new cap and
    /// stands, the second bisected against the old cap and resumes.
    #[test]
    fn tick_moves_the_bisection_cap_with_the_top_supremum() {
        // Supremum 3 − 0.01·age: 3 recorded, 2.95 after the tick.
        let top = TimeUtility::linear(100.0, 2.0, 0.01).unwrap();
        let (first, second) = (step(10_000.0, 0.5), step(10_000.0, 2.5));
        let jobs = [(&first as &dyn Utility, 1, 0.0), (&second, 1, 0.0), (&top, 1, 0.0)];
        let stats = replay_tick(&jobs, 5.0, 1000, 1e6);
        assert_eq!((stats.resumed_at, stats.replayed_layers), (Some(1), 1), "{stats:?}");
        assert_eq!(stats.refreshed_probes, 0, "{stats:?}");
    }

    /// A recorded `Peel` carries the target of the recorded frame: the
    /// replay recomputes it at the recorded level, every probe standing.
    #[test]
    fn tick_recomputes_recorded_targets() {
        let (early, late) = (step(300.0, 0.5), step(400.0, 1.0));
        let stats = replay_tick(&[(&early, 20, 0.0), (&late, 20, 0.0)], 3.0, 1000, 1e6);
        assert_eq!((stats.resumed_at, stats.refreshed_probes), (None, 0), "{stats:?}");
        assert_eq!(stats.replayed_layers, 2, "{stats:?}");
    }

    /// `check_level`'s inversion of `u` at `level`: the sigmoid record with
    /// its `ln` from `memo`.
    fn kernel_deadline(
        u: &Shifted<'_>,
        level: f64,
        horizon: f64,
        memo: &mut LnMemo,
    ) -> Option<f64> {
        let record = u.sigmoid_inverse();
        assert!(record.is_some(), "a shifted sigmoid has a record");
        memo.at_level(level);
        inverse_deadline(&OnionJob { demand: 1, utility: u }, record.as_ref(), level, horizon, memo)
    }

    /// What the kernel must reproduce bit for bit.
    fn reference_deadline(u: &Shifted<'_>, level: f64, horizon: f64) -> Option<f64> {
        u.latest_time(level).deadline_within(horizon)
    }

    fn bits(d: Option<f64>) -> Option<u64> {
        d.map(f64::to_bits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4000))]

        /// The inversion kernel is `Shifted::latest_time(..).deadline_within(..)`
        /// bit for bit: over budgets, weights and steepness; shifts of 0,
        /// inside and far beyond the base deadline (and negative, which
        /// clamps); levels at and around every branch point — non-positive,
        /// tiny, interior, one ulp around the sigmoid's `sup`, `sup + 1e-12`
        /// and past it, and one ulp around the shifted `sup`, where the base
        /// deadline lands on the shift; small and large horizons.
        #[test]
        fn sigmoid_kernel_is_latest_time_bit_for_bit(
            (budget, weight, beta) in (0.0f64..5000.0, 0.1f64..10.0, 1e-4f64..2.0),
            (shift_kind, shift_frac) in (0usize..4, 0.0f64..1.0),
            (level_kind, level_frac) in (0usize..13, 0.0f64..1.0),
            small_horizon in 1.0f64..50.0,
            large in 0usize..2,
        ) {
            let u = sigmoid(budget, weight, beta);
            let shift = match shift_kind {
                0 => 0.0,
                1 => shift_frac * budget,
                2 => budget * (2.0 + 10.0 * shift_frac) + 100.0 / beta,
                _ => -shift_frac * 10.0,
            };
            let s = Shifted::new(&u, shift);
            let sup = u.sup();
            let level = match level_kind {
                0 => 0.0,
                1 => -level_frac * 5.0 - f64::MIN_POSITIVE,
                2 => level_frac * 1e-12,
                3 => f64::MIN_POSITIVE * (1.0 + level_frac),
                4 => level_frac * sup,
                5 => sup.next_down(),
                6 => sup,
                7 => sup.next_up(),
                8 => sup + 1e-12,
                9 => (sup + 1e-12).next_up() + level_frac,
                10 => s.sup().next_down(),
                11 => s.sup(),
                _ => s.sup().next_up(),
            };
            let horizon = if large == 1 { 1e6 } else { small_horizon };
            let mut memo = LnMemo::default();
            proptest::prop_assert_eq!(
                bits(kernel_deadline(&s, level, horizon, &mut memo)),
                bits(reference_deadline(&s, level, horizon)),
                "B {} W {} beta {} shift {} level {} horizon {}",
                budget, weight, beta, shift, level, horizon
            );
        }
    }

    /// Two weights sharing a memo slot, alternating job after job at one
    /// level, each evict the other's `ln` instead of reusing it.
    #[test]
    fn ln_memo_slot_collisions_evict() {
        let first = 1.0;
        let second = (1..10_000)
            .map(|k| 1.0 + f64::from(k) * 1e-3)
            .find(|&w| LnMemo::slot(w) == LnMemo::slot(first))
            .unwrap();
        let utilities: Vec<TimeUtility> = (0..40)
            .map(|i| {
                let w = if i % 2 == 0 { first } else { second };
                sigmoid(300.0 + 7.0 * f64::from(i), w, 0.03)
            })
            .collect();
        let shifted: Vec<Shifted<'_>> = utilities.iter().map(|u| Shifted::new(u, 20.0)).collect();
        let mut memo = LnMemo::default();
        for level in [0.3, 0.5, 0.7, 0.3] {
            for s in &shifted {
                assert_eq!(
                    bits(kernel_deadline(s, level, 1e6, &mut memo)),
                    bits(reference_deadline(s, level, 1e6)),
                    "level {level}"
                );
            }
        }
    }

    /// Hundreds of distinct (continuous) weights: every inversion still
    /// matches, whichever slot it lands in.
    #[test]
    fn ln_memo_many_distinct_weights() {
        let utilities: Vec<TimeUtility> = (0..400)
            .map(|i| sigmoid(200.0 + 9.0 * f64::from(i), 1.0 + f64::from(i) * 0.01, 0.02))
            .collect();
        let shifted: Vec<Shifted<'_>> = utilities
            .iter()
            .enumerate()
            .map(|(i, u)| Shifted::new(u, (i % 50) as f64))
            .collect();
        let mut memo = LnMemo::default();
        for level in [1e-9, 0.05, 0.9, 2.5, 4.99] {
            for s in &shifted {
                assert_eq!(
                    bits(kernel_deadline(s, level, 5000.0, &mut memo)),
                    bits(reference_deadline(s, level, 5000.0)),
                    "level {level}"
                );
            }
        }
    }

    fn entry_bits(entries: &[(f64, usize)]) -> Vec<(u64, usize)> {
        entries.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
    }

    /// The refill sort puts entries in exactly `sort_by`'s order on every
    /// input shape, with and without the library fallback.
    #[test]
    fn refill_sort_matches_sort_by() {
        let by_key = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let n = 300usize;
        let sorted: Vec<(f64, usize)> = (0..n).map(|i| (i as f64 * 0.5, i)).collect();
        let reversed: Vec<(f64, usize)> = sorted.iter().rev().copied().collect();
        let random: Vec<(f64, usize)> = (0..n).map(|i| ((next() % 1000) as f64, i)).collect();
        let mut nearly = sorted.clone();
        for k in (0..n - 1).step_by(17) {
            nearly.swap(k, k + 1);
        }
        // One entry travelling the whole list costs n − 1 moves (inside the
        // budget), two cost about 2n (at its edge).
        let mut one_far = sorted.clone();
        one_far.rotate_left(1);
        let mut two_far = sorted.clone();
        two_far.rotate_left(2);
        // Ties on the deadline broken by job index, and the ∞ sentinels of
        // demand-free jobs.
        let tie = |i: usize| if i.is_multiple_of(3) { f64::INFINITY } else { (i % 4) as f64 };
        let ties: Vec<(f64, usize)> = (0..n).map(|i| (tie(i), n - i)).collect();
        for (name, case) in [
            ("sorted", sorted),
            ("reversed", reversed),
            ("random", random),
            ("nearly sorted", nearly),
            ("one far", one_far),
            ("two far", two_far),
            ("ties", ties),
        ] {
            let mut want = case.clone();
            want.sort_by(by_key);
            let mut got = case;
            sort_deadlines(&mut got);
            assert_eq!(entry_bits(&got), entry_bits(&want), "{name}");
        }
    }

    /// A refill after removals inverts and sorts only the live entries:
    /// no tombstone survives it, the order is the total order over the live
    /// jobs' deadlines at the new level, and every live job's position
    /// index points at its entry (so later removals tombstone the right one).
    #[test]
    fn refill_drops_tombstones() {
        let utilities: Vec<TimeUtility> = (0..60)
            .map(|i| sigmoid(100.0 + 37.0 * f64::from(i % 23), 1.0 + f64::from(i % 5), 0.05))
            .collect();
        let jobs: Vec<OnionJob<'_>> =
            utilities.iter().map(|u| OnionJob { demand: 1, utility: u }).collect();
        let sigmoids: Vec<_> = jobs.iter().map(|j| j.utility.sigmoid_inverse()).collect();
        let (committed, horizon) = (CommittedIndex::default(), 1e6);
        let mut scratch = ProbeScratch::default();
        scratch.fill(&jobs);
        check_level(&jobs, &sigmoids, &mut scratch, &committed, 10_000, horizon, 0.4);
        let removed: Vec<usize> = (0..60).filter(|i| i % 4 == 1).collect();
        for &j in &removed {
            scratch.remove(j);
        }
        assert!(scratch.deadlines.iter().any(|&(_, i)| i == DEAD), "removals tombstone");
        check_level(&jobs, &sigmoids, &mut scratch, &committed, 10_000, horizon, 0.6);
        let mut want: Vec<(f64, usize)> = (0..60)
            .filter(|i| !removed.contains(i))
            .map(|i| (utilities[i].latest_time(0.6).deadline_within(horizon).unwrap(), i))
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(entry_bits(&scratch.deadlines), entry_bits(&want));
        for (pos, &(_, i)) in scratch.deadlines.iter().enumerate() {
            assert_eq!(scratch.pos_of[i] as usize, pos, "job {i}");
        }
    }
}
