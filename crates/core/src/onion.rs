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
//!
//! # Inversions without the transcendental tax
//!
//! A probe at a new level inverts every live job. For an aged sigmoid,
//! [`OnionJob::latest_time`] costs an `exp` (the sigmoid's supremum) and an
//! `ln`, and a cold pass over a testbed's jobs makes thousands of them for
//! jobs that share a handful of weights. The kernel removes that arithmetic
//! and keeps every floating-point operation that still runs, in its order:
//!
//! - *The record.* A job's [`SigmoidInverse`] is its utility's own record
//!   ([`TimeUtility::sigmoid_inverse`]: budget, weight, β and the unshifted
//!   supremum, evaluated once) with the job's age as its shift. A pass
//!   holds one per job, built once per job identity and carried through
//!   [`PeelState`] exactly like the suprema: a replay moves the vector
//!   whole when the job list is unchanged, and otherwise gathers it through
//!   the [`JobEdit`].
//! - *The kernel is the definition.* [`SigmoidInverse::latest_time`] and
//!   the sigmoid arm of [`TimeUtility::latest_time`] share one body, and
//!   both shift by the age with [`LatestTime::after`]. So a probe computes
//!   [`OnionJob::latest_time`]`(L).deadline_within(h)` with the same
//!   operations, minus the repeated `exp`; the unit proptest
//!   `sigmoid_kernel_is_latest_time_bit_for_bit` compares the bits at every
//!   branch point.
//! - *One `ln` per weight.* `ln(W/L − 1)` depends on the weight and the
//!   level only. `LnMemo` is a 16-slot direct-mapped memo keyed by the
//!   weight's bits (Fibonacci hashing on the high bits), reset when the
//!   level changes; weights `1..5` land in five distinct slots. It is
//!   direct-mapped on purpose: a scanning memo goes quadratic on continuous
//!   weights, where every job's weight is distinct.
//! - *Sort only live entries.* A refill drops tombstones first (order kept,
//!   positions rebuilt), then sorts with an insertion pass that falls back
//!   to the library sort past `2n` moves. The `(deadline, job)` keys are
//!   unique, so any correct sort yields the same order.

use crate::CoreError;
use rush_utility::{LatestTime, SigmoidInverse, TimeUtility};

/// One job as seen by the peeling algorithm: plain data, posed in "time
/// from now". A job that arrived `age` slots ago and completes `t` slots
/// from now completes `age + t` slots after its arrival, so its due time at
/// level `L` is `U⁻¹(L)` moved `age` slots earlier
/// ([`OnionJob::latest_time`]); a level only attainable before now is
/// [`LatestTime::Never`]. This is what lets the static TAS formulation re-run
/// inside the dynamic feedback cycle: every scheduling event re-poses the
/// problem in the jobs' current ages.
#[derive(Debug, Clone, Copy)]
pub struct OnionJob {
    /// Robust remaining demand `η` in container·slots (WCDE output).
    pub demand: u64,
    /// The job's completion-time utility, measured from its arrival.
    pub utility: TimeUtility,
    /// Slots since the job arrived (a negative age reads as 0).
    pub age: f64,
}

impl OnionJob {
    /// The age the utility is shifted by.
    fn shift(&self) -> f64 {
        self.age.max(0.0)
    }

    /// The highest utility still attainable: completing now.
    pub fn sup(&self) -> f64 {
        self.utility.utility(self.shift())
    }

    /// The latest completion time from now that attains utility `level`:
    /// `U⁻¹(L)` less the age.
    pub fn latest_time(&self, level: f64) -> LatestTime {
        self.utility.latest_time(level).after(self.shift())
    }

    /// For a sigmoid, the record whose [`SigmoidInverse::latest_time`] is
    /// [`Self::latest_time`] bit for bit: the utility's own record (its
    /// unshifted supremum evaluated once) with the age as its shift. `None`
    /// for every other class.
    fn sigmoid_inverse(&self) -> Option<SigmoidInverse> {
        let base = self.utility.sigmoid_inverse()?;
        Some(SigmoidInverse { shift: self.shift(), ..base })
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

/// `job.latest_time(level).deadline_within(horizon)`, bit for bit: through
/// the job's sigmoid record when it has one (`sigmoid`, from
/// [`OnionJob::sigmoid_inverse`]), whose `ln` term comes from `memo`.
fn inverse_deadline(
    job: &OnionJob,
    sigmoid: Option<&SigmoidInverse>,
    level: f64,
    horizon: f64,
    memo: &mut LnMemo,
) -> Option<f64> {
    match sigmoid {
        Some(s) => s.latest_time(level, || memo.ln_term(s.weight, level)),
        None => job.latest_time(level),
    }
    .deadline_within(horizon)
}

/// Direct-mapped memo of [`SigmoidInverse::ln_term`] at one level: a probe
/// inverts every active job at the same level, and jobs share a handful of
/// weights, so most inversions reuse an earlier job's `ln`. Direct mapping
/// (rather than a scan) keeps continuous weights — every job distinct —
/// at O(1) per lookup.
#[derive(Default, Debug, Clone)]
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
/// re-sorting the whole committed set every layer. Its buffers live in
/// [`PeelState`] from pass to pass.
#[derive(Default, Debug, Clone)]
struct CommittedIndex {
    times: Vec<f64>,
    cums: Vec<u64>,
    /// Bumped on every mutation; lets a [`SweepCursor`] detect that the
    /// committed prefix it was captured against is unchanged.
    epoch: u64,
    /// `rebuild`'s sort scratch: `(time, commit order)`.
    order: Vec<(f64, usize)>,
}

impl CommittedIndex {
    /// Adds a reservation, keeping `times` sorted (ties in commit order)
    /// and `cums` the running prefix demand: a binary search, then an
    /// O(len) shift of the later entries, each bumped by `demand`.
    fn insert(&mut self, t: f64, demand: u64) {
        self.epoch += 1;
        let pos = self.times.partition_point(|&x| x <= t);
        self.times.insert(pos, t);
        self.cums.insert(pos, self.first(pos) + demand);
        for c in &mut self.cums[pos + 1..] {
            *c += demand;
        }
    }

    /// Rebuilds the index from an unsorted committed list, sorted by time
    /// with ties in commit order — bitwise the same index an incremental
    /// insert sequence would have produced (inserts land *after* existing
    /// ties).
    fn rebuild(&mut self, committed: &[(f64, u64)]) {
        self.epoch += 1;
        self.order.clear();
        self.order.extend(committed.iter().enumerate().map(|(i, &(t, _))| (t, i)));
        self.order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.times.clear();
        self.cums.clear();
        let mut cum = 0u64;
        for &(t, i) in &self.order {
            cum += committed[i].1;
            self.times.push(t);
            self.cums.push(cum);
        }
    }

    /// `G(t)`: total committed demand with deadline ≤ `t`.
    fn g(&self, t: f64) -> u64 {
        self.first(self.times.partition_point(|&x| x <= t))
    }

    /// The demand of the first `k` reservations.
    fn first(&self, k: usize) -> u64 {
        if k == 0 {
            0
        } else {
            self.cums[k - 1]
        }
    }

    /// Total committed demand.
    fn total(&self) -> u64 {
        self.first(self.cums.len())
    }
}

/// The least load `X` with `(X as f64) > c·t + 1e-9`: the first load that
/// breaks a reservation due at `t` on `c` containers. Integers convert to
/// `f64` monotonically, so for every load `X ≥ 0`,
/// `X ≥ breaking_load(c, t)` ⇔ `(X as f64) > c·t + 1e-9` — the test
/// [`asap_deadline`] applies, evaluated once per reservation instead of
/// once per reservation and job. No `u64` load breaks a bound at or past
/// 2⁶⁴, nor a NaN one: those get 2⁶⁴.
fn breaking_load(c: f64, t: f64) -> i128 {
    const NEVER: i128 = 1 << 64;
    let v = c * t + 1e-9;
    if v.is_nan() || v >= 18_446_744_073_709_551_616.0 {
        return NEVER;
    }
    if v < 0.0 {
        return 0;
    }
    if v < 9_007_199_254_740_992.0 {
        // Below 2⁵³ every integer is exact: the first one past `v`.
        return v as i128 + 1;
    }
    // `v` is an integer; a load between it and the next double rounds to
    // the nearer one, ties to the even mantissa.
    let mid = (v as u128 + v.next_up() as u128) / 2;
    if mid as f64 > v {
        mid as i128
    } else {
        mid as i128 + 1
    }
}

/// The deferred phase's reservations. While the phase runs, the index the
/// layers built (`base`) does not change; the reservations it adds go to
/// this small sorted overlay with its own prefix sums, and `G(d)` is the
/// sum of the two. Recycled through [`PeelState`].
#[derive(Default, Debug, Clone)]
struct Overlay {
    placed: CommittedIndex,
    /// Suffix minima of the base's integer slack `breaking_load − cum`,
    /// built at the first deferred job that needs them.
    slack_min: Vec<i128>,
    slack_built: bool,
}

impl Overlay {
    fn clear(&mut self) {
        self.placed.rebuild(&[]);
        self.slack_built = false;
    }

    /// The latest reservation, of `base` and the overlay together, that
    /// `demand` more load before it would break — 0 if none. The combined
    /// index lists a base reservation before an overlay one at the same
    /// time (the overlay's were inserted later), so a base entry carries
    /// the overlay demand due strictly before it, an overlay entry the base
    /// demand due at or before it. Three steps, each only where the
    /// previous one found nothing:
    /// 1. the last reservation, which carries every demand;
    /// 2. the base reservations past the overlay's last: each carries the
    ///    whole overlay, so the latest one broken is where the suffix
    ///    minimum of the base slack first exceeds `demand + overlay`;
    /// 3. the rest, newest first.
    fn barrier(&mut self, base: &CommittedIndex, demand: u64, c: f64) -> f64 {
        let placed = &self.placed;
        let t_last = match (base.times.last(), placed.times.last()) {
            (Some(&a), Some(&b)) => a.max(b),
            (Some(&t), None) | (None, Some(&t)) => t,
            (None, None) => return 0.0,
        };
        if (demand + base.total() + placed.total()) as f64 > c * t_last + 1e-9 {
            return t_last;
        }
        let past = placed.times.last().map_or(0, |&s| base.times.partition_point(|&t| t <= s));
        if !self.slack_built {
            self.slack_min.clear();
            self.slack_min.resize(base.times.len(), 0);
            let mut min = i128::MAX;
            for k in (0..base.times.len()).rev() {
                min = min.min(breaking_load(c, base.times[k]) - base.cums[k] as i128);
                self.slack_min[k] = min;
            }
            self.slack_built = true;
        }
        let load = demand as i128 + placed.total() as i128;
        let broken = self.slack_min.partition_point(|&m| m <= load);
        if broken > past {
            return base.times[broken - 1];
        }
        let (mut a, mut b) = (past, placed.times.len());
        while a > 0 || b > 0 {
            let (t, cum) = if b > 0 && (a == 0 || placed.times[b - 1] >= base.times[a - 1]) {
                b -= 1;
                (placed.times[b], placed.cums[b] + base.first(a))
            } else {
                a -= 1;
                (base.times[a], base.cums[a] + placed.first(b))
            };
            if (demand + cum) as f64 > c * t + 1e-9 {
                return t;
            }
        }
        0.0
    }
}

/// Reusable probe state: the `(deadline, job)` buffer persists across
/// probes, layers and passes (through [`PeelState`]), so a feasibility check
/// allocates nothing, and because neighboring levels barely change the
/// deadline order, the stable sort's run detection makes the per-probe
/// re-sort nearly linear.
///
/// Once caught up, entries mirror the live set exactly; jobs whose deadline is `Never`
/// at the probed level keep a sentinel (`∞` for demand-free jobs — they
/// never block) so they are not lost for later, lower-level probes.
#[derive(Default, Debug, Clone)]
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
/// Invalidated by: `fill_active`, a probe at other level bits (its
/// scan overwrites the list), and the removal of a listed job other than
/// the next answer.
#[derive(Default, Debug, Clone)]
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
#[derive(Clone, Copy, Default, Debug)]
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
    /// Fills with every job not `removed`, in ascending index. Entry order
    /// does not matter for probe results — `check_level` re-sorts by a total
    /// order — but ascending index is what removals from a full fill leave.
    fn fill_active(&mut self, removed: &[bool]) {
        self.deadlines.clear();
        self.deadlines.extend((0..removed.len()).filter(|&i| !removed[i]).map(|i| (0.0, i)));
        self.pos_of.clear();
        self.pos_of.resize(removed.len(), 0);
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
/// `sigmoids` holds each job's [`OnionJob::sigmoid_inverse`].
fn check_level(
    jobs: &[OnionJob],
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
/// `(deadline, demand)` reservation intact — those of `base` and of the
/// overlay together: the smallest `d` such that
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
fn asap_deadline(demand: u64, base: &CommittedIndex, overlay: &mut Overlay, capacity: u32) -> f64 {
    let c = capacity as f64;
    // Barrier: the job must complete after any reservation it would break.
    let barrier = overlay.barrier(base, demand, c);
    debug_check_barrier(demand, base, &overlay.placed, c, barrier);
    let mut d = ((demand as f64 / c).max(1.0)).max(barrier + 1e-9);
    // Fixed point over the step function G; terminates in ≤ |committed|+1
    // rounds because each bump crosses at least one reservation deadline.
    loop {
        let g = base.g(d) + overlay.placed.g(d);
        let next = (((demand + g) as f64 / c).max(1.0)).max(barrier + 1e-9);
        if next <= d + 1e-9 {
            return d;
        }
        d = next;
    }
}

/// Contract: the barrier is the latest broken reservation of a scan over
/// the merged index, as the reference implementation computes it. Debug
/// builds only.
fn debug_check_barrier(demand: u64, base: &CommittedIndex, placed: &CommittedIndex, c: f64, barrier: f64) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut merged: Vec<(f64, u64)> = Vec::with_capacity(base.times.len() + placed.times.len());
    let (mut prev_base, mut prev_placed) = (0u64, 0u64);
    for (&t, &cum) in base.times.iter().zip(&base.cums) {
        merged.push((t, cum - prev_base));
        prev_base = cum;
    }
    for (&t, &cum) in placed.times.iter().zip(&placed.cums) {
        merged.push((t, cum - prev_placed));
        prev_placed = cum;
    }
    // Stable: base entries stay ahead of overlay ones at the same time.
    merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cum = 0u64;
    let mut scan = 0.0f64;
    for (t, e) in merged {
        cum += e;
        if (demand + cum) as f64 > c * t + 1e-9 {
            scan = scan.max(t);
        }
    }
    debug_assert_eq!(barrier.to_bits(), scan.to_bits(), "deferred contract: barrier {barrier} vs scan {scan}");
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
    jobs: &[OnionJob],
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
        None => jobs[b].latest_time(level),
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
///     OnionJob { demand: 300, utility: tight, age: 0.0 },
///     OnionJob { demand: 300, utility: loose, age: 0.0 },
/// ];
/// let targets = peel(&jobs, 8, 0.01, 1e6)?;
/// let t0 = targets.iter().find(|t| t.job == 0).unwrap();
/// let t1 = targets.iter().find(|t| t.job == 1).unwrap();
/// assert!(t0.deadline < t1.deadline); // the tight job gets the early slot
/// # Ok(())
/// # }
/// ```
pub fn peel(
    jobs: &[OnionJob],
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

/// The global floor a peel starts from: the lowest utility any job can end
/// up with.
fn initial_floor(jobs: &[OnionJob]) -> f64 {
    let lo = jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
    if lo.is_finite() {
        lo
    } else {
        0.0
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
pub struct JobEdit<'a> {
    /// For each job of this pass, its index in the recorded pass (`None`:
    /// the job is new). The `Some` values ascend strictly, and a mapped job
    /// carries the utility it was recorded under with its age grown by
    /// exactly `tick` — only that and its demand may differ. The identity map says "same jobs"; all `None` (or
    /// a map of the wrong length) says "nothing in common" and peels from
    /// scratch.
    pub prev: &'a [Option<usize>],
    /// The recorded jobs no entry of `prev` names — the departed jobs — in
    /// recorded order, as they were recorded (no tick). A departed job is
    /// replayed as a job that left the boundary set, which needs to know
    /// where its demand was due; the demand itself is read from the
    /// recording.
    pub departed: &'a [OnionJob],
    /// Slots the clock advanced since the recorded pass: every due time
    /// of a mapped job moved `tick` slots closer (one the horizon clamps
    /// moves less).
    pub tick: f64,
}

impl JobEdit<'_> {
    /// The edit of a pass that shares nothing with the recorded one.
    pub const COLD: JobEdit<'static> = JobEdit {
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
    /// `sup()` per recorded job (see [`PeelPass::sups`]).
    sups: Vec<f64>,
    /// Sigmoid record per recorded job (see [`PeelPass::sigmoids`]).
    sigmoids: Vec<Option<SigmoidInverse>>,
    /// The floor the recorded pass started from.
    floor: f64,
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    valid: bool,
    stats: ReplayStats,
    /// The sweep state's buffers, between passes.
    scratch: ProbeScratch,
    index: CommittedIndex,
    /// The deferred phase's buffers, between passes.
    overlay: Overlay,
    /// The recorded pass's deferred jobs, `(job, level)`, until
    /// [`PeelState::place_deferred`] places them.
    deferred: Vec<(usize, f64)>,
    /// The recorded pass's reservations, `(deadline, demand)`: its peeled
    /// jobs', then its placed deferred jobs'.
    committed: Vec<(f64, u64)>,
    /// Whether the recorded pass could not honour every target (see
    /// [`PeelPass::overloaded`]).
    overloaded: bool,
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

    /// The recorded pass's deferred jobs, `(job, level)`, that
    /// [`Self::place_deferred`] has not placed yet.
    pub(crate) fn deferred(&self) -> &[(usize, f64)] {
        &self.deferred
    }

    /// The deferred phase of the recorded pass: places its deferred (zero-gain
    /// or time-insensitive) jobs at the earliest completion that leaves every
    /// reservation intact — they run in the leftover capacity at full
    /// parallelism instead of being parked at the horizon — and returns their
    /// lax [`Target`]s, in placement order. Hopeless-but-time-sensitive jobs
    /// (level ~0) go before genuinely flat ones — any residual utility tail
    /// still prefers earlier completion — and smaller demands go first within
    /// each group.
    ///
    /// It reads only what the pass wrote back: the demands, the index of the
    /// peeled jobs' reservations, the capacity and the horizon. No later
    /// pass reads what it produces (a replay recomputes the phase), so it
    /// may run any time before the next pass, or never. A second call
    /// places nothing.
    pub(crate) fn place_deferred(&mut self) -> Vec<Target> {
        let mut deferred = std::mem::take(&mut self.deferred);
        let demands = &self.demands;
        deferred.sort_by(|a, b| {
            let flat_a = a.1 > ZERO_LEVEL;
            let flat_b = b.1 > ZERO_LEVEL;
            (flat_a, demands[a.0], a.0).cmp(&(flat_b, demands[b.0], b.0))
        });
        self.overlay.clear();
        let mut targets = Vec::with_capacity(deferred.len());
        for &(i, level) in &deferred {
            let demand = self.demands[i];
            let asap = asap_deadline(demand, &self.index, &mut self.overlay, self.capacity);
            if asap > self.horizon {
                self.overloaded = true;
            }
            let deadline = asap.min(self.horizon);
            targets.push(Target { job: i, level, deadline, lax: true });
            self.committed.push((deadline, demand));
            self.overlay.placed.insert(deadline, demand);
        }
        debug_check_theorem2(&self.committed, self.capacity, self.overloaded);
        targets
    }

    /// Checks `edit` against the recorded pass and inverts it: for each
    /// recorded job its index in this pass, [`DEAD`] when it departed.
    /// `None` when the pass cannot be replayed at all.
    fn align(
        &self,
        jobs: &[OnionJob],
        tolerance: f64,
        horizon: f64,
        edit: &JobEdit<'_>,
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
/// so the result is bitwise identical to [`peel`] in every case. A pass
/// with nothing to replay (see [`ReplayStats::delta`]) is that loop resumed
/// at layer 0.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] under the same conditions as [`peel`].
pub fn peel_incremental(
    jobs: &[OnionJob],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    edit: JobEdit<'_>,
    state: &mut PeelState,
) -> Result<Vec<Target>, CoreError> {
    let mut targets = peel_layers(jobs, capacity, tolerance, horizon, edit, state)?;
    targets.extend(state.place_deferred());
    Ok(targets)
}

/// The layers of [`peel_incremental`]: every peeled job's [`Target`], in
/// peel order, with the pass written back into `state`. The deferred jobs
/// are left for [`PeelState::place_deferred`], which reads only what the
/// write-back kept; until then [`PeelState::deferred`] lists them.
pub(crate) fn peel_layers(
    jobs: &[OnionJob],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
    edit: JobEdit<'_>,
    state: &mut PeelState,
) -> Result<Vec<Target>, CoreError> {
    validate_params(capacity, tolerance, horizon)?;
    let now_at = state.align(jobs, tolerance, horizon, &edit);
    let pass = PeelPass::new(jobs, capacity, tolerance, horizon, &edit, now_at.as_deref(), state);
    Ok(pass.run(now_at.as_deref(), state))
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
struct JobDrift {
    /// Index in this pass — in the recorded pass for a job that left.
    idx: usize,
    /// The job its due time is read from (the recorded one for a job that
    /// left: it is not among this pass's jobs).
    job: OnionJob,
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

impl JobDrift {
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
                let d = self.job.latest_time(level).deadline_within(horizon);
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
/// re-verifies every recorded probe against it, whatever the event. A cold
/// pass has nothing recorded, so nothing drifted.
#[derive(Default)]
struct Drift {
    /// This pass's capacity `C` and horizon; [`PeelPass`] reads them here.
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
    jobs: Vec<JobDrift>,
    /// Under the layer being replayed (see [`Drift::enter_layer`]): the
    /// in-play members' demand increases, the in-play joiners' demand, and
    /// whether nothing at all moved under it.
    grown: f64,
    joined: f64,
    still: bool,
}

impl Drift {
    fn new(
        jobs: &[OnionJob],
        capacity: u32,
        horizon: f64,
        edit: &JobEdit<'_>,
        now_at: &[usize],
        state: &PeelState,
    ) -> Self {
        let mut changed = Vec::new();
        let mut change = |idx, job, delta, joined, left| {
            let status = ChangedStatus::Active;
            changed.push(JobDrift { idx, job, delta, joined, left, status, inv: None });
        };
        let gone = now_at.iter().enumerate().filter(|&(_, &j)| j == DEAD);
        for ((i, _), &job) in gone.zip(edit.departed) {
            change(i, job, -(state.demands[i] as f64), false, true);
        }
        for (j, (job, was)) in jobs.iter().zip(edit.prev).enumerate() {
            match *was {
                Some(i) if job.demand != state.demands[i] => {
                    let delta = job.demand as f64 - state.demands[i] as f64;
                    change(j, *job, delta, false, false);
                }
                Some(_) => {}
                None => change(j, *job, job.demand as f64, true, false),
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

/// A per-job value of this pass (`sup()`, the sigmoid record) for its `n`
/// jobs, carried over from the recorded pass's `recorded` through `prev`:
/// moved out whole when the job list is unchanged (`!edited`), else gathered
/// with `fresh(j)` for an arrival. Without `prev` — a cold pass, or a tick,
/// which moved every job's shift — every value is fresh.
fn carried<T: Copy>(
    recorded: &mut Vec<T>,
    prev: Option<&[Option<usize>]>,
    edited: bool,
    n: usize,
    fresh: impl Fn(usize) -> T,
) -> Vec<T> {
    match prev {
        None => (0..n).map(fresh).collect(),
        Some(_) if !edited => std::mem::take(recorded),
        Some(prev) => prev
            .iter()
            .enumerate()
            .map(|(j, was)| was.map_or_else(|| fresh(j), |i| recorded[i]))
            .collect(),
    }
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

/// One pass of [`peel_incremental`]: the state a from-scratch run holds at
/// the start of the layer being closed — everything layer `ℓ+1` inherits
/// from layer `ℓ`. The replay rebuilds it from the recorded actions alone,
/// the real peeling loop from its own probes, and both close a layer through
/// [`PeelPass::close`]; a cold pass is a replay with nothing recorded,
/// resumed at layer 0. This is what makes a resumed run bit-identical to a
/// from-scratch one. See [`peel_incremental`] for the contract.
struct PeelPass<'j> {
    jobs: &'j [OnionJob],
    tolerance: f64,
    /// What moved since the recorded pass; also holds the pass's capacity
    /// and horizon.
    drift: Drift,
    /// Whether a recorded layer's bisection cap can move: the job set
    /// changed (a departure or an arrival), or a tick moved every supremum.
    recap: bool,
    /// `sup()` per job, evaluated once per job *identity* — it costs a
    /// transcendental for the sigmoid class, and a job that survives into
    /// the next pass keeps its value (see [`PeelState`]).
    sups: Vec<f64>,
    /// [`OnionJob::sigmoid_inverse`] per job, kept the same way: it carries
    /// the unshifted `sup()`, so a probe inverts a sigmoid with one `ln`.
    sigmoids: Vec<Option<SigmoidInverse>>,
    /// The live jobs in descending-supremum order (ties by index), built at
    /// the first bisection cap the pass needs, and a cursor past the removed
    /// ones: a layer's maximum live supremum is O(1) amortized, and the first
    /// live entry under this total order is exactly the maximum.
    by_sup: Vec<(f64, usize)>,
    sup_cursor: usize,
    /// Jobs peeled or deferred by a closed layer, and how many are not.
    removed: Vec<bool>,
    live: usize,
    committed: Vec<(f64, u64)>,
    deferred: Vec<(usize, f64)>,
    targets: Vec<Target>,
    /// Global floor: the lowest utility any job can end up with.
    level_lo: f64,
    /// Whether `level_lo` is known feasible for the current live/committed
    /// state. Peeling a bottleneck at a proven-feasible level preserves
    /// feasibility of that level exactly (the job's demand moves from the
    /// active sweep to a reservation at the same deadline), so the floor
    /// only needs an explicit probe on the first layer and after an
    /// infeasible-floor peel.
    floor_feasible: bool,
    /// Overload marker: once a job peels off an infeasible floor (or a
    /// deferred job's ASAP slot is clamped by the horizon), the cluster
    /// cannot honor every target and Theorem 2's premise no longer holds.
    overloaded: bool,
    /// The sweep state, behind the closed layers until
    /// [`PeelPass::catch_up`]: whether the scratch was filled this pass, the
    /// jobs removed since it caught up, and how many of `committed` the
    /// index holds.
    scratch: ProbeScratch,
    scratch_live: bool,
    pending_removed: Vec<usize>,
    index: CommittedIndex,
    indexed: usize,
    /// The trace of *this* pass, written layer by layer.
    out: PeelTrace,
    stats: ReplayStats,
}

impl<'j> PeelPass<'j> {
    /// A pass over `state`'s buffers; `now_at` (from [`PeelState::align`])
    /// is `None` when nothing recorded can be replayed.
    fn new(
        jobs: &'j [OnionJob],
        capacity: u32,
        tolerance: f64,
        horizon: f64,
        edit: &JobEdit<'_>,
        now_at: Option<&[usize]>,
        state: &mut PeelState,
    ) -> Self {
        let n = jobs.len();
        let drift = match now_at {
            Some(now_at) => Drift::new(jobs, capacity, horizon, edit, now_at, state),
            None => Drift { capacity, horizon, ..Drift::default() },
        };
        let edited = drift.jobs.iter().any(|j| j.joined || j.left);
        let prev = (now_at.is_some() && edit.tick == 0.0).then_some(edit.prev);
        let sups = carried(&mut state.sups, prev, edited, n, |j| jobs[j].sup());
        let sigmoids = carried(&mut state.sigmoids, prev, edited, n, |j| jobs[j].sigmoid_inverse());
        let mut index = std::mem::take(&mut state.index);
        index.rebuild(&[]);
        let mut out = std::mem::take(&mut state.spare);
        out.clear();
        PeelPass {
            jobs,
            tolerance,
            recap: edited || drift.lag > 0.0,
            drift,
            sups,
            sigmoids,
            by_sup: Vec::new(),
            sup_cursor: 0,
            removed: vec![false; n],
            live: n,
            committed: Vec::new(),
            deferred: Vec::new(),
            targets: Vec::with_capacity(n),
            level_lo: initial_floor(jobs),
            floor_feasible: false,
            overloaded: false,
            scratch: std::mem::take(&mut state.scratch),
            scratch_live: false,
            pending_removed: Vec::new(),
            index,
            indexed: 0,
            out,
            stats: ReplayStats {
                delta: now_at.is_some(),
                ..Default::default()
            },
        }
    }

    /// The bisection cap a from-scratch run computes entering this layer:
    /// one tolerance above the highest level any live job could still reach
    /// (never below one tolerance above the floor).
    fn hi_cap(&mut self) -> f64 {
        if self.by_sup.is_empty() {
            let (sups, removed) = (&self.sups, &self.removed);
            self.by_sup.extend((0..sups.len()).filter(|&i| !removed[i]).map(|i| (sups[i], i)));
            self.by_sup.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        while self
            .by_sup
            .get(self.sup_cursor)
            .is_some_and(|&(_, i)| self.removed[i])
        {
            self.sup_cursor += 1;
        }
        let max_live = self.by_sup.get(self.sup_cursor).map(|&(s, _)| s);
        let level_hi = max_live.unwrap_or(f64::NEG_INFINITY).max(self.level_lo);
        (level_hi + self.tolerance).max(self.level_lo + self.tolerance)
    }

    /// Brings the sweep state up to the closed layers, before a probe reads
    /// it. The pass's first catch-up fills the scratch with the live jobs;
    /// later ones tombstone the jobs removed since, O(1) each, which keeps
    /// the scratch's deadline memo — a dense run of probes at one level
    /// costs one utility inversion in total. The new
    /// reservations go into the index one by one, or past 32 in one rebuild:
    /// either way ties stay in commit order.
    fn catch_up(&mut self) {
        if self.scratch_live {
            for &j in &self.pending_removed {
                self.scratch.remove(j);
            }
        } else {
            self.scratch.fill_active(&self.removed);
            self.scratch_live = true;
        }
        self.pending_removed.clear();
        self.index_committed();
    }

    /// Brings the index up to the closed layers' reservations.
    fn index_committed(&mut self) {
        if self.committed.len() - self.indexed > 32 {
            self.index.rebuild(&self.committed);
        } else {
            for &(t, e) in &self.committed[self.indexed..] {
                self.index.insert(t, e);
            }
        }
        self.indexed = self.committed.len();
    }

    /// One feasibility probe at `level` against the state the closed layers
    /// left.
    fn check(&mut self, level: f64) -> ProbeRec {
        self.catch_up();
        let (capacity, horizon) = (self.drift.capacity, self.drift.horizon);
        let scratch = &mut self.scratch;
        let outcome =
            check_level(self.jobs, &self.sigmoids, scratch, &self.index, capacity, horizon, level);
        ProbeRec { level, reach: scratch.reach, outcome }
    }

    /// [`PeelPass::check`], recorded in this pass's trace.
    fn probe(&mut self, level: f64) -> Check {
        let rec = self.check(level);
        self.out.probes.push(rec);
        rec.outcome
    }

    /// Closes the layer whose probes start at `probe_start` with `action`
    /// and records it: the one closing routine of the replay, the splice and
    /// the real loop.
    fn close(&mut self, probe_start: usize, floor_ok: bool, hi_cap: f64, action: ActionRec) {
        match action {
            // The job's utility no longer depends on when it runs — either
            // it can gain nothing (level ~0) or its utility is flat at this
            // level (time-insensitive). Defer it: it will be slotted into
            // leftover capacity once every job that *does* care has peeled.
            ActionRec::Defer { job, level } => {
                self.defer(job, level);
                self.settle(false, job, ChangedStatus::Deferred);
            }
            ActionRec::Peel { job, level, deadline } => {
                self.commit(job, level, deadline);
                self.settle(false, job, ChangedStatus::Committed(deadline));
                self.overloaded |= !floor_ok;
                self.level_lo = level;
            }
            // Everything feasible up to every job's supremum: all remaining
            // jobs close at the converged level.
            ActionRec::FinishAll { lo } => {
                for i in 0..self.jobs.len() {
                    if self.removed[i] {
                        continue;
                    }
                    match close_on(self.jobs, &self.sigmoids, &self.sups, i, lo, self.drift.horizon)
                    {
                        ActionRec::Peel { deadline, .. } => {
                            self.commit(i, lo.min(self.sups[i]), deadline);
                        }
                        ActionRec::Defer { level, .. } => self.defer(i, level),
                        ActionRec::FinishAll { .. } => {}
                    }
                }
            }
        }
        // Removing demand can only help: a floor proven feasible this layer
        // stays feasible. Peeling keeps it exactly (the demand moves from
        // the sweep to a reservation at the same deadline), and later layers
        // can only improve on this level; a floor this layer did not prove
        // must be re-probed.
        self.floor_feasible = floor_ok;
        let probe_len = (self.out.probes.len() - probe_start) as u32;
        let probe_start = probe_start as u32;
        let layer = LayerRec { probe_start, probe_len, floor_ok, hi_cap, action };
        self.out.layers.push(layer);
    }

    fn remove(&mut self, job: usize) {
        debug_assert!(!self.removed[job], "job {job} closed twice");
        self.removed[job] = true;
        self.live -= 1;
        self.pending_removed.push(job);
    }

    /// Moves a deadline-free job to the deferred list.
    fn defer(&mut self, job: usize, level: f64) {
        self.remove(job);
        self.deferred.push((job, level));
    }

    /// Peels a job: its target fixed, its demand committed.
    fn commit(&mut self, job: usize, level: f64, deadline: f64) {
        self.remove(job);
        self.targets.push(Target { job, level, deadline, lax: false });
        self.committed.push((deadline, self.jobs[job].demand));
    }

    /// Records where a changed job's demand went when its layer closed
    /// (jobs that `left` are listed under their recorded index).
    fn settle(&mut self, left: bool, idx: usize, status: ChangedStatus) {
        if let Some(j) = self.drift.jobs.iter_mut().find(|j| j.left == left && j.idx == idx) {
            j.status = status;
        }
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
        let never = |level, at: usize, drift: &mut Drift| ProbeRec {
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
        self.close(probe_start, true, hi_cap, action);
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
                        let fresh = self.check(rec.level);
                        self.stats.refreshed_probes += 1;
                        if !same_trajectory(fresh.outcome, rec.outcome, decisive == Some(k)) {
                            // The trajectory genuinely diverged: resume the
                            // real loop from this layer's entry state.
                            self.out.probes.truncate(probe_start);
                            return Some(li);
                        }
                        fresh
                    }
                };
                self.out.probes.push(verified);
            }
            let Some(action) = self.retimed(action, &self.out.probes[probe_start..]) else {
                self.out.probes.truncate(probe_start);
                return Some(li);
            };
            self.close(probe_start, layer.floor_ok, hi_cap, action);
            self.stats.replayed_layers += 1;
        }
        // Arrivals no recorded probe rose above are still active: the real
        // loop peels them from the state the last layer left.
        (self.live > 0).then_some(rec.layers.len())
    }

    /// The peeling loop (Algorithm 3's outer iteration) from the state the
    /// replayed layers left — the start, on a cold pass — recording each
    /// probe and layer as it goes.
    fn run_layers(&mut self) {
        let tolerance = self.tolerance;
        while self.live > 0 {
            let probe_start = self.out.probes.len();
            let mut lo = self.level_lo;
            let mut bottleneck: Option<usize> = None;
            let mut hi_cap = f64::NAN;
            // The floor itself may be infeasible in overload; the bottleneck
            // of the floor check then peels at the floor level.
            let floor_ok = self.floor_feasible || {
                match self.probe(lo) {
                    Check::Feasible { .. } => true,
                    Check::Infeasible { bottleneck: b, .. } => {
                        bottleneck = Some(b);
                        false
                    }
                }
            };
            if floor_ok {
                hi_cap = self.hi_cap();
                // Warm-started bisection: consecutive layers converge to
                // nearby levels, so instead of always bracketing against the
                // global sup, gallop upward from the floor with a
                // geometrically growing window until a probe turns
                // infeasible (or the cap is reached), then bisect the
                // bracket down to `tolerance`. The first probe sits one
                // tolerance above the floor: with many jobs the level gap
                // between layers is usually smaller, and an infeasible first
                // probe converges the layer immediately.
                let mut width = tolerance;
                let mut hi = (lo + width).min(hi_cap);
                while hi < hi_cap {
                    match self.probe(hi) {
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
                    match self.probe(mid) {
                        Check::Feasible { .. } => lo = mid,
                        Check::Infeasible { bottleneck: b, .. } => {
                            hi = mid;
                            bottleneck = Some(b);
                        }
                    }
                }
            }
            let horizon = self.drift.horizon;
            let action = match bottleneck {
                Some(b) => close_on(self.jobs, &self.sigmoids, &self.sups, b, lo, horizon),
                None => ActionRec::FinishAll { lo },
            };
            self.close(probe_start, floor_ok, hi_cap, action);
        }
    }

    /// Replays what `state` recorded, runs the real loop from the layer the
    /// replay stopped at, and hands the trace, the buffers of this pass and
    /// what its deferred phase will read back to `state`.
    fn run(mut self, now_at: Option<&[usize]>, state: &mut PeelState) -> Vec<Target> {
        let rec = std::mem::take(&mut state.trace);
        let floor = self.level_lo;
        // A cold pass has no layer to replay, and an edit that moved the
        // floor itself shares no probe level with the recorded pass.
        let resume_at = match now_at {
            Some(now_at) if floor.to_bits() == state.floor.to_bits() => {
                self.replay_layers(&rec, now_at)
            }
            _ => Some(0),
        };
        if resume_at.is_some() {
            // No probe is verified past the divergence: the drift is spent.
            self.drift.jobs.clear();
            self.run_layers();
        }
        self.stats.resumed_at = resume_at.filter(|_| self.stats.delta);
        // The deferred phase reads every peeled job's reservation.
        self.index_committed();
        debug_check_theorem2(&self.committed, self.drift.capacity, self.overloaded);
        state.trace = self.out;
        state.spare = rec;
        state.scratch = self.scratch;
        state.index = self.index;
        state.sups = self.sups;
        state.sigmoids = self.sigmoids;
        state.floor = floor;
        state.demands.clear();
        state.demands.extend(self.jobs.iter().map(|j| j.demand));
        state.capacity = self.drift.capacity;
        state.tolerance = self.tolerance;
        state.horizon = self.drift.horizon;
        state.valid = true;
        state.stats = self.stats;
        state.deferred = self.deferred;
        state.committed = self.committed;
        state.overloaded = self.overloaded;
        self.targets
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
    use rush_utility::TimeUtility;

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
        let jobs = [OnionJob { demand: 200, utility: u, age: 0.0 }];
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
        let jobs = [OnionJob { demand: 800, utility: u, age: 0.0 }];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert!(t[0].deadline >= 100.0 - 1e-6, "deadline {}", t[0].deadline);
        assert!(t[0].level < 0.01, "utility is gone at 10x the budget");
    }

    #[test]
    fn equal_jobs_share_equally() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let jobs = [
            OnionJob { demand: 400, utility: u, age: 0.0 },
            OnionJob { demand: 400, utility: u, age: 0.0 },
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
            OnionJob { demand: 200, utility: tight, age: 0.0 },
            OnionJob { demand: 200, utility: loose, age: 0.0 },
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
            OnionJob { demand: 1000, utility: hopeless, age: 0.0 },
            OnionJob { demand: 200, utility: healthy, age: 0.0 },
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
            OnionJob { demand: 400, utility: c, age: 0.0 },
            OnionJob { demand: 400, utility: s, age: 0.0 },
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
            OnionJob { demand: 0, utility: low, age: 0.0 },
            OnionJob { demand: 100, utility: high, age: 0.0 },
        ];
        let t = peel(&jobs, 8, 0.001, 1e6).unwrap();
        assert_eq!(t.len(), 2);
        let lvl_high = t.iter().find(|x| x.job == 1).unwrap().level;
        assert!(lvl_high > 4.5, "zero-demand job must not cap the layer, got {lvl_high}");
    }

    #[test]
    fn overload_peels_everyone_without_panic() {
        let u = sigmoid(5.0, 5.0, 1.0);
        let jobs: Vec<OnionJob> =
            (0..10).map(|_| OnionJob { demand: 10_000, utility: u, age: 0.0 }).collect();
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
            OnionJob { demand: 300, utility: a, age: 0.0 },
            OnionJob { demand: 500, utility: b, age: 0.0 },
            OnionJob { demand: 400, utility: c, age: 0.0 },
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
        let jobs = [OnionJob { demand: 1, utility: u, age: 0.0 }];
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
    fn aged_job_measures_time_from_now() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let aged = OnionJob { demand: 1, utility: u, age: 40.0 };
        assert_eq!(aged.sup(), u.utility(40.0));
        match (aged.latest_time(2.5), u.latest_time(2.5)) {
            (LatestTime::At(a), LatestTime::At(b)) => assert!((a - (b - 40.0)).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        // A level only achievable before "now" becomes Never.
        let late = OnionJob { age: 1000.0, ..aged };
        assert_eq!(late.latest_time(4.9), LatestTime::Never);
    }

    #[test]
    fn negative_age_clamps() {
        let u = sigmoid(100.0, 5.0, 0.1);
        let job = OnionJob { demand: 1, utility: u, age: -5.0 };
        assert_eq!(job.sup(), u.sup());
        assert_eq!(job.latest_time(2.5), u.latest_time(2.5));
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
            OnionJob { demand: 400, utility: heavy, age: 0.0 },
            OnionJob { demand: 400, utility: light, age: 0.0 },
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
            OnionJob { demand: 300, utility: a, age: 0.0 },
            OnionJob { demand: 500, utility: b, age: 0.0 },
            OnionJob { demand: 400, utility: c, age: 0.0 },
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
        jobs: &[OnionJob],
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

        let jobs: Vec<OnionJob> = demands
            .iter()
            .zip(&utilities)
            .map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 })
            .collect();
        let full = peel(&jobs, cap, tol, hor).unwrap();
        let inc = replayed(&jobs, cap, tol, hor, &mut state);
        assert_targets_bitwise(&full, &inc, "cold");
        assert_eq!(state.last_stats(), ReplayStats::default(), "first pass records, not replays");

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
            let jobs: Vec<OnionJob> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 })
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
            let jobs: Vec<OnionJob> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 })
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
            let jobs: Vec<OnionJob> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 })
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
        let jobs: Vec<OnionJob> = demands
            .iter()
            .zip(&utilities)
            .map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 })
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
        fn jobs(d: &[u64], us: &[TimeUtility]) -> Vec<OnionJob> {
            d.iter().zip(us).map(|(&d, u)| OnionJob { demand: d, utility: *u, age: 0.0 }).collect()
        }
        // A cold pass reports nothing replayed, resumed or refreshed.
        let cold = |state: &PeelState| assert_eq!(state.last_stats(), ReplayStats::default());
        let mut state = PeelState::new();
        let j = jobs(&[100, 200, 300], &utilities);
        replayed(&j, 8, 1e-4, 1e6, &mut state);
        cold(&state);

        // Caller says nothing carried over.
        peel_incremental(&j, 8, 1e-4, 1e6, JobEdit::COLD, &mut state).unwrap();
        cold(&state);
        let all_new = [None, None, None];
        let gone = j.clone();
        let edit = JobEdit { prev: &all_new, departed: &gone, tick: 0.0 };
        peel_incremental(&j, 8, 1e-4, 1e6, edit, &mut state).unwrap();
        cold(&state);
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
        cold(&state);
        replayed(&j2, 9, 1e-4, 1e6, &mut state);
        cold(&state);
        // Demand zero-crossing.
        let j3 = jobs(&[100, 0], &utilities[..2]);
        replayed(&j3, 9, 1e-4, 1e6, &mut state);
        cold(&state);
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
        before: &[OnionJob],
        after: &[OnionJob],
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
            [OnionJob { demand: 100, utility: late, age: 0.0 }, OnionJob { demand: 100, utility: low, age: 0.0 }];
        // Due at 20, before every recorded boundary: the feasible probes'
        // slack absorbs its 500, but 10 containers · 20 slots do not.
        let early = step(20.0, 1.0);
        let after = [before[0], before[1], OnionJob { demand: 500, utility: early, age: 0.0 }];
        assert!(replay_arrivals(&before, &after, &[Some(0), Some(1), None], 10).delta);
        // Out of reach above 1.5, where the second recorded layer probed
        // feasible levels: from scratch it answers `never` there.
        let mid = step(5000.0, 1.5);
        let after = [before[0], before[1], OnionJob { demand: 100, utility: mid, age: 0.0 }];
        assert!(replay_arrivals(&before, &after, &[Some(0), Some(1), None], 10).delta);
        // A twin of the recorded job `top`, inserted ahead of it: the same
        // levels are out of reach for both, and the `never` scan answers
        // with the lower index.
        let before =
            [OnionJob { demand: 10, utility: low, age: 0.0 }, OnionJob { demand: 10, utility: top, age: 0.0 }];
        let after = [before[0], before[1], before[1]];
        assert!(replay_arrivals(&before, &after, &[Some(0), None, Some(1)], 1000).delta);
    }

    /// Records a pass over `before`, moves the clock `tick` slots and
    /// replays, bitwise against a from-scratch peel.
    fn replay_tick(before: &[OnionJob], tick: f64, capacity: u32, horizon: f64) -> ReplayStats {
        let tol = 1e-3;
        let after: Vec<OnionJob> = before.iter().map(|&j| OnionJob { age: j.age + tick, ..j }).collect();
        let mut state = PeelState::new();
        peel_incremental(before, capacity, tol, horizon, JobEdit::COLD, &mut state).unwrap();
        let prev: Vec<Option<usize>> = (0..before.len()).map(Some).collect();
        let edit = JobEdit { prev: &prev, departed: &[], tick };
        let inc = peel_incremental(&after, capacity, tol, horizon, edit, &mut state).unwrap();
        assert_targets_bitwise(&peel(&after, capacity, tol, horizon).unwrap(), &inc, "tick");
        let stats = state.last_stats();
        assert!(stats.delta, "a tick replays");
        stats
    }

    /// A demand-`demand` job of utility `u` that arrives now.
    fn job(u: TimeUtility, demand: u64) -> OnionJob {
        OnionJob { demand, utility: u, age: 0.0 }
    }

    /// A sigmoid steep in level, 603.84 slots old: supremum 0.523, due 6.02
    /// slots from now at level 0.5 and 5.75 at 0.501. A tick of 6 slots
    /// moves it out of reach of every level above 0.50008 and leaves it due
    /// 0.02 slots from now at 0.5.
    fn steep() -> OnionJob {
        OnionJob { age: 603.84, ..job(sigmoid(500.0, 2.0, 0.01), 1) }
    }

    /// A tick moves a job due before it out of reach of the level. On a
    /// feasible probe the `C·lag` charge catches it (the job's own boundary
    /// holds its demand); on a `never` probe only [`ProbeRec::reach`] does.
    #[test]
    fn tick_moves_jobs_due_before_it_out_of_reach() {
        let top = job(step(10_000.0, 3.0), 1);
        // Under 6 slots from now only above 0.5, within 0.023 of its
        // supremum, where the recorded layer's last feasible probes sit.
        let stats = replay_tick(&[steep(), top], 6.0, 1000, 1e6);
        assert_eq!(stats.resumed_at, Some(0), "{stats:?}");
        assert!(stats.verified_probes >= 10 && stats.refreshed_probes == 1, "{stats:?}");
        // Over 6 slots from now up to 0.5 and under it above 0.5: the
        // `never` probes above 0.5 are `low`'s, and the tick moves the
        // lower-indexed `steep` out of reach there, not at the feasible
        // probes below.
        let low = job(step(10_000.0, 0.5), 1);
        let stats = replay_tick(&[steep(), low, top], 6.0, 1000, 1e6);
        assert_eq!(stats.resumed_at, Some(0), "{stats:?}");
        assert!(stats.verified_probes >= 5 && stats.refreshed_probes >= 2, "{stats:?}");
    }

    /// An arrival out of reach of a layer's first probe is spliced in ahead
    /// of it only while no member, lower-indexed, can answer that probe
    /// instead: here the tick moved `steep` out of reach there.
    #[test]
    fn tick_splices_no_arrival_ahead_of_a_member_it_moved_out_of_reach() {
        let (low, top) = (job(step(10_000.0, 0.5), 1), job(step(10_000.0, 3.0), 1));
        let before = [low, steep(), top];
        let mut after: Vec<OnionJob> = before.iter().map(|&j| OnionJob { age: j.age + 6.0, ..j }).collect();
        // Out of reach just above `low`'s level, where the second layer starts.
        after.push(job(step(10_000.0, 0.5002), 1));
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
        let stats = replay_tick(&[job(near, 400), job(far, 400)], 5.0, 1, 1000.0);
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
        let stats = replay_tick(&[job(first, 1), job(second, 1), job(top, 1)], 5.0, 1000, 1e6);
        assert_eq!((stats.resumed_at, stats.replayed_layers), (Some(1), 1), "{stats:?}");
        assert_eq!(stats.refreshed_probes, 0, "{stats:?}");
    }

    /// A recorded `Peel` carries the target of the recorded frame: the
    /// replay recomputes it at the recorded level, every probe standing.
    #[test]
    fn tick_recomputes_recorded_targets() {
        let (early, late) = (step(300.0, 0.5), step(400.0, 1.0));
        let stats = replay_tick(&[job(early, 20), job(late, 20)], 3.0, 1000, 1e6);
        assert_eq!((stats.resumed_at, stats.refreshed_probes), (None, 0), "{stats:?}");
        assert_eq!(stats.replayed_layers, 2, "{stats:?}");
    }

    /// `check_level`'s inversion of `job` at `level`: the sigmoid record
    /// with its `ln` from `memo`.
    fn kernel_deadline(job: &OnionJob, level: f64, horizon: f64, memo: &mut LnMemo) -> Option<f64> {
        let record = job.sigmoid_inverse();
        assert!(record.is_some(), "an aged sigmoid has a record");
        memo.at_level(level);
        inverse_deadline(job, record.as_ref(), level, horizon, memo)
    }

    /// What the kernel must reproduce bit for bit.
    fn reference_deadline(job: &OnionJob, level: f64, horizon: f64) -> Option<f64> {
        job.latest_time(level).deadline_within(horizon)
    }

    fn bits(d: Option<f64>) -> Option<u64> {
        d.map(f64::to_bits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4000))]

        /// The inversion kernel is `OnionJob::latest_time(..).deadline_within(..)`
        /// bit for bit: over budgets, weights and steepness; ages of 0,
        /// inside and far beyond the base deadline (and negative, which
        /// clamps); levels at and around every branch point — non-positive,
        /// tiny, interior, one ulp around the sigmoid's `sup`, `sup + 1e-12`
        /// and past it, and one ulp around the aged `sup`, where the base
        /// deadline lands on the age; small and large horizons.
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
            let s = OnionJob { demand: 1, utility: u, age: shift };
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
        let shifted: Vec<OnionJob> = utilities.iter().map(|&u| OnionJob { age: 20.0, ..job(u, 1) }).collect();
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
        let shifted: Vec<OnionJob> = utilities
            .iter()
            .enumerate()
            .map(|(i, &u)| OnionJob { age: (i % 50) as f64, ..job(u, 1) })
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
        let jobs: Vec<OnionJob> =
            utilities.iter().map(|u| OnionJob { demand: 1, utility: *u, age: 0.0 }).collect();
        let sigmoids: Vec<_> = jobs.iter().map(OnionJob::sigmoid_inverse).collect();
        let (committed, horizon) = (CommittedIndex::default(), 1e6);
        let mut scratch = ProbeScratch::default();
        scratch.fill_active(&[false; 60]);
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

    /// The sweep state's catch-up inserts a few reservations or rebuilds
    /// the index: either way the same times and prefix sums, ties in commit
    /// order, also when inserts follow a rebuild.
    #[test]
    fn rebuild_is_the_insert_sequence() {
        let committed: Vec<(f64, u64)> =
            (0..200u64).map(|k| ((k * 37 % 23) as f64, 1 + k * k % 17)).collect();
        let mut inserted = CommittedIndex::default();
        for &(t, e) in &committed {
            inserted.insert(t, e);
        }
        let bits = |ix: &CommittedIndex| -> Vec<(u64, u64)> {
            ix.times.iter().map(|t| t.to_bits()).zip(ix.cums.iter().copied()).collect()
        };
        let mut rebuilt = CommittedIndex::default();
        rebuilt.rebuild(&committed);
        assert_eq!(bits(&rebuilt), bits(&inserted));
        rebuilt.rebuild(&committed[..120]);
        for &(t, e) in &committed[120..] {
            rebuilt.insert(t, e);
        }
        assert_eq!(bits(&rebuilt), bits(&inserted));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4000))]

        /// `breaking_load` is the barrier test in integers:
        /// `X ≥ breaking_load(c, t)` ⇔ `(X as f64) > c·t + 1e-9`, for bounds
        /// `c·t` from 1 to past 2⁶⁴ — on both sides of 2⁵³, where doubles
        /// stop being exact — and loads at the threshold, one to three
        /// either side of it, around 2⁵³, at `u64::MAX` and anywhere.
        #[test]
        fn breaking_load_is_the_f64_test_exactly(
            c in 1u32..=u32::MAX,
            (exp, frac) in (0i32..66, 0.0f64..1.0),
            offset in -3i64..=3,
            anywhere in 0u64..=u64::MAX,
        ) {
            let c = c as f64;
            let t = 2f64.powi(exp) * (1.0 + frac) / c;
            let thr = breaking_load(c, t);
            let near = (thr + offset as i128).clamp(0, u64::MAX as i128) as u64;
            let loads = [near, anywhere, 0, u64::MAX, (1 << 53) - 1, 1 << 53, (1 << 53) + 1];
            for x in loads {
                proptest::prop_assert_eq!(
                    x as i128 >= thr,
                    (x as f64) > c * t + 1e-9,
                    "load {} against c {} t {} (threshold {})", x, c, t, thr
                );
            }
        }
    }
}
