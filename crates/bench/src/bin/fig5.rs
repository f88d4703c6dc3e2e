//! Figure 5 — resource consumption and execution time of the scheduler.
//!
//! Reproduces: the cost of one full CA pass (estimate → WCDE → onion peel →
//! mapping) as the number of simultaneous jobs grows from 20 to 1000, plus
//! an estimate of the scheduler's working-set size.
//!
//! Paper's finding: runtime grows roughly linearly (0.32 s → 7.34 s on
//! their VM) and memory stays under 130 MB — RUSH is lightweight. Absolute
//! numbers differ on other hardware; the linear *shape* is the claim.
//!
//! Beyond the paper, this binary records the effect of the incremental CA
//! pipeline. Three per-event costs are measured:
//!
//! * **baseline** — the pre-optimization pipeline: per-job estimate + WCDE
//!   with no memoization and the straightforward [`rush_oracle::onion`]
//!   peel (per-probe allocation + sort, full-range bisection per layer).
//! * **uncached** — one pass from scratch on a cold
//!   [`rush_core::plan::PlanState`] (what `compute_plan` does): optimized
//!   peel, no memoization.
//! * **cached** — steady state: each scheduling event mutates one job and
//!   re-plans through a warm [`rush_core::plan::PlanState`]: the estimate +
//!   WCDE stage re-solves only the mutated job, the onion peel *replays*
//!   its recorded probe trajectory (delta peeling), and the mapping is
//!   rerun whole over occupation runs (`mapping::map_profile`).
//! * **churn** — the same warm state under job churn: each event retires
//!   one job and admits one, so the peel replays a trace whose job set
//!   changed (a layer dropped, a layer spliced in, or a resume where the
//!   loads moved too far). Report-only: no gate reads it.
//!
//! Results are written to `BENCH_fig5_scheduler_cost.json` (override with
//! `--out PATH`) so the speedup is a versioned artifact, not terminal
//! scroll-back. Each cached point carries a per-phase breakdown
//! (estimate+WCDE / peel / mapping / assembly ns per event) so the
//! peel-dominance claim stays measured; `--profile` prints it as a table,
//! with the same split for the from-scratch and churn series.
//!
//! The run gates its own numbers (exit 1 on a regression, 2 when the gate
//! cannot be evaluated) against the file at `--out`, read before it is
//! overwritten ([`fig5_gate`]; no file, no gate): the cached total at 200
//! jobs, and every solve / peel / map phase of every cached and churn point
//! that reads at least 100 µs there, each at 2×.
//!
//! Flags: `--reps N`, `--seed S`, `--capacity C`, `--out PATH`, `--quick`
//! (CI mode: fewer points and repetitions), `--profile` (print the phase
//! breakdowns). Any other flag exits 2.

use rand::Rng;
use rush_bench::{
    fatal, fig5_gate, fig5_numbers, flag, parse_args, MAX_CACHED_REGRESSION, MIN_GATED_PHASE_NS,
};
use rush_core::mapping::{map_continuous, MapJob};
use rush_core::onion::OnionJob;
use rush_core::plan::{compute_plan_incremental, PlanInput, PlanPhaseStats, PlanState};
use rush_core::wcde::worst_case_quantile;
use rush_core::RushConfig;
use rush_estimator::DistributionEstimator;
use rush_metrics::table::{fmt_f64, Table};
use rush_oracle::onion as naive;
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_utility::TimeUtility;
use std::process::ExitCode;
use std::time::Instant;

/// Synthetic WordCount-like jobs with random configurations (paper Sec.
/// V-C), keyed `first_key..` and stamped with generation 0, as the planner
/// kernel keys and stamps its jobs.
fn synth_jobs(n: usize, seed: u64, first_key: u64) -> Vec<PlanInput<'static>> {
    let mut rng = seeded_rng(derive_seed(seed, n as u64));
    (first_key..)
        .take(n)
        .map(|key| {
            let observed = rng.gen_range(5..40);
            let remaining = rng.gen_range(5..80);
            let mean: f64 = rng.gen_range(30.0..90.0);
            let samples: Vec<u64> = (0..observed)
                .map(|_| (mean + rng.gen_range(-15.0f64..15.0)).max(1.0) as u64)
                .collect();
            let budget = rng.gen_range(200.0..4000.0);
            PlanInput {
                key,
                generation: Some(0),
                samples: samples.into(),
                remaining_tasks: remaining,
                failed_attempts: 0,
                age: rng.gen_range(0.0..200.0),
                utility: TimeUtility::sigmoid(budget, rng.gen_range(1.0..5.0), 10.0 / budget)
                    .expect("valid utility"),
            }
        })
        .collect()
}

/// Rough working-set estimate of one CA pass: the dominant allocations are
/// the per-job quantized PMFs and the mapping queues.
fn approx_bytes(cfg: &RushConfig, n_jobs: usize, capacity: u32) -> usize {
    let pmf = cfg.max_bins * std::mem::size_of::<f64>();
    let per_job = pmf * 2 // reference + REM reweighting scratch
        + 64 * std::mem::size_of::<u64>() // samples
        + 256; // entries, targets, segments
    n_jobs * per_job + capacity as usize * std::mem::size_of::<u64>()
}

/// The pre-optimization CA pass: per-job estimate + WCDE recomputed from
/// scratch, reference (`naive`) onion peel, continuous mapping. This is
/// what every scheduling event cost before the incremental pipeline.
fn baseline_pass(cfg: &RushConfig, capacity: u32, jobs: &[PlanInput<'_>]) {
    let de = cfg.estimator();
    let n = jobs.len();
    let mut etas = Vec::with_capacity(n);
    let mut task_lens = Vec::with_capacity(n);
    for j in jobs {
        let est = de.estimate(&j.samples, j.remaining_tasks).expect("estimate");
        let eta = worst_case_quantile(&est.pmf, cfg.theta, cfg.delta).expect("wcde").eta;
        etas.push(eta);
        task_lens.push(est.mean_task_runtime.ceil().max(1.0) as u64);
    }
    let onion_jobs: Vec<OnionJob> = jobs
        .iter()
        .zip(&etas)
        .map(|(j, &eta)| OnionJob { demand: eta, utility: j.utility, age: j.age })
        .collect();
    let targets = naive::peel(&onion_jobs, capacity, cfg.tolerance, cfg.horizon).expect("peel");
    let mut target_of = vec![0.0f64; n];
    let mut lax_of = vec![false; n];
    for t in &targets {
        target_of[t.job] = t.deadline;
        lax_of[t.job] = t.lax;
    }
    let map_jobs: Vec<MapJob> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let nt = job.remaining_tasks as u64;
            let r = if nt > 0 { etas[i].div_ceil(nt).max(task_lens[i]) } else { task_lens[i] };
            MapJob { tasks: nt, task_len: r, target: target_of[i].max(1.0) as u64, lax: lax_of[i] }
        })
        .collect();
    let _ = map_continuous(&map_jobs, capacity).expect("map");
}

/// One scheduling event: a task of job `k` completes. Exactly one job's
/// estimator-visible state changes, and so does its generation — the
/// access pattern the plan cache is built for.
fn apply_event(jobs: &mut [PlanInput<'static>], k: usize, sample: u64) {
    let job = &mut jobs[k];
    job.generation = job.generation.map(|g| g + 1);
    job.samples.to_mut().push(sample);
    if job.samples.len() > 120 {
        job.samples.to_mut().remove(0);
    }
    if job.remaining_tasks > 1 {
        job.remaining_tasks -= 1;
    }
}

struct Point {
    jobs: usize,
    baseline_ns_per_event: f64,
    uncached_ns_per_event: f64,
    cached_ns_per_event: f64,
    /// Per-phase ns/event of the cached (steady-state) series:
    /// estimate+WCDE, peel, mapping, assembly.
    phase_ns: [f64; 4],
    churn_ns_per_event: f64,
    /// Likewise for the churn series.
    churn_phase_ns: [f64; 4],
    /// Likewise for the from-scratch (uncached) series, per pass.
    full_phase_ns: [f64; 4],
    approx_mb: f64,
}

/// The fastest of three identical rounds of `events` warm replans, each
/// from a fresh state: `(ms per event, per-phase ns per event)`. Min-of-k
/// suppresses host scheduling noise, which at sub-millisecond budgets
/// otherwise dominates the estimate. `event(jobs, e)` applies the e-th
/// scheduling event to the job list.
fn warm_series(
    cfg: &RushConfig,
    capacity: u32,
    fleet: &[PlanInput<'static>],
    events: usize,
    event: impl Fn(&mut Vec<PlanInput<'static>>, usize),
) -> (f64, [f64; 4]) {
    let mut best = (f64::INFINITY, [0f64; 4]);
    for _ in 0..3 {
        let mut jobs = fleet.to_vec();
        let mut state = PlanState::new();
        let _ = compute_plan_incremental(cfg, capacity, &jobs, &mut state).expect("plan");
        let mut round_phase = [0u64; 4];
        let t = Instant::now();
        for e in 0..events {
            event(&mut jobs, e);
            let _ = compute_plan_incremental(cfg, capacity, &jobs, &mut state).expect("plan");
            add_phases(&mut round_phase, state.last_stats());
        }
        let round_ms = t.elapsed().as_secs_f64() * 1e3 / events as f64;
        if round_ms < best.0 {
            best = (round_ms, round_phase.map(|v| v as f64 / events as f64));
        }
    }
    best
}

/// Mean wall-clock ms of `reps` calls of `pass`.
fn mean_ms(reps: usize, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        pass();
    }
    t.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Adds one pass's solve / peel / map / assemble ns to `acc`.
fn add_phases(acc: &mut [u64; 4], st: PlanPhaseStats) {
    for (a, ns) in acc.iter_mut().zip([st.solve_ns, st.peel_ns, st.map_ns, st.assemble_ns]) {
        *a += ns;
    }
}

fn main() -> ExitCode {
    let args = parse_args(&["reps", "seed", "capacity", "out", "quick", "profile"]);
    let quick = args.contains_key("quick");
    let profile = args.contains_key("profile");
    let reps: usize = flag(&args, "reps", if quick { 2 } else { 5 });
    let seed: u64 = flag(&args, "seed", 1);
    let capacity: u32 = flag(&args, "capacity", 48);
    let out_path: String = flag(&args, "out", "BENCH_fig5_scheduler_cost.json".to_owned());
    let cfg = RushConfig::default();
    // The regression gate's reference is the file this run overwrites.
    let previous = match std::fs::read_to_string(&out_path) {
        Ok(text) => {
            Some(fig5_numbers(&text).unwrap_or_else(|e| fatal(&format!("{out_path}: {e}"))))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("no file at {out_path}: regression gate skipped\n");
            None
        }
        Err(e) => fatal(&format!("cannot read {out_path}: {e}")),
    };

    println!("Figure 5: CA-pass cost vs number of simultaneous jobs");
    println!("capacity {capacity} containers, {reps} repetitions per point\n");

    let ns: &[usize] = if quick { &[20, 100, 200, 1000] } else { &[20, 50, 100, 200, 500, 1000] };
    let mut t = Table::new([
        "jobs", "baseline_ms", "full_ms", "event_ms", "churn_ms", "speedup", "approx_MB",
    ]);
    let mut points: Vec<Point> = Vec::new();
    let mut prev: Option<(usize, f64)> = None;
    let mut ratios = Vec::new();
    for &n in ns {
        // Baseline: the pre-optimization per-event cost — full recompute
        // with the reference peel (the paper's Fig. 5 measurement).
        let jobs = synth_jobs(n, seed, 0);
        baseline_pass(&cfg, capacity, &jobs); // warm-up
        let baseline_ms = mean_ms(reps, || baseline_pass(&cfg, capacity, &jobs));

        // Uncached: every pass from scratch on a cold state (what
        // `compute_plan` does), with the optimized peel.
        let cold_pass = |phases: &mut [u64; 4]| {
            let mut state = PlanState::new();
            let _ = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).expect("plan");
            add_phases(phases, state.last_stats());
        };
        cold_pass(&mut [0; 4]); // warm-up
        let mut full_phase = [0u64; 4];
        let uncached_ms = mean_ms(reps, || cold_pass(&mut full_phase));

        // Cached: steady-state event cost. Each event mutates one job, so
        // the memoized estimate + WCDE stage re-solves that job, the peel
        // replays its recorded trajectory, and the run-length mapping is
        // rerun whole on recycled buffers. The identical event series
        // runs three times from a fresh state and the fastest round is kept.
        let events = (reps * 40).max(120);
        let (cached_ms, phase_ns) = warm_series(&cfg, capacity, &jobs, events, |jobs, e| {
            apply_event(jobs, e % n, 40 + (e as u64 * 13) % 50);
        });

        // Churn: every event retires one resident job and admits a new one
        // at the tail, keyed above every resident (the order ids are handed
        // out in).
        let spares = synth_jobs(events, derive_seed(seed, 0xC4), n as u64);
        let (churn_ms, churn_phase_ns) = warm_series(&cfg, capacity, &jobs, events, |jobs, e| {
            jobs.remove((e * 7919) % jobs.len());
            jobs.push(spares[e].clone());
        });

        if let Some((pn, pms)) = prev {
            // Growth rate per job ratio: ideally ~ (n/pn) for linear cost.
            ratios.push((baseline_ms / pms) / (n as f64 / pn as f64));
        }
        prev = Some((n, baseline_ms));
        let mb = approx_bytes(&cfg, n, capacity) as f64 / 1e6;
        t.row([
            n.to_string(),
            fmt_f64(baseline_ms, 2),
            fmt_f64(uncached_ms, 2),
            fmt_f64(cached_ms, 2),
            fmt_f64(churn_ms, 2),
            fmt_f64(baseline_ms / cached_ms, 2),
            fmt_f64(mb, 1),
        ]);
        points.push(Point {
            jobs: n,
            baseline_ns_per_event: baseline_ms * 1e6,
            uncached_ns_per_event: uncached_ms * 1e6,
            cached_ns_per_event: cached_ms * 1e6,
            phase_ns,
            churn_ns_per_event: churn_ms * 1e6,
            churn_phase_ns,
            full_phase_ns: full_phase.map(|v| v as f64 / reps as f64),
            approx_mb: mb,
        });
    }
    println!("{}", t.render());
    if profile {
        for (i, series) in ["full", "cached", "churn"].into_iter().enumerate() {
            let mut pt = Table::new(["jobs", "solve_us", "peel_us", "map_us", "assemble_us"]);
            for p in &points {
                let ns = [p.full_phase_ns, p.phase_ns, p.churn_phase_ns][i];
                let [solve, peel, map, assemble] = ns.map(|v| fmt_f64(v / 1e3, 1));
                pt.row([p.jobs.to_string(), solve, peel, map, assemble]);
            }
            println!("\n{series}-series phase breakdown (per event):\n{}", pt.render());
        }
    }
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!("normalized growth rate (1.0 = perfectly linear): {}", fmt_f64(avg_ratio, 2));
    println!("Paper shape: near-linear runtime growth; memory well under 130 MB.");

    let json = render_json(&points, capacity, reps, seed, quick);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }

    let Some(previous) = previous else {
        return ExitCode::SUCCESS;
    };
    let now = fig5_numbers(&json).unwrap_or_else(|e| fatal(&format!("this run's report: {e}")));
    let checks = fig5_gate(&previous, &now);
    println!(
        "gate: the cached total and every phase of at least {:.0} µs, each within \
         {MAX_CACHED_REGRESSION:.2}x of {out_path} as it was:",
        MIN_GATED_PHASE_NS / 1e3
    );
    for c in &checks {
        println!(
            "  {:<26} previous {:>9.0} now {:>9.0} ({:.2}x) -> {}",
            c.name,
            c.previous,
            c.now,
            c.now / c.previous,
            if c.ok { "PASS" } else { "FAIL" }
        );
    }
    if checks.iter().all(|c| c.ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON: the workspace builds offline, without serde.
fn render_json(points: &[Point], capacity: u32, reps: usize, seed: u64, quick: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"benchmark\": \"fig5_scheduler_cost\",");
    let _ = writeln!(s, "  \"unit\": \"ns_per_event\",");
    let _ = writeln!(s, "  \"capacity\": {capacity},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"jobs\": {}, \"baseline_ns_per_event\": {:.0}, \"uncached_ns_per_event\": {:.0}, \"cached_ns_per_event\": {:.0}, \"speedup\": {:.2}, \"approx_mb\": {:.1}, \"profile_ns\": {}, \"churn_ns_per_event\": {:.0}, \"churn_profile_ns\": {}}}{}",
            p.jobs,
            p.baseline_ns_per_event,
            p.uncached_ns_per_event,
            p.cached_ns_per_event,
            p.baseline_ns_per_event / p.cached_ns_per_event,
            p.approx_mb,
            phases_json(p.phase_ns),
            p.churn_ns_per_event,
            phases_json(p.churn_phase_ns),
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let last = points.last().expect("at least one point");
    let _ = writeln!(
        s,
        "  \"speedup_at_{}_jobs\": {:.2}",
        last.jobs,
        last.baseline_ns_per_event / last.cached_ns_per_event
    );
    let _ = writeln!(s, "}}");
    s
}

/// A `{"solve": …, "peel": …, "map": …, "assemble": …}` object of ns.
fn phases_json([solve, peel, map, assemble]: [f64; 4]) -> String {
    format!(
        "{{\"solve\": {solve:.0}, \"peel\": {peel:.0}, \"map\": {map:.0}, \"assemble\": {assemble:.0}}}"
    )
}
