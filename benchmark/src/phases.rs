//! Accumulates the kernel's own per-pass telemetry
//! ([`rush_core::plan::PlanPhaseStats`]) into the `planner.*` and `core.*`
//! per-layer metrics. Both the serve replay and the simulation probe read
//! it after every call that replanned.

use crate::metrics::Metrics;
use crate::stats;
use rush_planner::ShardedPlanner;

/// Running sums over the replans a run observed.
#[derive(Debug, Default)]
pub struct PhaseTotals {
    /// Replans that happened (including ones whose stats were overwritten
    /// before they could be read, e.g. the first pass of `submit_epoch`).
    pub replans: u64,
    /// Write events (samples, cancels, admissions) absorbed by those
    /// replans.
    pub dirty: u64,
    sampled: u64,
    solve_ns: u64,
    peel_ns: u64,
    map_ns: u64,
    assemble_ns: u64,
    pass_us: Vec<f64>,
    delta_passes: u64,
    resume0_passes: u64,
    verified_probes: u64,
    refreshed_probes: u64,
    reused_prefix: u64,
    repacked: u64,
}

impl PhaseTotals {
    /// Reads the phase breakdown of the pass `planner` ran last.
    pub fn sample(&mut self, planner: &ShardedPlanner) {
        // Every workload runs one shard, so shard 0 is the whole planner.
        // rush-lint: allow(RUSH-L008): read-only telemetry; the merged ShardedPlanner surface does not expose PlanPhaseStats
        let s = planner.shard_core(0).plan_stats();
        self.sampled += 1;
        self.solve_ns += s.solve_ns;
        self.peel_ns += s.peel_ns;
        self.map_ns += s.map_ns;
        self.assemble_ns += s.assemble_ns;
        self.pass_us
            .push((s.solve_ns + s.peel_ns + s.map_ns + s.assemble_ns) as f64 / 1e3);
        self.delta_passes += u64::from(s.peel_replay.delta);
        self.resume0_passes +=
            u64::from(!s.peel_replay.delta || s.peel_replay.resumed_at == Some(0));
        self.verified_probes += s.peel_replay.verified_probes as u64;
        self.refreshed_probes += s.peel_replay.refreshed_probes as u64;
        self.reused_prefix += s.map_delta.reused_prefix as u64;
        self.repacked += s.map_delta.repacked as u64;
    }

    /// Writes the `planner.*` / `core.*` metrics this accumulator owns.
    pub fn emit(&mut self, m: &mut Metrics) {
        let per_pass = |ns: u64| ratio(ns, self.sampled) / 1e3;
        m.set("planner.replans", self.replans as f64);
        m.set("planner.replan_us_mean", stats::mean(&self.pass_us));
        self.pass_us.sort_by(f64::total_cmp);
        m.set(
            "planner.replan_us_p90",
            stats::quantile_sorted(&self.pass_us, 0.9).unwrap_or(0.0),
        );
        m.set(
            "planner.dirty_jobs_per_replan",
            ratio(self.dirty, self.replans),
        );
        m.set("core.solve_us", per_pass(self.solve_ns));
        m.set("core.peel_us", per_pass(self.peel_ns));
        m.set("core.map_us", per_pass(self.map_ns));
        m.set("core.assemble_us", per_pass(self.assemble_ns));
        m.set(
            "core.peel.delta_frac",
            ratio(self.delta_passes, self.sampled),
        );
        m.set(
            "core.peel.resume0_frac",
            ratio(self.resume0_passes, self.sampled),
        );
        m.set(
            "core.peel.refreshed_probe_frac",
            ratio(
                self.refreshed_probes,
                self.verified_probes + self.refreshed_probes,
            ),
        );
        m.set(
            "core.map.reused_prefix_frac",
            ratio(self.reused_prefix, self.reused_prefix + self.repacked),
        );
    }
}

impl PhaseTotals {
    /// The kernel's own phase clocks as rows of the "where the time goes"
    /// table: `(name, passes, total ns)`. These are counters the program
    /// keeps, not spans the harness recorded.
    pub fn rows(&self) -> [(&'static str, u64, u64); 4] {
        [
            ("core.solve (kernel counter)", self.sampled, self.solve_ns),
            ("core.peel (kernel counter)", self.sampled, self.peel_ns),
            ("core.map (kernel counter)", self.sampled, self.map_ns),
            (
                "core.assemble (kernel counter)",
                self.sampled,
                self.assemble_ns,
            ),
        ]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
