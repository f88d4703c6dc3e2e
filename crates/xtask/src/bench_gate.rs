//! `cargo xtask bench-gate` — steady-state benchmark regression gate.
//!
//! Compares the cached (delta-path) cost per event at one job count between
//! a baseline `BENCH_fig5_scheduler_cost.json` (the checked-in numbers) and
//! a freshly produced candidate, and fails when the candidate regresses by
//! more than a configurable factor. The parser is a tiny purpose-built
//! scanner (the toolchain has no serde): it walks `"jobs": N` keys and reads
//! the `"cached_ns_per_event"` value that follows inside the same point.

/// Extract `cached_ns_per_event` for the point with `"jobs": <jobs>`.
///
/// Returns `None` when the point is absent or the JSON is malformed enough
/// that the value cannot be located.
pub fn cached_ns_at(json: &str, jobs: u64) -> Option<f64> {
    const JOBS_KEY: &str = "\"jobs\":";
    const CACHED_KEY: &str = "\"cached_ns_per_event\":";
    let mut search = 0usize;
    while let Some(off) = json[search..].find(JOBS_KEY) {
        let at = search + off + JOBS_KEY.len();
        search = at;
        let Some(n) = leading_number(&json[at..]) else { continue };
        if n != jobs as f64 {
            continue;
        }
        // The point is one JSON object on one conceptual record; the next
        // cached key after its jobs key belongs to it.
        let rest = &json[at..];
        let cached_at = rest.find(CACHED_KEY)? + CACHED_KEY.len();
        return leading_number(&rest[cached_at..]);
    }
    None
}

/// Extract `ns_per_event` from the `"sharded_points"` array for the entry
/// with `"jobs": <jobs>` and `"shards": <shards>`.
///
/// Returns `None` when the sweep, the entry, or the value is absent.
pub fn sharded_ns_at(json: &str, jobs: u64, shards: u64) -> Option<f64> {
    const SWEEP_KEY: &str = "\"sharded_points\":";
    const JOBS_KEY: &str = "\"jobs\":";
    const SHARDS_KEY: &str = "\"shards\":";
    const NS_KEY: &str = "\"ns_per_event\":";
    let sweep = &json[json.find(SWEEP_KEY)? + SWEEP_KEY.len()..];
    // The sweep array closes at the first `]` after it opens.
    let sweep = &sweep[..sweep.find(']').unwrap_or(sweep.len())];
    let mut search = 0usize;
    while let Some(off) = sweep[search..].find(JOBS_KEY) {
        let at = search + off + JOBS_KEY.len();
        search = at;
        if leading_number(&sweep[at..]) != Some(jobs as f64) {
            continue;
        }
        let rest = &sweep[at..];
        let shards_at = rest.find(SHARDS_KEY)? + SHARDS_KEY.len();
        if leading_number(&rest[shards_at..]) != Some(shards as f64) {
            continue;
        }
        let ns_at = rest.find(NS_KEY)? + NS_KEY.len();
        return leading_number(&rest[ns_at..]);
    }
    None
}

/// The outcome of one sharded-scaling comparison.
#[derive(Debug)]
pub struct ShardGateOutcome {
    /// Single-shard steady-state cost, ns/event.
    pub single: f64,
    /// N-shard steady-state cost, ns/event.
    pub sharded: f64,
    /// single / sharded — the measured scaling win.
    pub speedup: f64,
    /// Whether the speedup met the floor.
    pub pass: bool,
}

/// Gate the sharded sweep inside one candidate JSON: the `shards`-shard
/// point at `jobs` jobs must be at least `min_speedup`× faster than the
/// 1-shard point at the same job count.
pub fn shard_gate(
    candidate_json: &str,
    jobs: u64,
    shards: u64,
    min_speedup: f64,
) -> Result<ShardGateOutcome, String> {
    let single = sharded_ns_at(candidate_json, jobs, 1)
        .ok_or_else(|| format!("candidate JSON has no 1-shard point at jobs = {jobs}"))?;
    let sharded = sharded_ns_at(candidate_json, jobs, shards)
        .ok_or_else(|| format!("candidate JSON has no {shards}-shard point at jobs = {jobs}"))?;
    if sharded <= 0.0 {
        return Err(format!("{shards}-shard ns_per_event at jobs = {jobs} is not positive"));
    }
    let speedup = single / sharded;
    Ok(ShardGateOutcome { single, sharded, speedup, pass: speedup >= min_speedup })
}

/// The outcome of one capacity-ablation comparison.
#[derive(Debug)]
pub struct CapacityGateOutcome {
    /// The sweep's highest revocation rate (where the gate is evaluated).
    pub revocation_rate: f64,
    /// RUSH's deadline-hit rate at that rate (default δ).
    pub rush: f64,
    /// The deterministic δ = 0 planner's hit rate at that rate.
    pub deterministic: f64,
    /// Whether RUSH held at least the deterministic baseline's hit rate.
    pub pass: bool,
}

/// Gate the capacity ablation inside one candidate
/// `BENCH_ablation_capacity.json`: at the sweep's highest revocation rate
/// (the report's `gate` object), RUSH at the default δ must meet at least
/// as many deadlines as the deterministic δ = 0 planner. The sim is fully
/// seeded, so the comparison is exact — no slack factor is needed.
pub fn capacity_gate(candidate_json: &str) -> Result<CapacityGateOutcome, String> {
    const GATE_KEY: &str = "\"gate\":";
    const RATE_KEY: &str = "\"revocation_rate\":";
    const RUSH_KEY: &str = "\"rush_hit_rate\":";
    const DET_KEY: &str = "\"deterministic_hit_rate\":";
    let gate = &candidate_json[candidate_json
        .find(GATE_KEY)
        .ok_or_else(|| "candidate JSON has no gate object".to_string())?
        + GATE_KEY.len()..];
    let field = |key: &str| {
        gate.find(key)
            .and_then(|at| leading_number(&gate[at + key.len()..]))
            .ok_or_else(|| format!("gate object has no numeric {key} field"))
    };
    let revocation_rate = field(RATE_KEY)?;
    let rush = field(RUSH_KEY)?;
    let deterministic = field(DET_KEY)?;
    Ok(CapacityGateOutcome { revocation_rate, rush, deterministic, pass: rush >= deterministic })
}

/// Parse the number at the start of `s` (after optional whitespace).
fn leading_number(s: &str) -> Option<f64> {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(s.len());
    s[..end].parse::<f64>().ok()
}

/// The outcome of one gate comparison.
#[derive(Debug)]
pub struct GateOutcome {
    /// Baseline cached cost, ns/event.
    pub baseline: f64,
    /// Candidate cached cost, ns/event.
    pub candidate: f64,
    /// candidate / baseline.
    pub ratio: f64,
    /// Whether the candidate stayed within `factor` of the baseline.
    pub pass: bool,
}

/// Compare candidate vs baseline at `jobs`, allowing up to `factor`×.
pub fn gate(baseline_json: &str, candidate_json: &str, jobs: u64, factor: f64) -> Result<GateOutcome, String> {
    let baseline = cached_ns_at(baseline_json, jobs)
        .ok_or_else(|| format!("baseline JSON has no point with jobs = {jobs}"))?;
    let candidate = cached_ns_at(candidate_json, jobs)
        .ok_or_else(|| format!("candidate JSON has no point with jobs = {jobs}"))?;
    if baseline <= 0.0 {
        return Err(format!("baseline cached_ns_per_event at jobs = {jobs} is not positive"));
    }
    let ratio = candidate / baseline;
    Ok(GateOutcome { baseline, candidate, ratio, pass: ratio <= factor })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmark": "fig5_scheduler_cost",
  "points": [
    {"jobs": 20, "baseline_ns_per_event": 568512, "cached_ns_per_event": 67141, "profile_ns": {"solve": 24466}},
    {"jobs": 200, "baseline_ns_per_event": 15050993, "cached_ns_per_event": 313889, "profile_ns": {"solve": 29193}}
  ]
}"#;

    #[test]
    fn extracts_the_matching_point() {
        assert_eq!(cached_ns_at(SAMPLE, 20), Some(67141.0));
        assert_eq!(cached_ns_at(SAMPLE, 200), Some(313889.0));
        assert_eq!(cached_ns_at(SAMPLE, 500), None);
    }

    #[test]
    fn gate_passes_within_factor_and_fails_beyond() {
        let fast = SAMPLE.replace("313889", "200000");
        let ok = gate(SAMPLE, &fast, 200, 2.0).expect("points present");
        assert!(ok.pass);
        let slow = SAMPLE.replace("313889", "700000");
        let bad = gate(SAMPLE, &slow, 200, 2.0).expect("points present");
        assert!(!bad.pass);
        assert!(bad.ratio > 2.0);
    }

    #[test]
    fn missing_point_is_an_error() {
        assert!(gate(SAMPLE, SAMPLE, 500, 2.0).is_err());
    }

    const SHARDED: &str = r#"{
  "points": [
    {"jobs": 200, "cached_ns_per_event": 313889}
  ],
  "sharded_points": [
    {"jobs": 10000, "shards": 1, "ns_per_event": 12000000},
    {"jobs": 10000, "shards": 8, "ns_per_event": 1500000},
    {"jobs": 100000, "shards": 8, "ns_per_event": 20000000}
  ],
  "speedup_at_200_jobs": 47.9
}"#;

    #[test]
    fn extracts_the_matching_sharded_point() {
        assert_eq!(sharded_ns_at(SHARDED, 10_000, 1), Some(12_000_000.0));
        assert_eq!(sharded_ns_at(SHARDED, 10_000, 8), Some(1_500_000.0));
        assert_eq!(sharded_ns_at(SHARDED, 100_000, 8), Some(20_000_000.0));
        assert_eq!(sharded_ns_at(SHARDED, 10_000, 4), None);
        assert_eq!(sharded_ns_at(SHARDED, 50_000, 8), None);
        // The flat `points` array must not leak into the sweep lookup.
        assert_eq!(sharded_ns_at(SAMPLE, 200, 1), None);
    }

    const CAPACITY: &str = r#"{
  "benchmark": "ablation_capacity",
  "points": [
    {"scenario": "spot-storm", "revocation_rate": 0.7, "scheduler": "RUSH", "hit_rate": 0.8958}
  ],
  "gate": {
    "revocation_rate": 0.7,
    "rush_hit_rate": 0.8958,
    "deterministic_hit_rate": 0.8542,
    "fifo_hit_rate": 0.6667,
    "edf_hit_rate": 0.8542
  }
}"#;

    #[test]
    fn capacity_gate_compares_rush_to_the_deterministic_planner() {
        let ok = capacity_gate(CAPACITY).expect("gate present");
        assert!(ok.pass);
        assert!((ok.revocation_rate - 0.7).abs() < 1e-9);
        assert!((ok.rush - 0.8958).abs() < 1e-9);
        assert!((ok.deterministic - 0.8542).abs() < 1e-9);
        // A tie passes (>=); a regression fails.
        let tie = CAPACITY.replace("\"rush_hit_rate\": 0.8958", "\"rush_hit_rate\": 0.8542");
        assert!(capacity_gate(&tie).expect("gate present").pass);
        let worse = CAPACITY.replace("\"rush_hit_rate\": 0.8958", "\"rush_hit_rate\": 0.7");
        assert!(!capacity_gate(&worse).expect("gate present").pass);
        // Missing gate object or field is an error, not a silent pass.
        assert!(capacity_gate("{}").is_err());
        let no_det = CAPACITY.replace("deterministic_hit_rate", "other_rate");
        assert!(capacity_gate(&no_det).is_err());
    }

    #[test]
    fn shard_gate_checks_the_scaling_floor() {
        let ok = shard_gate(SHARDED, 10_000, 8, 3.0).expect("points present");
        assert!(ok.pass);
        assert!((ok.speedup - 8.0).abs() < 1e-9);
        let flat = SHARDED.replace("1500000", "11000000");
        let bad = shard_gate(&flat, 10_000, 8, 3.0).expect("points present");
        assert!(!bad.pass);
        assert!(shard_gate(SHARDED, 10_000, 4, 3.0).is_err(), "missing shard count");
    }
}
