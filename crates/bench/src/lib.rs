//! Shared harness for regenerating every figure of the RUSH paper.
//!
//! [`figures::FIGURES`] holds every figure of the paper's evaluation
//! (Sec. V) and every ablation as data; the `figures` binary runs them and
//! checks their reports in under `results/`. The `fig5` binary measures
//! the scheduler's own cost. This library also holds `fig5`'s flag parsing
//! and the gates `fig5` and `ablation_capacity` apply to their own numbers
//! before they exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod figures;

use rush_serve::json::Json;
use std::collections::HashMap;

/// Parses `--key value` pairs from `std::env::args`, accepting only the
/// flags named in `accepted`. An unknown flag or a stray argument is fatal
/// (exit 2): a typo must not silently run, and record, the defaults.
///
/// A `--flag` immediately followed by another `--…` token (or by nothing)
/// is a bare switch: it is stored with an empty value rather than
/// swallowing the next flag as its value, so `--quick --out f.json` parses
/// as `{quick: "", out: "f.json"}`.
pub fn parse_args(accepted: &[&str]) -> HashMap<String, String> {
    try_parse_args(std::env::args().skip(1), accepted).unwrap_or_else(|e| fatal(&e))
}

fn try_parse_args(
    args: impl IntoIterator<Item = String>,
    accepted: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a}"));
        };
        if !accepted.contains(&key) {
            return Err(format!("unknown flag --{key} (accepted: --{})", accepted.join(", --")));
        }
        let v = match args.peek() {
            Some(next) if !next.starts_with("--") => args.next().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_owned(), v);
    }
    Ok(out)
}

/// Reads a typed flag: `default` when absent. A value that does not parse
/// is fatal (exit 2), never the default — the run would otherwise be
/// recorded under parameters it did not use.
pub fn flag<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    try_flag(args, key, default).unwrap_or_else(|e| fatal(&e))
}

/// Ends the run on a harness error (a bad flag, a gate that cannot be
/// evaluated): prints `msg`, exits 2 — distinct from a failed gate's 1.
pub fn fatal(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn try_flag<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

/// Mean inter-arrival (slots) that loads the 48-container testbed to the
/// ~80 % utilization the paper's PUMA-on-Hadoop workload produced. The
/// paper quotes 130 s between arrivals of *real* 1–10 GB Hadoop jobs; our
/// synthetic jobs carry less work per job, so arrivals are compressed to
/// match the *contention level* rather than the literal constant (see
/// DESIGN.md, substitutions).
pub const CALIBRATED_INTERARRIVAL: f64 = 45.0;

/// A number Fig. 5's regression gate reads may grow to at most this factor
/// of the same number in the file the run overwrites.
pub const MAX_CACHED_REGRESSION: f64 = 2.0;
/// The job count of the gated cached total.
pub const CACHED_GATE_JOBS: u64 = 200;
/// The per-event phases the gate reads, of every cached and churn point.
pub const GATED_PHASES: [&str; 3] = ["solve", "peel", "map"];
/// A phase is gated once its reference value reaches this many ns: below
/// it, host noise outgrows the factor.
pub const MIN_GATED_PHASE_NS: f64 = 100_000.0;

/// The numbers of a Fig. 5 report the regression gate reads, by name: the
/// cached total at [`CACHED_GATE_JOBS`] (`"cached total at 200 jobs"`), and
/// every [`GATED_PHASES`] entry of every point's cached and churn profile
/// (`"churn map at 1000 jobs"`).
///
/// # Errors
///
/// Malformed JSON, a point without its profiles, or no cached total at
/// [`CACHED_GATE_JOBS`] — a gate with no reference must fail loudly, not
/// pass.
pub fn fig5_numbers(fig5_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = rush_serve::json::parse(fig5_json).map_err(|e| e.to_string())?;
    let points = doc.get("points").and_then(Json::as_arr).ok_or("no points")?;
    let mut numbers = Vec::new();
    for p in points {
        let jobs = p.get("jobs").and_then(Json::as_u64).ok_or("a point without jobs")?;
        let number = |v: Option<&Json>, name: String| {
            v.and_then(Json::as_f64).map(|ns| (name.clone(), ns)).ok_or(format!("no {name}"))
        };
        if jobs == CACHED_GATE_JOBS {
            let total = p.get("cached_ns_per_event");
            numbers.push(number(total, format!("cached total at {jobs} jobs"))?);
        }
        for (series, key) in [("cached", "profile_ns"), ("churn", "churn_profile_ns")] {
            for phase in GATED_PHASES {
                let ns = p.get(key).and_then(|ph| ph.get(phase));
                numbers.push(number(ns, format!("{series} {phase} at {jobs} jobs"))?);
            }
        }
    }
    if !numbers.iter().any(|(name, _)| name.starts_with("cached total")) {
        return Err(format!("no cached_ns_per_event at jobs = {CACHED_GATE_JOBS}"));
    }
    Ok(numbers)
}

/// One comparison of Fig. 5's regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The number's name (see [`fig5_numbers`]).
    pub name: String,
    /// Its value in the reference report.
    pub previous: f64,
    /// Its value in this run.
    pub now: f64,
    /// Whether it stayed within [`MAX_CACHED_REGRESSION`] × `previous`.
    pub ok: bool,
}

/// Fig. 5's regression gate: each number of `reference` that is gated —
/// the cached total, and every phase of at least [`MIN_GATED_PHASE_NS`] —
/// against the same number of `current`. A number the run did not measure
/// (`--quick` skips points) is not compared.
pub fn fig5_gate(reference: &[(String, f64)], current: &[(String, f64)]) -> Vec<GateCheck> {
    reference
        .iter()
        .filter(|(name, ns)| name.starts_with("cached total") || *ns >= MIN_GATED_PHASE_NS)
        .filter_map(|(name, previous)| {
            let (_, now) = current.iter().find(|(n, _)| n == name)?;
            let ok = cached_cost_gate(*previous, *now);
            Some(GateCheck { name: name.clone(), previous: *previous, now: *now, ok })
        })
        .collect()
}

/// The gate's rule for one number: it may grow to at most
/// [`MAX_CACHED_REGRESSION`] × the previous run's.
pub fn cached_cost_gate(previous_ns: f64, current_ns: f64) -> bool {
    current_ns <= MAX_CACHED_REGRESSION * previous_ns
}

/// Capacity-ablation gate: at the top revocation rate RUSH must meet at
/// least as many deadlines as the deterministic δ = 0 planner. Both counts
/// are over the same seeded workload, so the comparison is exact.
pub fn capacity_gate(rush_met: usize, deterministic_met: usize) -> bool {
    rush_met >= deterministic_met
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
        try_parse_args(argv.iter().map(|s| s.to_string()), accepted)
    }

    #[test]
    fn flag_parsing() {
        let mut m = HashMap::new();
        m.insert("jobs".to_owned(), "42".to_owned());
        assert_eq!(flag(&m, "jobs", 7usize), 42);
        assert_eq!(flag(&m, "missing", 7usize), 7);
        m.insert("bad".to_owned(), "xx".to_owned());
        let err = try_flag(&m, "bad", 3.5f64).unwrap_err();
        assert!(err.contains("--bad") && err.contains("xx"), "{err}");
    }

    #[test]
    fn cached_gate_passes_within_factor_and_fails_beyond() {
        assert!(cached_cost_gate(313_889.0, 200_000.0));
        assert!(cached_cost_gate(313_889.0, 2.0 * 313_889.0), "the limit itself passes");
        assert!(!cached_cost_gate(313_889.0, 700_000.0));
    }

    /// A two-point report: `(jobs, cached total, cached map, churn map)`;
    /// every other phase 1 µs.
    fn report(points: &[(u64, u64, u64, u64)]) -> String {
        let point = |&(jobs, total, map, churn_map): &(u64, u64, u64, u64)| {
            format!(
                r#"{{"jobs": {jobs}, "cached_ns_per_event": {total}, "profile_ns": {{"solve": 1000, "peel": 1000, "map": {map}, "assemble": 5}}, "churn_profile_ns": {{"solve": 1000, "peel": 1000, "map": {churn_map}, "assemble": 5}}}}"#
            )
        };
        let points: Vec<String> = points.iter().map(point).collect();
        format!(r#"{{"points": [{}]}}"#, points.join(", "))
    }

    #[test]
    fn gate_reads_the_total_and_every_phase() {
        let doc = report(&[(200, 313_889, 165_850, 178_911), (1000, 1_328_041, 1_058_581, 1_080_629)]);
        let numbers = fig5_numbers(&doc).unwrap();
        assert_eq!(numbers.len(), 1 + 2 * 2 * GATED_PHASES.len());
        assert!(numbers.contains(&("cached total at 200 jobs".to_owned(), 313_889.0)));
        assert!(numbers.contains(&("churn map at 1000 jobs".to_owned(), 1_080_629.0)));
        let no_total = report(&[(1000, 1_328_041, 1_058_581, 1_080_629)]);
        assert!(fig5_numbers(&no_total).is_err(), "missing point");
        assert!(fig5_numbers(&doc.replace("}]}", "}]")).is_err(), "malformed");
        assert!(fig5_numbers(&doc.replace(r#""map": 165850, "#, "")).is_err(), "missing phase");
        assert!(fig5_numbers("{}").is_err());
    }

    #[test]
    fn gate_checks_each_phase_past_the_floor_at_the_factor() {
        let reference = fig5_numbers(&report(&[(200, 313_889, 165_850, 90_000)])).unwrap();
        let verdicts = |now: &str| -> Vec<(String, bool)> {
            let current = fig5_numbers(now).unwrap();
            fig5_gate(&reference, &current).into_iter().map(|c| (c.name, c.ok)).collect()
        };
        // The total and the cached map are gated; the churn map (90 µs) and
        // the 1 µs phases are below the floor.
        let steady = verdicts(&report(&[(200, 313_889, 165_850, 90_000)]));
        let names: Vec<&str> = steady.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["cached total at 200 jobs", "cached map at 200 jobs"]);
        assert!(steady.iter().all(|(_, ok)| *ok));
        // A 5× map blow-up fails its phase although the total stays in bound.
        let blown = verdicts(&report(&[(200, 600_000, 829_250, 90_000)]));
        assert_eq!(blown, [("cached total at 200 jobs".to_owned(), true), ("cached map at 200 jobs".to_owned(), false)]);
        // Ungated numbers may move freely; the limit itself passes.
        let edge = verdicts(&report(&[(200, 2 * 313_889, 2 * 165_850, 900_000)]));
        assert!(edge.iter().all(|(_, ok)| *ok), "{edge:?}");
        // A point the run did not measure is not compared.
        let full = fig5_numbers(&report(&[(200, 1, 1, 1), (500, 1, 200_000, 1)])).unwrap();
        let quick = fig5_numbers(&report(&[(200, 1, 1, 1)])).unwrap();
        assert_eq!(fig5_gate(&full, &quick).len(), 1);
    }

    #[test]
    fn capacity_gate_passes_a_tie_and_fails_a_regression() {
        assert!(capacity_gate(43, 41));
        assert!(capacity_gate(41, 41));
        assert!(!capacity_gate(40, 41));
    }

    #[test]
    fn bare_switch_does_not_swallow_next_flag() {
        let argv = ["--quick", "--out", "f.json", "--reps", "3", "--profile"];
        let m = parse(&argv, &["quick", "out", "reps", "profile"]).unwrap();
        assert_eq!(m.get("quick").map(String::as_str), Some(""));
        assert_eq!(m.get("out").map(String::as_str), Some("f.json"));
        assert_eq!(flag(&m, "reps", 0usize), 3);
        // A switch that ends the argument list is bare too.
        assert_eq!(m.get("profile").map(String::as_str), Some(""));
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        let accepted = ["quick", "out"];
        let err = parse(&["--quik"], &accepted).unwrap_err();
        assert!(err.contains("--quik") && err.contains("--quick"), "{err}");
        let err = parse(&["--quick", "--out", "f.json", "extra"], &accepted).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }
}
