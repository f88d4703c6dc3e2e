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

/// Fig. 5's steady-state cost at [`CACHED_GATE_JOBS`] jobs may grow to at
/// most this factor of the same point in the file the run overwrites.
pub const MAX_CACHED_REGRESSION: f64 = 2.0;
/// The job count of Fig. 5's regression gate.
pub const CACHED_GATE_JOBS: u64 = 200;

/// `cached_ns_per_event` of the `"jobs": jobs` point of a Fig. 5 report.
///
/// # Errors
///
/// Malformed JSON, or no such point — a gate with no reference must fail
/// loudly, not pass.
pub fn cached_ns_at(fig5_json: &str, jobs: u64) -> Result<f64, String> {
    let doc = rush_serve::json::parse(fig5_json).map_err(|e| e.to_string())?;
    doc.get("points")
        .and_then(Json::as_arr)
        .and_then(|ps| ps.iter().find(|p| p.get("jobs").and_then(Json::as_u64) == Some(jobs)))
        .and_then(|p| p.get("cached_ns_per_event"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no cached_ns_per_event at jobs = {jobs}"))
}

/// Fig. 5 regression gate: the cached cost may grow to at most
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

    #[test]
    fn cached_reference_needs_the_point() {
        let doc = r#"{"points": [{"jobs": 20, "cached_ns_per_event": 67141},
            {"jobs": 200, "cached_ns_per_event": 313889}]}"#;
        assert_eq!(cached_ns_at(doc, 200), Ok(313_889.0));
        assert!(cached_ns_at(doc, 500).is_err(), "missing point");
        assert!(cached_ns_at(&doc.replace("313889}", "313889"), 200).is_err(), "malformed");
        assert!(cached_ns_at("{}", 200).is_err());
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
