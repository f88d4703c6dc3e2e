//! `run` (every workload, stamped result file) and `compare` (two result
//! files against the bounds of `BENCHMARK.json`).

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::procstat;
use crate::serve_wl::ServeSpec;
use crate::sim_wl::SimSpec;
use crate::stats;
use crate::{Flags, RUN_SECONDS, WORKLOADS};
use rush_serve::json::{parse, Json};
use std::process::{Command, ExitCode, Stdio};

/// Prints a traced run's "where the time goes" table to stderr.
pub fn print_time_table(workload: &str, outcome: &Outcome) {
    if outcome.time_table.is_empty() {
        return;
    }
    eprintln!("{workload}: where the time goes (traced run)");
    eprintln!(
        "  {:<44} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for row in &outcome.time_table {
        eprintln!(
            "  {:<44} {:>9} {:>12.2} {:>12.2}",
            row.name, row.count, row.total_ms, row.self_ms
        );
    }
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Everything two result files must share to be comparable, plus where
/// they came from.
fn stamp(seed: u64, seconds: u64, runs: u64, quick: bool) -> Json {
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    let mut workloads: Vec<(String, Json)> = ServeSpec::FULL
        .iter()
        .map(|s| if quick { s.quick() } else { *s })
        .map(|s| (s.name.to_string(), Json::Obj(s.describe())))
        .collect();
    let sim = if quick { SimSpec::QUICK } else { SimSpec::FULL };
    workloads.push(("sim_rush".into(), Json::Obj(sim.describe())));
    Json::Obj(vec![
        ("comparable".into(), Json::Bool(!quick)),
        ("seed".into(), Json::u64(seed)),
        ("seconds".into(), Json::u64(seconds)),
        ("runs_per_workload".into(), Json::u64(runs)),
        ("nproc".into(), Json::u64(procstat::nproc() as u64)),
        ("cpu_model".into(), Json::str(procstat::cpu_model())),
        (
            "rustc".into(),
            Json::str(first_line_of("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// Runs one workload in a fresh child of this binary (so peak memory and
/// allocator state are per workload) and returns its parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn print_metrics(result: &Json, table: &[(&str, &str)]) {
    for (name, unit) in table {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"));
        let value = value.and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!("  {name:<44} {value:>16.4} {unit}");
    }
}

/// `rush-benchmark run`: every workload, untraced (`--runs` times, seeds
/// `seed`, `seed + 1`, …) and traced (once), then the stamped result file.
pub fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let quick = flags.has("quick");
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: u64 = flags.number("seconds", if quick { 1 } else { RUN_SECONDS })?;
    let runs: u64 = flags.number("runs", 1)?;
    let only = flags.value("workload");
    let out_path = flags
        .value("out")
        .unwrap_or("benchmark/out/result.json")
        .to_string();

    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for traced in [false, true] {
            for run in 0..if traced { 1 } else { runs.max(1) } {
                let result = run_child(workload, seed + run, seconds, traced, quick)?;
                let correct = result
                    .get("correct")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
                println!(
                    "{workload} seed {} trace {} — correct: {correct}, attempted: {}, failed: {}{}",
                    seed + run,
                    u8::from(traced),
                    count("attempted"),
                    count("failed"),
                    if quick {
                        " (quick: numbers not comparable)"
                    } else {
                        ""
                    },
                );
                print_metrics(&result, if traced { PER_LAYER } else { END_TO_END });
                all_correct &= correct && count("failed") == 0;
                let Json::Obj(mut fields) = result else {
                    return Err("result line is not an object".into());
                };
                fields.insert(0, ("trace".into(), Json::Bool(traced)));
                fields.insert(0, ("seed".into(), Json::u64(seed + run)));
                fields.insert(0, ("workload".into(), Json::str(workload)));
                results.push(Json::Obj(fields));
            }
        }
    }

    let doc = Json::Obj(vec![
        ("stamp".into(), stamp(seed, seconds, runs, quick)),
        ("runs".into(), Json::Arr(results)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, doc.encode() + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One result file, reduced to what `compare` needs.
struct ResultSet {
    stamp: Json,
    /// `(workload, metrics object)` of every untraced run.
    runs: Vec<(String, Json)>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let stamp = doc
        .get("stamp")
        .cloned()
        .ok_or_else(|| format!("{path}: no stamp"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no runs"))?
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
        .filter_map(|r| {
            Some((
                r.get("workload")?.as_str()?.to_string(),
                r.get("metrics")?.clone(),
            ))
        })
        .collect();
    Ok(ResultSet { stamp, runs })
}

impl ResultSet {
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|(w, _)| w == workload)
            .filter_map(|(_, m)| m.get(metric)?.get("value")?.as_f64())
            .collect()
    }
}

/// The stamp fields two files must agree on before their numbers mean the
/// same thing.
const MUST_MATCH: [&str; 5] = ["comparable", "seconds", "nproc", "cpu_model", "workloads"];

/// How one metric of one workload moved between two result sets.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Worse than the base by more than its bound.
    Regression,
    /// The spread inside one set exceeds the bound: no call can be made.
    Unresolved,
}

/// Applies one metric's bound: `base` and `new` are the per-run values of
/// the two sets. Returns the medians, how much worse `new` is as a share of
/// `base` (negative = better), and the verdict.
pub fn apply_bound(
    base: &[f64],
    new: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Option<(f64, f64, f64, Verdict)> {
    // The median of runs as Python's `statistics.median` gives it (the
    // middle quartile cut; a single run is its own median).
    let median = |v: &[f64]| stats::quartiles(v).map(|q| q[1]).or(v.first().copied());
    let (ma, mb) = (median(base)?, median(new)?);
    let worse = if lower_is_better {
        mb / ma - 1.0
    } else {
        1.0 - mb / ma
    };
    let wide = |v: &[f64]| stats::iqr_spread(v).is_some_and(|s| s > bound);
    let verdict = if wide(base) || wide(new) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some((ma, mb, worse, verdict))
}

/// `rush-benchmark compare A.json B.json`: one row per (workload,
/// end-to-end metric); exits non-zero on a regression or an unresolved pair.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for field in MUST_MATCH {
        if a.stamp.get(field) != b.stamp.get(field) {
            return Err(format!(
                "refusing to compare: stamp field {field:?} differs ({:?} vs {:?})",
                a.stamp.get(field).map(Json::encode),
                b.stamp.get(field).map(Json::encode)
            ));
        }
    }
    if a.stamp.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err("refusing to compare: --quick results are not comparable".into());
    }
    let bench_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;

    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict (ratio base = A median)",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A iqr", "B iqr"
    );
    let mut bad = 0;
    for workload in WORKLOADS {
        for metric in metrics {
            let text = |k: &str| metric.get(k).and_then(Json::as_str).unwrap_or("");
            let name = text("name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (a.values(workload, name), b.values(workload, name));
            let Some((ma, mb, _, verdict)) =
                apply_bound(&va, &vb, text("better") == "lower", bound)
            else {
                continue;
            };
            let spread =
                |v: &[f64]| stats::iqr_spread(v).map_or("n/a".to_string(), |s| format!("{s:.3}"));
            println!(
                "{workload:<20} {name:<18} {ma:>12.4} {mb:>12.4} {:>9.4} {bound:>7.2} {:>8} {:>8}  {verdict:?} ({} vs {} runs)",
                mb / ma,
                spread(&va),
                spread(&vb),
                va.len(),
                vb.len(),
            );
            bad += i32::from(verdict != Verdict::Ok);
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        // Lower is better: +8 % is inside a 10 % bound, +12 % is not.
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            apply_bound(&base, &[10.8, 10.8, 10.8], true, 0.10).map(|r| r.3),
            Some(Verdict::Ok)
        );
        assert_eq!(
            apply_bound(&base, &[11.2, 11.2, 11.2], true, 0.10).map(|r| r.3),
            Some(Verdict::Regression)
        );
        // Higher is better: a faster result is never a regression.
        assert_eq!(
            apply_bound(&base, &[20.0, 20.0, 20.0], false, 0.10).map(|r| r.3),
            Some(Verdict::Ok)
        );
        assert_eq!(
            apply_bound(&base, &[8.0, 8.0, 8.0], false, 0.10).map(|r| r.3),
            Some(Verdict::Regression)
        );
        // A set whose own spread exceeds the bound resolves nothing.
        assert_eq!(
            apply_bound(&[5.0, 10.0, 15.0], &[10.0, 10.0, 10.0], true, 0.10).map(|r| r.3),
            Some(Verdict::Unresolved)
        );
        assert_eq!(apply_bound(&[], &[1.0], true, 0.10), None);
        let (ma, mb, worse, _) = apply_bound(&base, &[11.0], true, 0.25).expect("judged");
        assert_eq!((ma, mb), (10.0, 11.0));
        assert!((worse - 0.1).abs() < 1e-12);
    }
}
