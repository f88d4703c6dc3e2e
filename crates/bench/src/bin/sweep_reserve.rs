//! Internal tuning sweep: insensitive-reserve fraction vs outcomes.
use rush_bench::{flag, parse_args, run_comparison};
use rush_core::RushConfig;
use rush_metrics::table::{fmt_f64, Table};

fn main() {
    let args = parse_args();
    let jobs: usize = flag(&args, "jobs", 40);
    let seed: u64 = flag(&args, "seed", 1);
    let ratio: f64 = flag(&args, "ratio", 1.5);
    let mut t = Table::new(["reserve", "mean_util", "zero", "median_lat", "q3_lat", "met", "makespan"]);
    for reserve in [0.5f64, 0.75, 0.9, 0.95, 1.0] {
        let cfg = RushConfig { insensitive_reserve: reserve, ..Default::default() };
        let results = run_comparison(jobs, ratio, seed, cfg);
        let (_, rush) = results.iter().find(|(n, _)| n == "RUSH").unwrap();
        let s = rush.summary();
        let lat = s.latency.as_ref().expect("time-aware jobs");
        t.row([
            fmt_f64(reserve, 2),
            fmt_f64(s.mean_utility, 3),
            fmt_f64(s.zero_utility_fraction, 2),
            fmt_f64(lat.median, 1),
            fmt_f64(lat.q3, 1),
            s.met_of_n(),
            rush.makespan.to_string(),
        ]);
    }
    println!("ratio {ratio}x, {jobs} jobs");
    println!("{}", t.render());
}
