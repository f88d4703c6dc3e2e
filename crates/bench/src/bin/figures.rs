//! Runs the reproduction's figures ([`rush_bench::figures::FIGURES`]):
//! every one with no argument, or the named ones in table order
//! (`figures fig4 ablation_theta`). Each figure's report is printed and
//! written to `results/<name>.txt`; CI diffs those files. There are no
//! flags: every parameter is a constant of the figure table.
//!
//! Exit codes: 2 on an unknown name (the valid ones are listed) or a file
//! that cannot be written; 1 when a figure's gate failed, once every named
//! figure has run and written its report.

use rush_bench::fatal;
use rush_bench::figures::FIGURES;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let valid: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    if let Some(unknown) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        fatal(&format!("unknown figure {unknown}; valid: {}", valid.join(" ")));
    }
    let mut pass = true;
    for &(name, run) in
        FIGURES.iter().filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f))
    {
        let (report, ok) = run();
        print!("{report}");
        let path = format!("results/{name}.txt");
        if let Err(e) = std::fs::write(&path, &report) {
            fatal(&format!("cannot write {path}: {e}"));
        }
        if !ok {
            eprintln!("{name}: gate FAILED");
            pass = false;
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
