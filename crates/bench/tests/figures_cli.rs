//! The `figures` binary's command line: names only, and an unknown one is
//! a harness error (exit 2) that lists the valid names.

use std::process::Command;

#[test]
fn an_unknown_figure_exits_2_and_lists_the_valid_names() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_figures")).arg("nosuch").output().expect("spawn figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the names are checked");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuch") && stderr.contains("fig4"), "{stderr}");
}

#[test]
fn figures_takes_no_flags() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_figures")).arg("--quick").output().expect("spawn figures");
    assert_eq!(out.status.code(), Some(2));
}
