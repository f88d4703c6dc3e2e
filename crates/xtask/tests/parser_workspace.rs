//! Parser self-test: the deep-lint recursive-descent parser must accept
//! every `.rs` file in the real workspace with zero structural errors and
//! zero recovered tokens. Anything less means the workspace model (and so
//! RUSH-L009..L013) is built from an incomplete picture of the code.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

#[test]
fn every_workspace_file_parses_cleanly() {
    let results = xtask::parse_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        results.len() >= 100,
        "expected the full workspace (>= 100 .rs files), scanned {}",
        results.len()
    );
    let dirty: Vec<_> = results
        .iter()
        .filter(|(_, errors, recovered)| *errors > 0 || *recovered > 0)
        .collect();
    assert!(
        dirty.is_empty(),
        "parser must accept 100% of workspace sources; failures (file, errors, recovered): {dirty:#?}"
    );
}

#[test]
fn fixture_corpora_parse_without_structural_errors() {
    // The seeded-violation corpus is still well-formed Rust: the parser
    // may not mistake a lint violation for a syntax problem.
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let results = xtask::parse_workspace(&fixtures).expect("fixtures readable");
    assert!(!results.is_empty(), "fixture corpus missing");
    let dirty: Vec<_> = results
        .iter()
        .filter(|(_, errors, recovered)| *errors > 0 || *recovered > 0)
        .collect();
    assert!(dirty.is_empty(), "fixture sources must parse cleanly: {dirty:#?}");
}
