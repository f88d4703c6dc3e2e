//! Fixture-based self-tests: the seeded-violation corpus must trip every
//! rule family, the clean corpus must pass with zero findings.

use std::path::PathBuf;

use xtask::report::{Rule, ALL_RULES};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn lint(name: &str) -> xtask::report::Report {
    xtask::lint(&fixture(name)).expect("fixture tree readable")
}

#[test]
fn violations_corpus_trips_every_rule_family() {
    let report = lint("violations");
    assert!(!report.findings.is_empty(), "seeded corpus must produce findings");
    for &rule in ALL_RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule {} not demonstrated by the seeded corpus; findings: {:#?}",
            rule.code(),
            report.findings
        );
    }
}

#[test]
fn ast_rules_flag_expected_sites() {
    let report = lint("violations");
    let has = |rule: Rule, file_part: &str, msg_part: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file.contains(file_part) && f.message.contains(msg_part))
    };
    // L009: each panic kind, with a call-graph witness path.
    assert!(has(Rule::PanicReachability, "panic_entry", "connection_loop -> handle"));
    assert!(has(Rule::PanicReachability, "panic_entry", "`panic!` in `deep_step`"));
    assert!(has(Rule::PanicReachability, "panic_entry", "`.unwrap()` in `handle`"));
    assert!(has(Rule::PanicReachability, "panic_entry", "`[]` indexing in `handle`"));
    // A `Type::name` entry point roots at that type's method.
    assert!(has(Rule::PanicReachability, "panic_entry", "run -> reactor_step"));
    // The function never called from an entry point stays silent, as do
    // the same-named method of another type and the test module.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.contains("panic_entry") && f.message.contains("unreach")),
        "{:#?}",
        report.findings
    );
    // L010: slot/capacity operands only; plain names are out of scope.
    assert!(has(Rule::ArithHygiene, "arith", "`-` on `used_slots`"));
    assert!(has(Rule::ArithHygiene, "arith", "`*` on `slot_count`"));
    assert!(has(Rule::ArithHygiene, "arith", "`+=` on `used_slots`"));
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::ArithHygiene && f.message.contains("plain_math")),
        "{:#?}",
        report.findings
    );
    // L011: the order cycle and the guard held across the socket write.
    assert!(has(Rule::LockDiscipline, "locks", "inconsistent lock order"));
    assert!(has(Rule::LockDiscipline, "locks", "held across blocking I/O `write_all`"));
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::LockDiscipline && f.message.contains("reply_after_drop")),
        "dropping the guard before the write must silence the rule: {:#?}",
        report.findings
    );
    // L013: blocking calls reachable from both root forms (`Type::name`
    // and bare), with witness paths, plus the panics in the declared
    // panic-free codec file. The unreached `join` stays silent.
    assert!(has(Rule::ReactorDiscipline, "reactor", "blocking `sleep`"));
    assert!(has(Rule::ReactorDiscipline, "reactor", "run -> tick -> backoff"));
    assert!(has(Rule::ReactorDiscipline, "reactor", "blocking `recv` in `tick`"));
    assert!(has(Rule::ReactorDiscipline, "reactor", "blocking `write_all` in `drive`"));
    assert!(has(Rule::ReactorDiscipline, "codec.rs", "`.unwrap()`"));
    assert!(has(Rule::ReactorDiscipline, "codec.rs", "`[]` indexing"));
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::ReactorDiscipline && f.message.contains("maintenance")),
        "blocking in unreached code must stay silent: {:#?}",
        report.findings
    );
}

#[test]
fn token_rules_flag_expected_sites() {
    let report = lint("violations");
    let has = |rule: Rule, file_part: &str, msg_part: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file.contains(file_part) && f.message.contains(msg_part))
    };
    assert!(has(Rule::Determinism, "det_crate", "HashMap"));
    assert!(has(Rule::Determinism, "det_crate", "hash_map"));
    assert!(has(Rule::FloatHygiene, "det_crate", "`==`"));
    assert!(has(Rule::FloatHygiene, "det_crate", "`!=`"));
    assert!(has(Rule::FloatHygiene, "det_crate", "total_cmp"));
    assert!(has(Rule::PanicHygiene, "det_crate", "`.unwrap()`"));
    assert!(has(Rule::PanicHygiene, "det_crate", "`panic!`"));
    assert!(has(Rule::PanicHygiene, "det_crate", "literal index"));
    // Test-gated code in the corpus is exempt.
    assert!(report.findings.iter().all(|f| f.line < 39 || !f.file.contains("det_crate")));
}

#[test]
fn clean_corpus_passes_with_suppressions_exercised() {
    // The fixed shapes in `deep_clean` (saturating slot math, consistent
    // lock order, panic-free entry point) are checked by the rules they
    // silence.
    let report = lint("clean");
    assert!(
        report.findings.is_empty(),
        "clean corpus must produce no findings, got: {:#?}",
        report.findings
    );
    // The pragma and the allowlist entry are both exercised.
    assert!(report.suppressed >= 2, "expected pragma + allowlist suppressions");
}

#[test]
fn json_report_carries_codes_and_counts() {
    let report = lint("violations");
    let json = report.render_json();
    for &rule in ALL_RULES {
        assert!(json.contains(rule.code()), "JSON must mention {}", rule.code());
    }
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"total\""));
}

#[test]
fn explain_text_exists_for_every_rule() {
    for &rule in ALL_RULES {
        let text = rule.explain();
        assert!(text.contains(rule.code()), "explain for {} must cite its code", rule.code());
        assert!(text.len() > 200, "explain for {} should be substantive", rule.code());
    }
}
