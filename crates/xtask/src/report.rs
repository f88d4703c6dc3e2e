//! Findings, stable rule codes, `--explain` documentation and JSON output.

use std::fmt;

/// Stable rule codes. The numeric part never changes once shipped, and
/// the number of a retired rule (L004–L008, L012, L014) is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// RUSH-L001 — determinism: no hash-order iteration in deterministic crates.
    Determinism,
    /// RUSH-L002 — float hygiene: no `==`/`!=` on floats, no `partial_cmp().unwrap()`.
    FloatHygiene,
    /// RUSH-L003 — panic hygiene: no `unwrap`/`expect`/`panic!` in library code.
    PanicHygiene,
    /// RUSH-L009 — panic reachability: no panic path reachable from
    /// the daemon's declared entry points on the workspace call graph.
    PanicReachability,
    /// RUSH-L010 — arithmetic hygiene: unchecked `+`/`-`/`*` on
    /// slot/capacity integers in kernel crates.
    ArithHygiene,
    /// RUSH-L011 — lock discipline: consistent acquisition order;
    /// no lock held across I/O or planner fan-out.
    LockDiscipline,
    /// RUSH-L013 — reactor discipline: no blocking call reachable
    /// from a declared reactor event loop; declared codec files panic-free.
    ReactorDiscipline,
}

/// All rules, in code order.
pub const ALL_RULES: &[Rule] = &[
    Rule::Determinism,
    Rule::FloatHygiene,
    Rule::PanicHygiene,
    Rule::PanicReachability,
    Rule::ArithHygiene,
    Rule::LockDiscipline,
    Rule::ReactorDiscipline,
];

impl Rule {
    /// The stable `RUSH-LNNN` code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Determinism => "RUSH-L001",
            Rule::FloatHygiene => "RUSH-L002",
            Rule::PanicHygiene => "RUSH-L003",
            Rule::PanicReachability => "RUSH-L009",
            Rule::ArithHygiene => "RUSH-L010",
            Rule::LockDiscipline => "RUSH-L011",
            Rule::ReactorDiscipline => "RUSH-L013",
        }
    }

    /// Parse a `RUSH-LNNN` code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Rule> {
        let c = code.to_ascii_uppercase();
        ALL_RULES.iter().copied().find(|r| r.code() == c)
    }

    /// One-line summary used in finding output.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Determinism => "hash-ordered collection in a determinism-critical crate",
            Rule::FloatHygiene => "float comparison hazard",
            Rule::PanicHygiene => "panic path in library code",
            Rule::PanicReachability => "panic path reachable from a daemon entry point",
            Rule::ArithHygiene => "unchecked slot/capacity arithmetic in kernel code",
            Rule::LockDiscipline => "lock-order or held-across-I/O hazard",
            Rule::ReactorDiscipline => "blocking call or panic in reactor/codec hot path",
        }
    }

    /// Long-form documentation for `--explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "RUSH-L001: determinism\n\
                 \n\
                 The fast CA pipeline and the event-indexed simulation engine are both\n\
                 validated against naive twins by *bit-identical* differential tests.\n\
                 Iterating a `HashMap`/`HashSet` yields platform- and run-dependent order,\n\
                 which silently breaks that property. In crates marked\n\
                 `[package.metadata.rush-lint] deterministic = true` (rush-core, rush-sim,\n\
                 rush-prob), non-test code must not name `HashMap`/`HashSet` or import\n\
                 `std::collections::hash_map`/`hash_set`. Use `BTreeMap`/`BTreeSet`, `Vec`,\n\
                 or index-keyed structures instead.\n\
                 \n\
                 A map that is provably never iterated (pure point lookups) may be kept\n\
                 with a pragma on the line:  // rush-lint: allow(RUSH-L001): <why>\n"
            }
            Rule::FloatHygiene => {
                "RUSH-L002: float hygiene\n\
                 \n\
                 `==`/`!=` against float literals is almost always a rounding bug in the\n\
                 REM/WCDE/onion math; compare against a tolerance or restructure.\n\
                 `partial_cmp(..).unwrap()`/`.expect(..)` panics on NaN and orders\n\
                 `-0.0`/`+0.0` unstably across refactors — use `f64::total_cmp`, which is a\n\
                 total order and cannot panic.\n\
                 \n\
                 Limitation (token-level analyzer): only comparisons with a float *literal*\n\
                 operand are detected; variable-vs-variable float equality is not.\n\
                 Intentional exact comparisons (e.g. sentinel values) take a pragma:\n\
                 // rush-lint: allow(RUSH-L002): <why>\n"
            }
            Rule::PanicHygiene => {
                "RUSH-L003: panic hygiene\n\
                 \n\
                 Library code (non-test, non-bench, non-bin) of the algorithm crates marked\n\
                 `[package.metadata.rush-lint] library-hygiene = true` must not call\n\
                 `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` or index\n\
                 slices with bare integer literals. Return `Result`/`Option` instead, or\n\
                 document the bound.\n\
                 \n\
                 Grandfathered sites live in the checked-in allowlist `xtask-lint.allow`\n\
                 (format: CODE|path-suffix|line-substring|justification). New sites need a\n\
                 pragma with a justification:  // rush-lint: allow(RUSH-L003): <why>\n\
                 Integer-literal indexing is accepted when the line (or the line above)\n\
                 carries a `bound:`-style comment explaining why it cannot be out of range.\n"
            }
            Rule::PanicReachability => {
                "RUSH-L009: panic reachability\n\
                 \n\
                 RUSH's robustness guarantees (Theorems 2/3) only hold if the daemon\n\
                 survives every request: a panic mid-epoch tears down a reactor (and\n\
                 every connection it owns) or the planner thread and silently drops\n\
                 committed work. This rule parses the whole workspace (the from-scratch\n\
                 recursive-descent parser over the lint lexer), builds a name-based call\n\
                 graph, and walks it from the entry points each crate declares in\n\
                 `[package.metadata.rush-lint] entry-points = [\"Reactor::run\", ...]`\n\
                 (`Type::name` is a method of `Type`, a bare name any function so\n\
                 named; for rush-serve: the reactor event loop and the epoch planner\n\
                 loop). Any `panic!`-family macro, `.unwrap()`, `.expect(..)` or\n\
                 non-range `[]`-index reachable on that graph in non-test library code\n\
                 is reported together with one call path that reaches it.\n\
                 \n\
                 Resolution is deliberately over-approximate (a `.m()` call may target\n\
                 any method named `m`), which is sound for reachability: it can only\n\
                 claim more code reachable, never miss a path. Bare `[]`-indexing is\n\
                 reported only inside crates that declare entry points; integer-literal\n\
                 indexes justified by a `bound:` comment are accepted, as are sites\n\
                 covered by existing RUSH-L003 pragmas or allowlist entries — the two\n\
                 rules share the panic-hygiene escape hatch:\n\
                 // rush-lint: allow(RUSH-L009): <why>\n"
            }
            Rule::ArithHygiene => {
                "RUSH-L010: slot/capacity arithmetic hygiene\n\
                 \n\
                 Slot counts and capacity totals are the load-bearing integers of the\n\
                 planner: the sharded capacity slices must sum to `C`, the onion peel\n\
                 trusts committed-prefix demand, and an unchecked subtraction that\n\
                 wraps (or an addition that overflows) corrupts every downstream\n\
                 admission decision without failing loudly in release builds. In\n\
                 crates opting in via `[package.metadata.rush-lint] arith-hygiene =\n\
                 true` (rush-core, rush-planner), this rule walks every parsed\n\
                 function body and flags bare `+`, `-`, `*`, `+=`, `-=`, `*=` where\n\
                 either operand is a path or field whose name mentions `slot` or\n\
                 `capacity`.\n\
                 \n\
                 Use `checked_sub`/`checked_add`/`saturating_*` (or restructure so the\n\
                 invariant is explicit) instead. A site whose bounds are genuinely\n\
                 guaranteed by a maintained invariant carries a pragma with the\n\
                 justification:  // rush-lint: allow(RUSH-L010): <why>\n"
            }
            Rule::LockDiscipline => {
                "RUSH-L011: lock discipline\n\
                 \n\
                 The sharded daemon runs one planner thread per shard plus a thread\n\
                 per connection; a deadlock freezes every epoch deadline at once, and\n\
                 a lock held across socket I/O lets one slow client stall unrelated\n\
                 requests. This rule runs a small dataflow over each parsed function:\n\
                 `let g = x.lock()/.read()/.write()` (zero-argument, so `io::Read`/\n\
                 `io::Write` calls don't alias) starts a held region that ends at\n\
                 scope exit or `drop(g)`. Two checks follow:\n\
                 \n\
                 1. Acquisition order: every (held → acquired) pair feeds a global\n\
                    order graph; a cycle (lock A taken before B on one path, B before\n\
                    A on another) is reported with both witness sites.\n\
                 2. Held-across-blocking: a call to socket/stream I/O (`write_all`,\n\
                    `read_line`, `flush`, ...) or planner fan-out (`plan_at`,\n\
                    `plan_roster`) while any guard is live is reported.\n\
                 \n\
                 The workspace currently sidesteps locks entirely (channels + owned\n\
                 state per thread) — this rule is the fence that keeps future shared-\n\
                 state shortcuts honest. Intentional exceptions take a pragma:\n\
                 // rush-lint: allow(RUSH-L011): <why>\n"
            }
            Rule::ReactorDiscipline => {
                "RUSH-L013: reactor discipline\n\
                 \n\
                 The epoll frontend multiplexes thousands of connections onto a handful\n\
                 of event-loop threads. One blocking call anywhere in a loop's call\n\
                 graph — a `sleep`, a channel `recv`, a `join`, or buffered stream I/O\n\
                 like `write_all`/`read_line` — stalls *every* connection that loop\n\
                 owns, turning a single slow peer into whole-daemon tail latency. And a\n\
                 panic inside the wire codec tears the loop down entirely. Crates\n\
                 declare their loops and their panic-free files in\n\
                 `[package.metadata.rush-lint]`:\n\
                 reactor-loops = [\"Reactor::run\", \"Engine::drive\"]\n\
                 panic-free = [\"src/binary.rs\"]\n\
                 \n\
                 Two checks: (1) the rule reuses the RUSH-L009 name-based call graph\n\
                 and walks it from every function matching a `reactor-loops` entry\n\
                 (`Type::name` matches a method of `Type`; a bare name matches any\n\
                 function with that name in the declaring crate); any reachable call\n\
                 to a blocking primitive (`sleep`, `recv`, `recv_timeout`, `join`,\n\
                 `park`, `park_timeout`, `write_all`, `write_fmt`, `read_exact`,\n\
                 `read_line`, `read_to_end`, `read_to_string`) is reported with one\n\
                 witness path. Nonblocking-by-construction calls (`send` on an\n\
                 unbounded channel, `epoll_wait` with a timeout, raw `read`/`write`\n\
                 on a nonblocking fd) stay allowed. (2) every non-test function in a\n\
                 `panic-free` file must itself be panic-free: no `panic!`-family\n\
                 macro, `.unwrap()`, `.expect(..)` or non-range `[]`-indexing\n\
                 (integer-literal indexes justified by a `bound:` comment are\n\
                 accepted, as under RUSH-L003/L009). The codec runs on the event\n\
                 loop against attacker-controlled bytes; \"returns WireError, never\n\
                 panics\" is its load-bearing contract.\n\
                 \n\
                 Resolution is over-approximate (a `.m()` call may target any method\n\
                 named `m` in the workspace), which is sound for reachability. Where\n\
                 that over-approximation misfires, rename the colliding function or\n\
                 justify the site:  // rush-lint: allow(RUSH-L013): <why>\n"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A single lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Path relative to the scan root (always with `/` separators).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crates scanned.
    pub crates_scanned: usize,
    /// Findings suppressed by pragma or allowlist (for the summary line).
    pub suppressed: usize,
    /// Wall-clock time of the whole lint run, in milliseconds.
    pub wall_ms: u64,
}

impl Report {
    /// Sort findings into a stable order.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            a.file
                .cmp(&b.file)
                .then(a.line.cmp(&b.line))
                .then(a.rule.code().cmp(b.rule.code()))
        });
    }

    /// Render the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} {}: {}\n",
                f.file,
                f.line,
                f.rule.code(),
                f.rule.summary(),
                f.message
            ));
        }
        out.push_str(&format!(
            "lint: {} finding(s) in {} file(s) across {} crate(s) ({} suppressed, {} ms)\n",
            self.findings.len(),
            self.files_scanned,
            self.crates_scanned,
            self.suppressed,
            self.wall_ms
        ));
        out
    }

    /// Render the report as JSON (hand-rolled; no serde in the toolchain).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"code\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(f.rule.code()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let mut counts: Vec<(Rule, usize)> = ALL_RULES.iter().map(|&r| (r, 0usize)).collect();
        for f in &self.findings {
            if let Some(c) = counts.iter_mut().find(|(r, _)| *r == f.rule) {
                c.1 += 1;
            }
        }
        out.push_str("  \"counts\": {");
        out.push_str(
            &counts
                .iter()
                .map(|(r, c)| format!("{}: {}", json_str(r.code()), c))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"crates_scanned\": {},\n  \"suppressed\": {},\n  \"wall_ms\": {},\n  \"total\": {}\n}}\n",
            self.files_scanned,
            self.crates_scanned,
            self.suppressed,
            self.wall_ms,
            self.findings.len()
        ));
        out
    }
}

/// Escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_code(r.code()), Some(r));
        }
        assert_eq!(Rule::from_code("rush-l001"), Some(Rule::Determinism));
        assert_eq!(Rule::from_code("RUSH-L999"), None);
    }

    #[test]
    fn json_escapes() {
        let mut rep = Report::default();
        rep.findings.push(Finding {
            rule: Rule::FloatHygiene,
            file: "a \"b\".rs".into(),
            line: 3,
            message: "x\ny".into(),
        });
        let j = rep.render_json();
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"RUSH-L002\": 1"));
    }
}
