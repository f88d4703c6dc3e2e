//! Findings, stable rule codes, `--explain` documentation and JSON output.

use std::fmt;

/// Stable rule codes. The numeric part never changes once shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// RUSH-L001 — determinism: no hash-order iteration in deterministic crates.
    Determinism,
    /// RUSH-L002 — float hygiene: no `==`/`!=` on floats, no `partial_cmp().unwrap()`.
    FloatHygiene,
    /// RUSH-L003 — panic hygiene: no `unwrap`/`expect`/`panic!` in library code.
    PanicHygiene,
    /// RUSH-L004 — feature-gate hygiene: `cfg(feature = ...)` must be declared.
    FeatureGate,
    /// RUSH-L005 — shim drift: only use the API the vendored shims implement.
    ShimDrift,
    /// RUSH-L006 — planner layering: `compute_plan_cached`/`PlanCache` are
    /// kernel-internal; adapters go through `rush_planner::PlannerCore`.
    PlannerLayering,
    /// RUSH-L007 — full rebuild: `compute_plan`/`peel`/`map_continuous` are
    /// oracle/bench entry points; steady-state callers use the delta path.
    FullRebuild,
    /// RUSH-L008 — shard isolation: per-shard planner state is reached only
    /// through the `ShardedPlanner` API, never via raw `shard_core` handles.
    ShardIsolation,
    /// RUSH-L009 — panic reachability (deep): no panic path reachable from
    /// the daemon's declared entry points on the workspace call graph.
    PanicReachability,
    /// RUSH-L010 — arithmetic hygiene (deep): unchecked `+`/`-`/`*` on
    /// slot/capacity integers in kernel crates.
    ArithHygiene,
    /// RUSH-L011 — lock discipline (deep): consistent acquisition order;
    /// no lock held across I/O or planner fan-out.
    LockDiscipline,
    /// RUSH-L013 — reactor discipline (deep): no blocking call reachable
    /// from a declared reactor event loop; declared codec files panic-free.
    ReactorDiscipline,
    /// RUSH-L014 — capacity fence (deep): cluster capacity is mutated only
    /// by the crates that own it (the planner event path and the sim
    /// engine); adapters route resizes through `PlannerEvent::CapacityChange`.
    CapacityFence,
}

/// All rules, in code order.
pub const ALL_RULES: &[Rule] = &[
    Rule::Determinism,
    Rule::FloatHygiene,
    Rule::PanicHygiene,
    Rule::FeatureGate,
    Rule::ShimDrift,
    Rule::PlannerLayering,
    Rule::FullRebuild,
    Rule::ShardIsolation,
    Rule::PanicReachability,
    Rule::ArithHygiene,
    Rule::LockDiscipline,
    Rule::ReactorDiscipline,
    Rule::CapacityFence,
];

/// The rules that only run under `cargo xtask lint --deep` (they need the
/// AST + call-graph model, not just the token stream).
pub const DEEP_RULES: &[Rule] = &[
    Rule::PanicReachability,
    Rule::ArithHygiene,
    Rule::LockDiscipline,
    Rule::ReactorDiscipline,
    Rule::CapacityFence,
];

impl Rule {
    /// The stable `RUSH-LNNN` code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Determinism => "RUSH-L001",
            Rule::FloatHygiene => "RUSH-L002",
            Rule::PanicHygiene => "RUSH-L003",
            Rule::FeatureGate => "RUSH-L004",
            Rule::ShimDrift => "RUSH-L005",
            Rule::PlannerLayering => "RUSH-L006",
            Rule::FullRebuild => "RUSH-L007",
            Rule::ShardIsolation => "RUSH-L008",
            Rule::PanicReachability => "RUSH-L009",
            Rule::ArithHygiene => "RUSH-L010",
            Rule::LockDiscipline => "RUSH-L011",
            Rule::ReactorDiscipline => "RUSH-L013",
            Rule::CapacityFence => "RUSH-L014",
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
            Rule::FeatureGate => "cfg(feature) names an undeclared feature",
            Rule::ShimDrift => "API not implemented by the vendored shim",
            Rule::PlannerLayering => "planner-kernel internals used outside rush-planner",
            Rule::FullRebuild => "full-rebuild CA entry point used outside rush-core",
            Rule::ShardIsolation => "per-shard planner state reached outside rush-planner",
            Rule::PanicReachability => "panic path reachable from a daemon entry point",
            Rule::ArithHygiene => "unchecked slot/capacity arithmetic in kernel code",
            Rule::LockDiscipline => "lock-order or held-across-I/O hazard",
            Rule::ReactorDiscipline => "blocking call or panic in reactor/codec hot path",
            Rule::CapacityFence => "direct capacity mutation outside the planner event path",
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
            Rule::FeatureGate => {
                "RUSH-L004: feature-gate hygiene\n\
                 \n\
                 Every `#[cfg(feature = \"name\")]` / `#[cfg_attr(feature = \"name\", ..)]`\n\
                 and `cfg!(feature = \"name\")` must name a feature declared in that crate's\n\
                 `Cargo.toml` `[features]` table (or an implicit optional-dependency\n\
                 feature). A typo here silently compiles the gated code out forever —\n\
                 rustc only warns under `-W unexpected_cfgs` with extra configuration,\n\
                 and the offline container has no external linting.\n"
            }
            Rule::ShimDrift => {
                "RUSH-L005: shim drift\n\
                 \n\
                 The workspace vendors minimal offline shims for `rand`, `proptest` and\n\
                 `criterion` (the container cannot reach a registry). The shims implement a\n\
                 deliberate subset of the upstream API. This rule lexes the shim sources to\n\
                 collect the names they actually define and flags any `rand::...`,\n\
                 `proptest::...` or `criterion::...` path whose segments are not in that\n\
                 set, plus a curated denylist of well-known upstream API the shims omit\n\
                 (`thread_rng`, `shuffle`, `choose`, `StdRng`, `from_entropy`, ...).\n\
                 Either extend the shim or stay inside the implemented subset.\n"
            }
            Rule::PlannerLayering => {
                "RUSH-L006: planner layering\n\
                 \n\
                 The event-driven planner kernel (`rush-planner`) is the single owner of\n\
                 the CA pipeline's incremental machinery: the `PlanCache` memo table and\n\
                 the `compute_plan_cached` entry point it feeds. Adapters (the simulator\n\
                 scheduler, the `rushd` daemon, the CLI) must drive planning through\n\
                 `rush_planner::PlannerCore` — never by calling `compute_plan_cached` or\n\
                 holding a `PlanCache` of their own. A second cache outside the kernel\n\
                 reintroduces exactly the duplicated freshness/invalidation state the\n\
                 kernel refactor removed, and its hit/miss counters silently diverge\n\
                 from the ones `stats` reports.\n\
                 \n\
                 The rule flags any reference to `compute_plan_cached` or `PlanCache` in\n\
                 non-test library code of crates other than `rush-planner` and\n\
                 `rush-core` (which defines them). Test code, benches and binaries are\n\
                 exempt, as are the two owning crates. If a new layer legitimately needs\n\
                 the raw cache, put it behind a kernel API instead, or justify the site:\n\
                 // rush-lint: allow(RUSH-L006): <why>\n"
            }
            Rule::FullRebuild => {
                "RUSH-L007: full rebuild\n\
                 \n\
                 Delta-peeling made the incremental path (`compute_plan_incremental`,\n\
                 `peel_incremental`, and the run-length `map_profile`) the only\n\
                 planner-facing entry into the CA pipeline: steady-state replans patch\n\
                 the previous onion layering instead of recomputing it and map over\n\
                 occupation runs instead of containers, which is what takes a 1000-job\n\
                 replan from tens of milliseconds to about one. The batch entry points —\n\
                 `compute_plan`, the full `onion::peel`, and the segment-emitting\n\
                 `map_continuous` — exist as the differential oracles the planner path is\n\
                 proven bit-identical against, and as bench baselines. An adapter that\n\
                 calls them on the hot path silently forfeits the entire speedup and\n\
                 bypasses the cache-coherence invariants the kernel maintains.\n\
                 \n\
                 The rule flags any reference to `compute_plan`, `peel` or\n\
                 `map_continuous` in non-test library code of crates other than\n\
                 `rush-core` (which owns the full pipeline and the naive oracle).\n\
                 Test code, benches and binaries are exempt — differential suites and\n\
                 figure reproductions are exactly where the full rebuild belongs. A\n\
                 cold-start or recovery path that genuinely needs a from-scratch plan\n\
                 should seed a fresh `PlanState` and go through the kernel, or justify\n\
                 the site:  // rush-lint: allow(RUSH-L007): <why>\n"
            }
            Rule::ShardIsolation => {
                "RUSH-L008: shard isolation\n\
                 \n\
                 `ShardedPlanner` partitions the job registry across per-shard\n\
                 `PlannerCore` instances and owns every invariant that makes the split\n\
                 sound: label-hash routing, globally unique job ids, capacity slices\n\
                 that sum to the configured total, and the periodic headroom-driven\n\
                 rebalance. `shard_core(i)` exists so tests and diagnostics can inspect\n\
                 one shard, but an adapter that holds a per-shard handle is coupled to\n\
                 the current partition: the rebalancer may resize the slice, a cancel\n\
                 may drop the job it cached, and any state derived from one shard\n\
                 silently goes stale without the wrapper's freshness tracking.\n\
                 \n\
                 The rule flags any reference to `shard_core` in non-test library code\n\
                 of crates other than `rush-planner` (which defines the sharded\n\
                 wrapper). Test code, benches and binaries are exempt — the invariant\n\
                 suites and the fig5 sweep are exactly where per-shard inspection\n\
                 belongs. Adapters route events and read merged state through the\n\
                 `ShardedPlanner` API (`admit`, `ingest_sample`, `plan_at`, `planned`,\n\
                 `jobs`, `slices`, `headrooms`); a genuinely missing view should become\n\
                 a wrapper method, or justify the site:\n\
                 // rush-lint: allow(RUSH-L008): <why>\n"
            }
            Rule::PanicReachability => {
                "RUSH-L009: panic reachability (deep)\n\
                 \n\
                 RUSH's robustness guarantees (Theorems 2/3) only hold if the daemon\n\
                 survives every request: a panic mid-epoch tears down a connection\n\
                 worker or the planner thread and silently drops committed work. This\n\
                 rule parses the whole workspace (the from-scratch recursive-descent\n\
                 parser over the lint lexer), builds a name-based call graph, and walks\n\
                 it from the entry points each crate declares in\n\
                 `[package.metadata.rush-lint] entry-points = [\"connection_loop\", ...]`\n\
                 (for rush-serve: the per-connection handler and the epoch planner\n\
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
                "RUSH-L010: slot/capacity arithmetic hygiene (deep)\n\
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
                "RUSH-L011: lock discipline (deep)\n\
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
                "RUSH-L013: reactor discipline (deep)\n\
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
            Rule::CapacityFence => {
                "RUSH-L014: capacity fence (deep)\n\
                 \n\
                 Dynamic cluster capacity (tiered supply, spot revocation, restock)\n\
                 flows through exactly one seam per layer: the simulator's typed\n\
                 capacity-event queue mutates the free pool (`FreePool::revoke`/\n\
                 `restore`), and the planner kernel resizes itself when\n\
                 `PlannerEvent::CapacityChange` reaches `apply` — which re-splits the\n\
                 shard slices, re-admits against the shrunk prefix capacity and feeds\n\
                 the delta-peel divergence machinery. An adapter that calls\n\
                 `set_capacity` (or the pool mutators) directly skips all of that:\n\
                 admission keeps trusting a stale capacity, the rebalancer's slice\n\
                 invariant (slices sum to C) silently breaks, and the replan does a\n\
                 full rebuild instead of a delta patch.\n\
                 \n\
                 Crates that own a capacity seam declare it in their manifest:\n\
                 [package.metadata.rush-lint]\n\
                 capacity-authority = true   (rush-planner, rush-sim)\n\
                 \n\
                 This rule walks every parsed non-test library function in crates\n\
                 *without* that declaration and flags any call to `set_capacity`,\n\
                 `revoke` or `restore`. Resolution is name-based and deliberately\n\
                 over-approximate, like RUSH-L009/L013: a `.set_capacity(..)` call on\n\
                 a wire client is still reported, because at the lint's resolution it\n\
                 is indistinguishable from a kernel mutation. Sanctioned adapters —\n\
                 e.g. the serve dispatcher lowering a `set-capacity` request onto\n\
                 `ServeState::set_capacity`, which itself applies\n\
                 `PlannerEvent::CapacityChange` — justify the site with a pragma:\n\
                 // rush-lint: allow(RUSH-L014): <why>\n\
                 Tests, benches and binaries are exempt; so are the vendored shims.\n"
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
    /// The deep (AST + call-graph) pass ran.
    pub deep: bool,
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
            "lint{}: {} finding(s) in {} file(s) across {} crate(s) ({} suppressed, {} ms)\n",
            if self.deep { " --deep" } else { "" },
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
            "  \"files_scanned\": {},\n  \"crates_scanned\": {},\n  \"suppressed\": {},\n  \"deep\": {},\n  \"wall_ms\": {},\n  \"total\": {}\n}}\n",
            self.files_scanned,
            self.crates_scanned,
            self.suppressed,
            self.deep,
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
