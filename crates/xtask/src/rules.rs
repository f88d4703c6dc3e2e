//! The eight RUSH lint rules (RUSH-L001 … RUSH-L008), plus the supporting
//! machinery: `#[cfg(test)]` region detection, pragma comments, the
//! grandfathered-site allowlist and shim API surface extraction.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, TokKind, Token};
use crate::manifest::Manifest;
use crate::report::{Finding, Report, Rule};

/// Names of the vendored shim crates checked by RUSH-L005.
pub const SHIM_NAMES: &[&str] = &["rand", "proptest", "criterion"];

/// Identifiers RUSH-L006 reserves to the planner kernel.
const PLANNER_INTERNAL_IDENTS: &[&str] = &["compute_plan_cached", "PlanCache"];

/// Crates allowed to reference [`PLANNER_INTERNAL_IDENTS`]: the kernel
/// itself and the crate that defines the CA pipeline.
const PLANNER_OWNER_CRATES: &[&str] = &["rush-planner", "rush-core"];

/// Identifiers RUSH-L007 reserves to the full-rebuild path: the batch CA
/// entry points that recompute the plan from scratch. The delta path
/// (`compute_plan_incremental` / `peel_incremental`, and the run-length
/// `map_profile` both pipelines share — distinct identifiers, never
/// flagged) is the only planner-facing entry.
const FULL_REBUILD_IDENTS: &[&str] = &["compute_plan", "peel", "map_continuous"];

/// Crates allowed to reference [`FULL_REBUILD_IDENTS`]: rush-core owns the
/// full pipeline and the naive oracle the delta path is verified against.
const FULL_REBUILD_OWNER_CRATES: &[&str] = &["rush-core"];

/// Identifiers RUSH-L008 reserves to the sharded wrapper: the per-shard
/// escape hatch. Adapters read merged state and route events through the
/// `ShardedPlanner` API instead of holding raw shard handles.
const SHARD_INTERNAL_IDENTS: &[&str] = &["shard_core"];

/// Crates allowed to reference [`SHARD_INTERNAL_IDENTS`]: the crate that
/// defines `ShardedPlanner` and its invariants.
const SHARD_OWNER_CRATES: &[&str] = &["rush-planner"];

/// Upstream API the shims deliberately do NOT implement. These fire even when
/// the shim crate itself is outside the scanned tree (pure-name matching,
/// gated on the file actually referencing the shim crate).
const SHIM_DENYLIST: &[(&str, &[&str])] = &[
    (
        "rand",
        &[
            "thread_rng", "StdRng", "OsRng", "ThreadRng", "from_entropy", "from_rng",
            "gen_ratio", "shuffle", "choose", "choose_multiple", "choose_weighted",
            "sample_iter", "SliceRandom", "IteratorRandom", "try_fill",
        ],
    ),
    ("proptest", &["prop_compose", "prop_assert_ne", "prop_recursive", "TestRunner"]),
    ("criterion", &["Throughput", "PlotConfiguration", "SamplingMode", "async_executor"]),
];

/// Identifier keywords that rule out "expression followed by `[`" indexing.
const EXPR_BREAK_KEYWORDS: &[&str] = &[
    "return", "break", "continue", "in", "else", "match", "let", "mut", "ref", "move", "as",
];

/// One entry of the grandfathered-site allowlist.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule code (`RUSH-L003`).
    pub code: String,
    /// Path suffix the finding's file must end with.
    pub path_suffix: String,
    /// Substring the offending source line must contain.
    pub line_substr: String,
    /// One-line justification (informational).
    pub justification: String,
}

/// Parsed `xtask-lint.allow` file.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the pipe-separated allowlist format:
    /// `CODE|path-suffix|line-substring|justification`. `#` starts a comment.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '|').collect();
            if parts.len() >= 3 {
                entries.push(AllowEntry {
                    code: parts[0].trim().to_ascii_uppercase(),
                    path_suffix: parts[1].trim().to_string(),
                    line_substr: parts[2].trim().to_string(),
                    justification: parts.get(3).map(|s| s.trim().to_string()).unwrap_or_default(),
                });
            }
        }
        Allowlist { entries }
    }

    /// Does any entry cover this (code, file, source-line) triple?
    pub fn covers(&self, code: &str, file: &str, line_text: &str) -> bool {
        self.entries.iter().any(|e| {
            e.code == code && file.ends_with(&e.path_suffix) && line_text.contains(&e.line_substr)
        })
    }
}

/// Implemented API surface of one vendored shim crate, lexed from its source.
#[derive(Debug)]
pub struct ShimApi {
    /// Crate name (`rand`, ...).
    pub name: String,
    /// Every identifier the shim defines (items, trait methods, macros,
    /// re-exports). A superset is fine: false negatives only.
    pub idents: BTreeSet<String>,
}

/// Collect the defined-name surface of a shim from its lexed sources.
/// Picks up `fn`/`struct`/`enum`/`trait`/`mod`/`type`/`const`/`static` names,
/// `macro_rules!` names and every identifier inside `pub use` trees.
pub fn collect_api(lexed: &Lexed, out: &mut BTreeSet<String>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "fn" | "struct" | "enum" | "trait" | "mod" | "type" | "const" | "static" => {
                    if let Some(next) = toks.get(i + 1) {
                        if next.kind == TokKind::Ident {
                            out.insert(next.text.clone());
                        }
                    }
                }
                "macro_rules" => {
                    // macro_rules ! name
                    if let (Some(bang), Some(name)) = (toks.get(i + 1), toks.get(i + 2)) {
                        if bang.is_punct("!") && name.kind == TokKind::Ident {
                            out.insert(name.text.clone());
                        }
                    }
                }
                "use" => {
                    // Only harvest re-exports (`pub use ...`): everything in the
                    // tree becomes part of the public path surface.
                    let public = i > 0 && toks[i - 1].is_ident("pub");
                    let mut j = i + 1;
                    while j < toks.len() && !toks[j].is_punct(";") {
                        if public && toks[j].kind == TokKind::Ident {
                            out.insert(toks[j].text.clone());
                        }
                        j += 1;
                    }
                    i = j;
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// Find the matching close delimiter for the open delimiter at `open_idx`.
fn match_delim(toks: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Is this attribute body (`tokens between [ and ]`) test-gating?
fn is_test_attr(inner: &[Token]) -> bool {
    if inner.len() == 1 && inner[0].is_ident("test") {
        return true; // #[test]
    }
    if inner.first().map(|t| t.is_ident("cfg") || t.is_ident("cfg_attr")) != Some(true) {
        return false;
    }
    for (j, t) in inner.iter().enumerate() {
        if t.is_ident("test") {
            // Negated occurrence: `not ( test`.
            let negated = j >= 2 && inner[j - 1].is_punct("(") && inner[j - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Per-token mask: true when the token lives inside test-gated code
/// (`#[cfg(test)]` items/modules or `#[test]` functions).
pub fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).map(|t| t.is_punct("[")) == Some(true) {
            if let Some(close) = match_delim(toks, i + 1, "[", "]") {
                if is_test_attr(&toks[i + 2..close]) {
                    // Skip trailing attributes on the same item.
                    let mut j = close + 1;
                    while toks.get(j).map(|t| t.is_punct("#")) == Some(true)
                        && toks.get(j + 1).map(|t| t.is_punct("[")) == Some(true)
                    {
                        match match_delim(toks, j + 1, "[", "]") {
                            Some(c) => j = c + 1,
                            None => break,
                        }
                    }
                    // The gated item ends at its matching `}` or at `;`.
                    let mut k = j;
                    let mut end = None;
                    while k < toks.len() {
                        if toks[k].is_punct("{") {
                            end = match_delim(toks, k, "{", "}");
                            break;
                        }
                        if toks[k].is_punct(";") {
                            end = Some(k);
                            break;
                        }
                        k += 1;
                    }
                    if let Some(e) = end {
                        for m in mask.iter_mut().take(e.min(toks.len() - 1) + 1).skip(i) {
                            *m = true;
                        }
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// One source file handed to the rule engine.
pub struct FileInput<'a> {
    /// Path relative to the scan root (`/` separators).
    pub rel_path: String,
    /// Path relative to the owning crate directory.
    pub crate_rel: String,
    /// The owning crate's parsed manifest.
    pub manifest: &'a Manifest,
    /// Raw source (for allowlist line matching).
    pub src: &'a str,
    /// Lexed source.
    pub lexed: &'a Lexed,
}

impl FileInput<'_> {
    /// Lives under `tests/`, `benches/` or `examples/` — never library code.
    pub(crate) fn is_test_tree(&self) -> bool {
        self.crate_rel.starts_with("tests/")
            || self.crate_rel.starts_with("benches/")
            || self.crate_rel.starts_with("examples/")
    }

    /// Library code: inside `src/` but not a binary target.
    pub(crate) fn is_library(&self) -> bool {
        self.crate_rel.starts_with("src/")
            && !self.crate_rel.starts_with("src/bin/")
            && self.crate_rel != "src/main.rs"
    }
}

/// The rule engine. Holds cross-file state (shim API sets, allowlist).
pub struct Engine<'a> {
    /// API surfaces of shims found in the scanned tree.
    pub shims: &'a [ShimApi],
    /// Grandfathered-site allowlist.
    pub allow: &'a Allowlist,
}

impl Engine<'_> {
    /// Run every applicable rule over one file, appending to `report`.
    pub fn check_file(&self, f: &FileInput<'_>, report: &mut Report) {
        let toks = &f.lexed.tokens;
        let mask = test_mask(toks);
        let pragmas = pragma_lines(f);
        let bound_lines = bound_comment_lines(f);
        let lines: Vec<&str> = f.src.lines().collect();

        let mut pending: Vec<Finding> = Vec::new();
        let mut emit = |rule: Rule, line: u32, message: String| {
            pending.push(Finding { rule, file: f.rel_path.clone(), line, message });
        };

        let is_shim_crate = SHIM_NAMES.contains(&f.manifest.name.as_str());
        let in_test = |i: usize| mask.get(i).copied().unwrap_or(false);

        // ---- RUSH-L001: determinism ------------------------------------
        if f.manifest.deterministic && f.is_library() {
            for (i, t) in toks.iter().enumerate() {
                if in_test(i) || t.kind != TokKind::Ident {
                    continue;
                }
                match t.text.as_str() {
                    "HashMap" | "HashSet" => emit(
                        Rule::Determinism,
                        t.line,
                        format!("`{}` has nondeterministic iteration order; use BTreeMap/BTreeSet or an index-keyed structure", t.text),
                    ),
                    "hash_map" | "hash_set" => emit(
                        Rule::Determinism,
                        t.line,
                        format!("import of `std::collections::{}` in a determinism-critical crate", t.text),
                    ),
                    _ => {}
                }
            }
        }

        // ---- RUSH-L002: float hygiene ----------------------------------
        if !is_shim_crate {
            for i in 0..toks.len() {
                if in_test(i) || f.is_test_tree() {
                    continue;
                }
                let t = &toks[i];
                if t.is_punct("==") || t.is_punct("!=") {
                    // Right operand may carry a unary minus: `x == -1.0`.
                    let right = if toks.get(i + 1).map(|n| n.is_punct("-")) == Some(true) {
                        toks.get(i + 2)
                    } else {
                        toks.get(i + 1)
                    };
                    let float_neighbor = (i > 0 && toks[i - 1].kind == TokKind::Float)
                        || right.map(|n| n.kind == TokKind::Float) == Some(true);
                    if float_neighbor {
                        emit(
                            Rule::FloatHygiene,
                            t.line,
                            format!("exact `{}` against a float literal; compare with a tolerance", t.text),
                        );
                    }
                }
                if t.is_ident("partial_cmp") {
                    if let Some(open) = toks.get(i + 1).filter(|n| n.is_punct("(")).map(|_| i + 1) {
                        if let Some(close) = match_delim(toks, open, "(", ")") {
                            let dot = toks.get(close + 1).map(|n| n.is_punct(".")) == Some(true);
                            let method = toks.get(close + 2);
                            if dot {
                                if let Some(m) = method {
                                    if m.is_ident("unwrap") || m.is_ident("expect") {
                                        emit(
                                            Rule::FloatHygiene,
                                            t.line,
                                            format!(
                                                "`partial_cmp(..).{}()` panics on NaN; use `f64::total_cmp`",
                                                m.text
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // ---- RUSH-L003: panic hygiene ----------------------------------
        if f.manifest.library_hygiene && f.is_library() {
            for i in 0..toks.len() {
                if in_test(i) {
                    continue;
                }
                let t = &toks[i];
                if t.kind != TokKind::Ident && !t.is_punct("[") {
                    continue;
                }
                match t.text.as_str() {
                    "unwrap" | "expect" => {
                        let is_method = i > 0 && toks[i - 1].is_punct(".");
                        let called = toks.get(i + 1).map(|n| n.is_punct("(")) == Some(true);
                        if is_method && called {
                            emit(
                                Rule::PanicHygiene,
                                t.line,
                                format!("`.{}()` in library code; return Result/Option or justify via pragma/allowlist", t.text),
                            );
                        }
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if t.kind == TokKind::Ident
                            && toks.get(i + 1).map(|n| n.is_punct("!")) == Some(true) =>
                    {
                        emit(
                            Rule::PanicHygiene,
                            t.line,
                            format!("`{}!` in library code; return an error or justify via pragma/allowlist", t.text),
                        );
                    }
                    "[" => {
                        // `expr[<int literal>]` without a bound comment.
                        let prev_ok = i > 0
                            && (toks[i - 1].is_punct("]")
                                || toks[i - 1].is_punct(")")
                                || (toks[i - 1].kind == TokKind::Ident
                                    && !EXPR_BREAK_KEYWORDS.contains(&toks[i - 1].text.as_str())));
                        let lit = toks.get(i + 1).filter(|n| n.kind == TokKind::Int);
                        let closed = toks.get(i + 2).map(|n| n.is_punct("]")) == Some(true);
                        if prev_ok && lit.is_some() && closed {
                            let l = t.line;
                            if !bound_lines.contains(&l) && !bound_lines.contains(&l.saturating_sub(1)) {
                                emit(
                                    Rule::PanicHygiene,
                                    l,
                                    format!(
                                        "literal index `[{}]` without a bound comment; document why it is in range",
                                        lit.map(|n| n.text.as_str()).unwrap_or("?")
                                    ),
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // ---- RUSH-L004: feature-gate hygiene ---------------------------
        if !f.manifest.name.is_empty() {
            let mut i = 0usize;
            while i < toks.len() {
                let t = &toks[i];
                if t.kind == TokKind::Ident && (t.text == "cfg" || t.text == "cfg_attr") {
                    // cfg( ... )  or  cfg!( ... )
                    let mut open = i + 1;
                    if toks.get(open).map(|n| n.is_punct("!")) == Some(true) {
                        open += 1;
                    }
                    if toks.get(open).map(|n| n.is_punct("(")) == Some(true) {
                        if let Some(close) = match_delim(toks, open, "(", ")") {
                            let mut j = open + 1;
                            while j + 2 < close + 1 && j + 2 <= close {
                                if toks[j].is_ident("feature")
                                    && toks[j + 1].is_punct("=")
                                    && toks[j + 2].kind == TokKind::Str
                                {
                                    let raw = toks[j + 2].text.trim_matches('"');
                                    if !f.manifest.features.contains(raw) {
                                        emit(
                                            Rule::FeatureGate,
                                            toks[j + 2].line,
                                            format!(
                                                "feature `{}` is not declared in [features] of crate `{}`",
                                                raw, f.manifest.name
                                            ),
                                        );
                                    }
                                }
                                j += 1;
                            }
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
        }

        // ---- RUSH-L005: shim drift -------------------------------------
        if !is_shim_crate {
            let mentions: BTreeSet<&str> = SHIM_NAMES
                .iter()
                .copied()
                .filter(|name| toks.iter().any(|t| t.is_ident(name)))
                .collect();
            // Path checks against the lexed shim API (when the shim is in-tree).
            for api in self.shims {
                if !mentions.contains(api.name.as_str()) {
                    continue;
                }
                let mut i = 0usize;
                while i < toks.len() {
                    let root_here = toks[i].is_ident(&api.name)
                        && (i == 0 || !(toks[i - 1].is_punct("::") || toks[i - 1].is_punct(".")))
                        && toks.get(i + 1).map(|n| n.is_punct("::")) == Some(true);
                    if root_here {
                        let (idents, consumed) = walk_path_tree(toks, i + 2);
                        for (ident, line) in idents {
                            if !api.idents.contains(&ident) {
                                emit(
                                    Rule::ShimDrift,
                                    line,
                                    format!(
                                        "`{}::...::{}` is not implemented by the vendored `{}` shim",
                                        api.name, ident, api.name
                                    ),
                                );
                            }
                        }
                        i = consumed;
                        continue;
                    }
                    i += 1;
                }
            }
            // Curated denylist of well-known upstream API the shims omit.
            for (shim, denied) in SHIM_DENYLIST {
                if !mentions.contains(shim) {
                    continue;
                }
                for (i, t) in toks.iter().enumerate() {
                    if t.kind != TokKind::Ident || !denied.contains(&t.text.as_str()) {
                        continue;
                    }
                    let type_like = t.text.chars().next().map(|c| c.is_uppercase()) == Some(true);
                    let method_or_call = (i > 0 && toks[i - 1].is_punct("."))
                        || toks.get(i + 1).map(|n| n.is_punct("(")) == Some(true);
                    if type_like || method_or_call {
                        emit(
                            Rule::ShimDrift,
                            t.line,
                            format!("`{}` is upstream `{}` API the vendored shim does not implement", t.text, shim),
                        );
                    }
                }
            }
        }

        // ---- RUSH-L006: planner layering -------------------------------
        if !PLANNER_OWNER_CRATES.contains(&f.manifest.name.as_str()) && f.is_library() {
            for (i, t) in toks.iter().enumerate() {
                if in_test(i) || t.kind != TokKind::Ident {
                    continue;
                }
                if PLANNER_INTERNAL_IDENTS.contains(&t.text.as_str()) {
                    emit(
                        Rule::PlannerLayering,
                        t.line,
                        format!(
                            "`{}` is planner-kernel internal API; drive planning through `rush_planner::PlannerCore`",
                            t.text
                        ),
                    );
                }
            }
        }

        // ---- RUSH-L007: full-rebuild entry points ----------------------
        if !FULL_REBUILD_OWNER_CRATES.contains(&f.manifest.name.as_str()) && f.is_library() {
            for (i, t) in toks.iter().enumerate() {
                if in_test(i) || t.kind != TokKind::Ident {
                    continue;
                }
                if FULL_REBUILD_IDENTS.contains(&t.text.as_str()) {
                    emit(
                        Rule::FullRebuild,
                        t.line,
                        format!(
                            "`{}` rebuilds the plan from scratch; steady-state callers take the delta path (`compute_plan_incremental` via `rush_planner::PlannerCore`)",
                            t.text
                        ),
                    );
                }
            }
        }

        // ---- RUSH-L008: shard isolation --------------------------------
        if !SHARD_OWNER_CRATES.contains(&f.manifest.name.as_str()) && f.is_library() {
            for (i, t) in toks.iter().enumerate() {
                if in_test(i) || t.kind != TokKind::Ident {
                    continue;
                }
                if SHARD_INTERNAL_IDENTS.contains(&t.text.as_str()) {
                    emit(
                        Rule::ShardIsolation,
                        t.line,
                        format!(
                            "`{}` hands out a raw per-shard planner; read merged state and route events through the `ShardedPlanner` API",
                            t.text
                        ),
                    );
                }
            }
        }

        // ---- suppression: pragmas and allowlist ------------------------
        for finding in pending {
            let code = finding.rule.code();
            let pragma_hit = [finding.line, finding.line.saturating_sub(1)]
                .iter()
                .any(|l| pragmas.get(l).map(|codes| codes.contains(code)) == Some(true));
            let line_text = lines
                .get(finding.line.saturating_sub(1) as usize)
                .copied()
                .unwrap_or("");
            if pragma_hit || self.allow.covers(code, &finding.file, line_text) {
                report.suppressed += 1;
            } else {
                report.findings.push(finding);
            }
        }
    }
}

/// Walk a `::`-path (optionally with a use-tree `{a, b::c}`) starting at
/// `start` (the token after the leading `name::`). Returns the identifiers to
/// validate (with their lines) and the index to resume scanning from.
fn walk_path_tree(toks: &[Token], start: usize) -> (Vec<(String, u32)>, usize) {
    let mut idents = Vec::new();
    let mut i = start;
    let mut depth = 0usize;
    let mut after_as = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "as" => after_as = true,
                "self" | "super" | "crate" | "_" => after_as = false,
                _ => {
                    if !after_as {
                        idents.push((t.text.clone(), t.line));
                    }
                    after_as = false;
                }
            }
            i += 1;
            continue;
        }
        if t.is_punct("::") || t.is_punct(",") || t.is_punct("*") {
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            // Only a use-tree group directly after `::` belongs to the path.
            if i > start && toks[i - 1].is_punct("::") {
                depth += 1;
                i += 1;
                continue;
            }
            break;
        }
        if t.is_punct("}") {
            if depth == 0 {
                break;
            }
            depth -= 1;
            i += 1;
            continue;
        }
        break;
    }
    (idents, i)
}

/// Map of line → rule codes allowed by `// rush-lint: allow(CODE, ...)`
/// pragmas. A pragma covers its own line and the line after it.
pub(crate) fn pragma_lines(f: &FileInput<'_>) -> BTreeMap<u32, BTreeSet<&'static str>> {
    let mut map: BTreeMap<u32, BTreeSet<&'static str>> = BTreeMap::new();
    for c in &f.lexed.comments {
        let Some(pos) = c.text.find("rush-lint:") else { continue };
        let rest = &c.text[pos + "rush-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else { continue };
        for code in after[..close].split(',') {
            if let Some(rule) = Rule::from_code(code.trim()) {
                map.entry(c.line).or_default().insert(rule.code());
            }
        }
    }
    map
}

/// Lines carrying a comment that documents a bound (for the literal-index
/// rule): any comment containing "bound" (case-insensitive).
pub(crate) fn bound_comment_lines(f: &FileInput<'_>) -> BTreeSet<u32> {
    f.lexed
        .comments
        .iter()
        .filter(|c| c.text.to_ascii_lowercase().contains("bound"))
        .map(|c| c.line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn det_manifest() -> Manifest {
        crate::manifest::parse_str(
            "[package]\nname = \"rush-core\"\n[features]\nserde = []\n\
             [package.metadata.rush-lint]\ndeterministic = true\nlibrary-hygiene = true\n",
        )
    }

    fn run(src: &str, manifest: &Manifest, crate_rel: &str) -> Report {
        let lexed = lex(src);
        let allow = Allowlist::default();
        let engine = Engine { shims: &[], allow: &allow };
        let mut report = Report::default();
        engine.check_file(
            &FileInput {
                rel_path: format!("crates/x/{crate_rel}"),
                crate_rel: crate_rel.to_string(),
                manifest,
                src,
                lexed: &lexed,
            },
            &mut report,
        );
        report.finalize();
        report
    }

    #[test]
    fn hashmap_flagged_outside_tests_only() {
        let m = det_manifest();
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; fn f() { let _x: HashMap<u8, u8>; } }\n";
        let r = run(src, &m, "src/lib.rs");
        assert_eq!(r.findings.iter().filter(|f| f.rule == Rule::Determinism).count(), 1);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn float_eq_and_partial_cmp_flagged() {
        let m = det_manifest();
        let src = "fn f(x: f64) -> bool { x == 1.0 }\n\
                   fn g(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n\
                   fn h(a: f64, b: f64) { a.partial_cmp(&b).expect(\"cmp\"); }\n\
                   fn ok(a: f64, b: f64) { a.total_cmp(&b); }\n";
        let r = run(src, &m, "src/lib.rs");
        assert_eq!(r.findings.iter().filter(|f| f.rule == Rule::FloatHygiene).count(), 3);
    }

    #[test]
    fn pragma_suppresses() {
        let m = det_manifest();
        let src = "// rush-lint: allow(RUSH-L002): sentinel compare\nfn f(x: f64) -> bool { x == 1.0 }\n";
        let r = run(src, &m, "src/lib.rs");
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn panic_hygiene_scopes() {
        let m = det_manifest();
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\"); }\n";
        let lib = run(src, &m, "src/lib.rs");
        assert_eq!(lib.findings.iter().filter(|f| f.rule == Rule::PanicHygiene).count(), 2);
        // Same source in a bench target: no findings.
        let bench = run(src, &m, "benches/b.rs");
        assert!(bench.findings.iter().all(|f| f.rule != Rule::PanicHygiene));
        // Binary target: no findings.
        let bin = run(src, &m, "src/bin/tool.rs");
        assert!(bin.findings.iter().all(|f| f.rule != Rule::PanicHygiene));
    }

    #[test]
    fn literal_index_needs_bound_comment() {
        let m = det_manifest();
        let flagged = run("fn f(xs: &[u8]) -> u8 { xs[0] }\n", &m, "src/lib.rs");
        assert_eq!(flagged.findings.iter().filter(|f| f.rule == Rule::PanicHygiene).count(), 1);
        let ok = run(
            "fn f(xs: &[u8]) -> u8 {\n    // bound: caller guarantees non-empty\n    xs[0]\n}\n",
            &m,
            "src/lib.rs",
        );
        assert!(ok.findings.iter().all(|f| f.rule != Rule::PanicHygiene));
        // Array literals are not indexing.
        let arr = run("fn f() -> [u8; 1] { [0] }\n", &m, "src/lib.rs");
        assert!(arr.findings.iter().all(|f| f.rule != Rule::PanicHygiene));
    }

    #[test]
    fn undeclared_feature_flagged() {
        let m = det_manifest();
        let src = "#[cfg(feature = \"serde\")]\nfn a() {}\n#[cfg(feature = \"paralel\")]\nfn b() {}\n";
        let r = run(src, &m, "src/lib.rs");
        let fg: Vec<_> = r.findings.iter().filter(|f| f.rule == Rule::FeatureGate).collect();
        assert_eq!(fg.len(), 1);
        assert!(fg[0].message.contains("paralel"));
    }

    #[test]
    fn shim_path_and_denylist() {
        let m = det_manifest();
        let mut idents = BTreeSet::new();
        collect_api(&lex("pub mod rngs { pub struct SmallRng; }\npub trait Rng { fn gen_range(&mut self); }"), &mut idents);
        let shims = [ShimApi { name: "rand".into(), idents }];
        let allow = Allowlist::default();
        let engine = Engine { shims: &shims, allow: &allow };
        let src = "use rand::rngs::SmallRng;\nuse rand::rngs::StdRng;\nfn f(v: &mut Vec<u8>, rng: &mut SmallRng) { v.shuffle(rng); }\n";
        let lexed = lex(src);
        let mut report = Report::default();
        engine.check_file(
            &FileInput {
                rel_path: "crates/x/src/lib.rs".into(),
                crate_rel: "src/lib.rs".into(),
                manifest: &m,
                src,
                lexed: &lexed,
            },
            &mut report,
        );
        report.finalize();
        let drift: Vec<_> = report.findings.iter().filter(|f| f.rule == Rule::ShimDrift).collect();
        // StdRng via path check (x2: path walk + type-like denylist) and shuffle via denylist.
        assert!(drift.iter().any(|f| f.message.contains("StdRng")));
        assert!(drift.iter().any(|f| f.message.contains("shuffle")));
        assert!(drift.iter().all(|f| !f.message.contains("SmallRng")));
    }

    #[test]
    fn planner_internals_flagged_outside_owner_crates() {
        let outsider = crate::manifest::parse_str(
            "[package]\nname = \"rush-serve\"\n\
             [package.metadata.rush-lint]\ndeterministic = false\nlibrary-hygiene = false\n",
        );
        let src = "use rush_core::plan::{compute_plan_cached, PlanCache};\n\
                   pub struct S { cache: PlanCache }\n\
                   #[cfg(test)]\nmod tests { use rush_core::plan::PlanCache; }\n";
        let r = run(src, &outsider, "src/lib.rs");
        let hits: Vec<_> =
            r.findings.iter().filter(|f| f.rule == Rule::PlannerLayering).collect();
        assert_eq!(hits.len(), 3, "two idents on line 1 + field type on line 2: {hits:#?}");
        assert!(hits.iter().all(|f| f.line <= 2), "test-gated use is exempt");
        // The owning crates may reference the internals freely.
        for owner in super::PLANNER_OWNER_CRATES {
            let m = crate::manifest::parse_str(&format!(
                "[package]\nname = \"{owner}\"\n\
                 [package.metadata.rush-lint]\ndeterministic = true\nlibrary-hygiene = true\n"
            ));
            let r = run("pub fn f(c: &mut PlanCache) { compute_plan_cached(c); }\n", &m, "src/lib.rs");
            assert!(r.findings.iter().all(|f| f.rule != Rule::PlannerLayering), "{owner}");
        }
        // Bench/bin targets are not library code.
        let bench = run(src, &outsider, "benches/b.rs");
        assert!(bench.findings.iter().all(|f| f.rule != Rule::PlannerLayering));
        let bin = run(src, &outsider, "src/bin/tool.rs");
        assert!(bin.findings.iter().all(|f| f.rule != Rule::PlannerLayering));
    }

    #[test]
    fn full_rebuild_flagged_outside_core() {
        let outsider = crate::manifest::parse_str(
            "[package]\nname = \"rush-serve\"\n\
             [package.metadata.rush-lint]\ndeterministic = false\nlibrary-hygiene = false\n",
        );
        let src = "use rush_core::plan::compute_plan;\n\
                   use rush_core::onion::peel;\n\
                   use rush_core::mapping::map_continuous;\n\
                   pub fn hot(s: &mut S) { s.plan = compute_plan(&s.cfg, s.cap, &s.jobs); }\n\
                   #[cfg(test)]\nmod tests { use rush_core::plan::compute_plan; }\n";
        let r = run(src, &outsider, "src/lib.rs");
        let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == Rule::FullRebuild).collect();
        assert_eq!(hits.len(), 4, "three use-sites + one call, test module exempt: {hits:#?}");
        // The delta-path identifiers are distinct tokens and never flagged.
        let delta = run(
            "use rush_core::plan::compute_plan_incremental;\n\
             use rush_core::onion::peel_incremental;\n\
             use rush_core::mapping::map_profile;\n",
            &outsider,
            "src/lib.rs",
        );
        assert!(delta.findings.iter().all(|f| f.rule != Rule::FullRebuild));
        // rush-core (full pipeline + naive oracle) may reference them freely.
        let core = run(src, &det_manifest(), "src/lib.rs");
        assert!(core.findings.iter().all(|f| f.rule != Rule::FullRebuild));
        // Bench/bin targets are where the full rebuild belongs: exempt.
        let bench = run(src, &outsider, "benches/b.rs");
        assert!(bench.findings.iter().all(|f| f.rule != Rule::FullRebuild));
        let bin = run(src, &outsider, "src/bin/tool.rs");
        assert!(bin.findings.iter().all(|f| f.rule != Rule::FullRebuild));
    }

    #[test]
    fn shard_escape_hatch_flagged_outside_planner() {
        let outsider = crate::manifest::parse_str(
            "[package]\nname = \"rush-serve\"\n\
             [package.metadata.rush-lint]\ndeterministic = false\nlibrary-hygiene = false\n",
        );
        let src = "pub fn poke(p: &rush_planner::ShardedPlanner) -> u32 {\n\
                   p.shard_core(0).capacity()\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn t(p: &rush_planner::ShardedPlanner) { p.shard_core(0); } }\n";
        let r = run(src, &outsider, "src/lib.rs");
        let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == Rule::ShardIsolation).collect();
        assert_eq!(hits.len(), 1, "library site flagged, test-gated site exempt: {hits:#?}");
        // The owning crate may hand out shard handles freely.
        let owner = crate::manifest::parse_str(
            "[package]\nname = \"rush-planner\"\n\
             [package.metadata.rush-lint]\ndeterministic = false\nlibrary-hygiene = true\n",
        );
        let r = run("pub fn shard_core(&self, i: usize) -> &PlannerCore { &self.shards[i] }\n", &owner, "src/sharded.rs");
        assert!(r.findings.iter().all(|f| f.rule != Rule::ShardIsolation));
        // Tests/benches/bins are where per-shard inspection belongs: exempt.
        let bench = run(src, &outsider, "benches/b.rs");
        assert!(bench.findings.iter().all(|f| f.rule != Rule::ShardIsolation));
        let bin = run(src, &outsider, "src/bin/tool.rs");
        assert!(bin.findings.iter().all(|f| f.rule != Rule::ShardIsolation));
    }

    #[test]
    fn allowlist_covers_by_suffix_and_substring() {
        let allow = Allowlist::parse(
            "# grandfathered\nRUSH-L003|src/lib.rs|x.unwrap()|seed code predates rule\n",
        );
        assert!(allow.covers("RUSH-L003", "crates/x/src/lib.rs", "let y = x.unwrap();"));
        assert!(!allow.covers("RUSH-L003", "crates/x/src/other.rs", "let y = x.unwrap();"));
        assert!(!allow.covers("RUSH-L002", "crates/x/src/lib.rs", "let y = x.unwrap();"));
    }
}
