//! The three token-level rules (RUSH-L001 … RUSH-L003), plus the
//! supporting machinery: `#[cfg(test)]` region detection, pragma comments
//! and the grandfathered-site allowlist.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, TokKind, Token};
use crate::manifest::Manifest;
use crate::report::{Finding, Report, Rule};

/// Names of the vendored shim crates: exempt from float hygiene and never
/// part of the live call graph.
pub const SHIM_NAMES: &[&str] = &["rand", "proptest", "criterion"];

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

/// The rule engine. Holds cross-file state (the allowlist).
pub struct Engine<'a> {
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
            "[package]\nname = \"rush-core\"\n[features]\nparallel = []\n\
             [package.metadata.rush-lint]\ndeterministic = true\nlibrary-hygiene = true\n",
        )
    }

    fn run(src: &str, manifest: &Manifest, crate_rel: &str) -> Report {
        let lexed = lex(src);
        let allow = Allowlist::default();
        let engine = Engine { allow: &allow };
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
    fn allowlist_covers_by_suffix_and_substring() {
        let allow = Allowlist::parse(
            "# grandfathered\nRUSH-L003|src/lib.rs|x.unwrap()|seed code predates rule\n",
        );
        assert!(allow.covers("RUSH-L003", "crates/x/src/lib.rs", "let y = x.unwrap();"));
        assert!(!allow.covers("RUSH-L003", "crates/x/src/other.rs", "let y = x.unwrap();"));
        assert!(!allow.covers("RUSH-L002", "crates/x/src/lib.rs", "let y = x.unwrap();"));
    }
}
