//! The AST pass: RUSH-L009, L010, L011 and L013 over the workspace model.
//!
//! The token rules look at one token stream at a time; these rules consume
//! the [`crate::model::WorkspaceModel`] — the symbol table, the name-based
//! call graph and the per-function lock dataflow summaries — so they can
//! state *cross-function* properties:
//!
//! * **RUSH-L009** — no panic site reachable from a declared entry point,
//!   proven by BFS over the call graph with a witness path per finding;
//! * **RUSH-L010** — no unchecked slot/capacity arithmetic in the crates
//!   that opt into kernel arithmetic hygiene;
//! * **RUSH-L011** — a globally consistent lock-acquisition order and no
//!   lock held across socket I/O or planner fan-out;
//! * **RUSH-L013** — no blocking primitive reachable from a declared
//!   reactor event loop, and declared codec files panic-free.
//!
//! Suppression matches the token engine: inline
//! `// rush-lint: allow(CODE)` pragmas (own line + next line) and the
//! checked-in `xtask-lint.allow` allowlist. L009 additionally honors
//! RUSH-L003 escapes — both rules police panic hygiene, and a site a
//! human already justified for L003 needs no second justification.

use std::collections::{BTreeMap, VecDeque};

use crate::model::{CallTarget, FnInfo, PanicKind, WorkspaceModel};
use crate::report::{Finding, Report, Rule};
use crate::rules::Allowlist;

/// Socket/stream calls that must not run under a lock (blocking I/O).
const IO_METHODS: &[&str] = &[
    "write_all", "write_fmt", "flush", "read_line", "read_exact", "read_to_end",
    "read_to_string", "recv", "recv_timeout", "accept", "connect",
];

/// Planner fan-out entry points that must not run under a lock: they
/// dispatch to per-shard planner threads and block on the slowest shard.
const FANOUT_FNS: &[&str] = &["plan_at", "plan_roster"];

/// Blocking primitives that must be unreachable from a reactor event
/// loop (RUSH-L013). Deliberately narrower than [`IO_METHODS`]: `send`
/// on an unbounded channel, `accept`/`read`/`write` on a nonblocking fd
/// and `epoll_wait` with a timeout are the loop's bread and butter.
const BLOCKING_FNS: &[&str] = &[
    "sleep", "recv", "recv_timeout", "join", "park", "park_timeout", "write_all",
    "write_fmt", "read_exact", "read_line", "read_to_end", "read_to_string",
];

/// Run the AST rules, appending suppressed-aware findings to `report`.
pub fn check(model: &WorkspaceModel, allow: &Allowlist, report: &mut Report) {
    let mut pending: Vec<Finding> = Vec::new();
    check_panic_reachability(model, &mut pending);
    check_arith_hygiene(model, &mut pending);
    check_lock_discipline(model, &mut pending);
    check_reactor_discipline(model, &mut pending);

    // Suppression: pragmas (own line + previous line) and allowlist.
    // RUSH-L009 shares RUSH-L003's escape hatch (both are panic hygiene).
    for finding in pending {
        let codes: &[&str] = match finding.rule {
            Rule::PanicReachability => &["RUSH-L009", "RUSH-L003"],
            Rule::ArithHygiene => &["RUSH-L010"],
            Rule::LockDiscipline => &["RUSH-L011"],
            Rule::ReactorDiscipline => &["RUSH-L013"],
            // Token rules never reach this pass.
            _ => &[],
        };
        let fm = model.files.iter().find(|f| f.rel_path == finding.file);
        let mut suppressed = false;
        if let Some(fm) = fm {
            let pragma_hit = [finding.line, finding.line.saturating_sub(1)].iter().any(|l| {
                fm.pragmas
                    .get(l)
                    .is_some_and(|set| codes.iter().any(|c| set.contains(c)))
            });
            let line_text = fm
                .lines
                .get(finding.line.saturating_sub(1) as usize)
                .map(String::as_str)
                .unwrap_or("");
            suppressed = pragma_hit
                || codes.iter().any(|c| allow.covers(c, &finding.file, line_text));
        }
        if suppressed {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
}

/// Index of every resolvable callee name → function indices. Targets are
/// restricted to *live* code: non-test functions in non-shim library
/// files (test helpers and vendored shims are not linked into the
/// daemon, and a binary's `main` is not callable).
struct CallIndex {
    free: BTreeMap<String, Vec<usize>>,
    assoc: BTreeMap<(String, String), Vec<usize>>,
    methods: BTreeMap<String, Vec<usize>>,
}

impl CallIndex {
    fn build(model: &WorkspaceModel) -> CallIndex {
        let mut idx = CallIndex {
            free: BTreeMap::new(),
            assoc: BTreeMap::new(),
            methods: BTreeMap::new(),
        };
        for (i, f) in model.fns.iter().enumerate() {
            if !fn_is_live(model, f) {
                continue;
            }
            match &f.self_type {
                None => idx.free.entry(f.name.clone()).or_default().push(i),
                Some(ty) => {
                    idx.assoc.entry((ty.clone(), f.name.clone())).or_default().push(i);
                    idx.methods.entry(f.name.clone()).or_default().push(i);
                }
            }
        }
        idx
    }

    fn resolve(&self, target: &CallTarget) -> &[usize] {
        match target {
            CallTarget::Free(n) => self.free.get(n).map_or(&[], Vec::as_slice),
            CallTarget::Assoc(ty, n) => self
                .assoc
                .get(&(ty.clone(), n.clone()))
                .map_or(&[], Vec::as_slice),
            CallTarget::Method(n) => self.methods.get(n).map_or(&[], Vec::as_slice),
        }
    }
}

/// Live code for reachability purposes: non-test library code outside the
/// vendored shims.
fn fn_is_live(model: &WorkspaceModel, f: &FnInfo) -> bool {
    let fm = &model.files[f.file];
    !f.is_test && fm.is_library && !fm.is_shim
}

// ---- RUSH-L009: panic reachability -------------------------------------

fn check_panic_reachability(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    let idx = CallIndex::build(model);

    // Roots: functions named in their crate's `entry-points` metadata.
    let mut roots: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && model.files[f.file].entry_points.iter().any(|e| matches_loop_entry(f, e))
        })
        .map(|(i, _)| i)
        .collect();
    roots.sort_unstable();
    if roots.is_empty() {
        return;
    }

    // BFS with parent pointers for witness paths.
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
            e.insert(None);
            queue.push_back(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for call in &model.fns[cur].calls {
            for &next in idx.resolve(&call.target) {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some(cur));
                    queue.push_back(next);
                }
            }
        }
    }

    for &fi in parent.keys() {
        let f = &model.fns[fi];
        if !fn_is_live(model, f) {
            continue;
        }
        let fm = &model.files[f.file];
        let path = witness_path(model, &parent, fi);
        for p in &f.panics {
            let what = match &p.kind {
                PanicKind::Macro(m) => format!("`{m}!`"),
                PanicKind::Unwrap => "`.unwrap()`".to_string(),
                PanicKind::Expect => "`.expect(..)`".to_string(),
                PanicKind::Index { literal } => {
                    // Bare indexing is only policed inside crates that
                    // declare entry points — the daemon's own code, where
                    // a slip drops a connection. Literal indexes carry a
                    // documented bound like the shallow rule.
                    if fm.entry_points.is_empty() {
                        continue;
                    }
                    if *literal
                        && (fm.bound_lines.contains(&p.line)
                            || fm.bound_lines.contains(&p.line.saturating_sub(1)))
                    {
                        continue;
                    }
                    "`[]` indexing".to_string()
                }
            };
            out.push(Finding {
                rule: Rule::PanicReachability,
                file: fm.rel_path.clone(),
                line: p.line,
                message: format!("{what} in `{}`, reachable via {path}", f.name),
            });
        }
    }
}

/// Reconstruct `root → ... → target` as a readable arrow chain.
fn witness_path(
    model: &WorkspaceModel,
    parent: &BTreeMap<usize, Option<usize>>,
    target: usize,
) -> String {
    let mut chain = vec![target];
    let mut cur = target;
    while let Some(Some(p)) = parent.get(&cur) {
        chain.push(*p);
        cur = *p;
        if chain.len() > 32 {
            break; // cycles cannot happen with parent pointers, but stay safe
        }
    }
    chain.reverse();
    let names: Vec<&str> = chain.iter().map(|&i| model.fns[i].name.as_str()).collect();
    if names.len() <= 6 {
        names.join(" -> ")
    } else {
        format!(
            "{} -> ... -> {}",
            names[..3].join(" -> "),
            names[names.len() - 2..].join(" -> ")
        )
    }
}

// ---- RUSH-L010: slot/capacity arithmetic hygiene -----------------------

fn check_arith_hygiene(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    for f in &model.fns {
        let fm = &model.files[f.file];
        if f.is_test || !fm.arith_hygiene || !fm.is_library || fm.is_shim {
            continue;
        }
        for a in &f.arith {
            out.push(Finding {
                rule: Rule::ArithHygiene,
                file: fm.rel_path.clone(),
                line: a.line,
                message: format!(
                    "unchecked `{}` on `{}` in `{}` — use checked_/saturating_ arithmetic",
                    a.op, a.operand, f.name
                ),
            });
        }
    }
}

// ---- RUSH-L011: lock discipline ----------------------------------------

fn check_lock_discipline(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // Global acquisition-order graph: lock -> lock, with one witness site.
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for f in &model.fns {
        let fm = &model.files[f.file];
        if f.is_test || fm.is_shim || !fm.is_library {
            continue;
        }
        for (held, acq, line) in &f.locks.order_pairs {
            if held == acq {
                out.push(Finding {
                    rule: Rule::LockDiscipline,
                    file: fm.rel_path.clone(),
                    line: *line,
                    message: format!(
                        "lock `{held}` re-acquired while already held in `{}` (self-deadlock)",
                        f.name
                    ),
                });
                continue;
            }
            edges
                .entry((held.clone(), acq.clone()))
                .or_insert_with(|| (fm.rel_path.clone(), *line, f.name.clone()));
        }
        for (held, callee, line) in &f.locks.held_calls {
            let io = IO_METHODS.contains(&callee.as_str());
            let fanout = FANOUT_FNS.contains(&callee.as_str());
            if io || fanout {
                out.push(Finding {
                    rule: Rule::LockDiscipline,
                    file: fm.rel_path.clone(),
                    line: *line,
                    message: format!(
                        "lock `{held}` held across {} `{callee}` in `{}`",
                        if io { "blocking I/O" } else { "planner fan-out" },
                        f.name
                    ),
                });
            }
        }
    }

    // Cycle detection over the order graph (DFS, deterministic order).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    for &start in &nodes {
        if state.contains_key(start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        state.insert(start, 1);
        while let Some((node, i)) = stack.pop() {
            let nexts = adj.get(node).map_or(&[][..], Vec::as_slice);
            if i < nexts.len() {
                stack.push((node, i + 1));
                let next = nexts[i];
                match state.get(next) {
                    Some(1) => {
                        // Back edge `node -> next` closes a cycle. Report
                        // at the witness for this edge, citing the reverse
                        // path's witness.
                        let (file, line, in_fn) = &edges[&(node.to_string(), next.to_string())];
                        let reverse = edges
                            .iter()
                            .find(|((a, b), _)| a == next && b == node)
                            .map(|(_, (rf, rl, _))| format!("{rf}:{rl}"))
                            .unwrap_or_else(|| "another path".to_string());
                        out.push(Finding {
                            rule: Rule::LockDiscipline,
                            file: file.clone(),
                            line: *line,
                            message: format!(
                                "inconsistent lock order in `{in_fn}`: `{node}` taken before `{next}` here, but the opposite order exists ({reverse})"
                            ),
                        });
                    }
                    Some(_) => {}
                    None => {
                        state.insert(next, 1);
                        stack.push((next, 0));
                    }
                }
            } else {
                state.insert(node, 2);
            }
        }
    }
}

// ---- RUSH-L013: reactor discipline -------------------------------------

/// Does `f` match an `entry-points` / `reactor-loops` entry? `Type::name`
/// requires a method of `Type`; a bare name matches any function with that
/// name.
fn matches_loop_entry(f: &FnInfo, entry: &str) -> bool {
    match entry.split_once("::") {
        Some((ty, name)) => f.self_type.as_deref() == Some(ty) && f.name == name,
        None => f.name == entry,
    }
}

fn check_reactor_discipline(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // (1) Blocking reachability from the declared event loops, on the
    // same over-approximate call graph L009 walks.
    let idx = CallIndex::build(model);
    let roots: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && model.files[f.file]
                    .reactor_loops
                    .iter()
                    .any(|e| matches_loop_entry(f, e))
        })
        .map(|(i, _)| i)
        .collect();
    if !roots.is_empty() {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in &roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for call in &model.fns[cur].calls {
                for &next in idx.resolve(&call.target) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                        e.insert(Some(cur));
                        queue.push_back(next);
                    }
                }
            }
        }
        for &fi in parent.keys() {
            let f = &model.fns[fi];
            if !fn_is_live(model, f) && !roots.contains(&fi) {
                continue;
            }
            let fm = &model.files[f.file];
            for call in &f.calls {
                let callee = match &call.target {
                    CallTarget::Free(n) | CallTarget::Method(n) | CallTarget::Assoc(_, n) => n,
                };
                if BLOCKING_FNS.contains(&callee.as_str()) {
                    let path = witness_path(model, &parent, fi);
                    out.push(Finding {
                        rule: Rule::ReactorDiscipline,
                        file: fm.rel_path.clone(),
                        line: call.line,
                        message: format!(
                            "blocking `{callee}` in `{}`, reachable from a reactor event loop via {path}",
                            f.name
                        ),
                    });
                }
            }
        }
    }

    // (2) Panic freedom of the declared codec files: the wire decoders
    // run on the event loop against attacker-controlled bytes.
    for f in &model.fns {
        let fm = &model.files[f.file];
        if f.is_test || fm.is_shim || !fm.panic_free.iter().any(|p| p == &fm.crate_rel) {
            continue;
        }
        for p in &f.panics {
            let what = match &p.kind {
                PanicKind::Macro(m) => format!("`{m}!`"),
                PanicKind::Unwrap => "`.unwrap()`".to_string(),
                PanicKind::Expect => "`.expect(..)`".to_string(),
                PanicKind::Index { literal } => {
                    if *literal
                        && (fm.bound_lines.contains(&p.line)
                            || fm.bound_lines.contains(&p.line.saturating_sub(1)))
                    {
                        continue;
                    }
                    "`[]` indexing".to_string()
                }
            };
            out.push(Finding {
                rule: Rule::ReactorDiscipline,
                file: fm.rel_path.clone(),
                line: p.line,
                message: format!(
                    "{what} in `{}` of panic-free file `{}` — wire codecs must return errors, never panic",
                    f.name, fm.crate_rel
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::manifest::Manifest;
    use crate::rules::FileInput;

    fn run(src: &str, manifest_text: &str) -> Report {
        let manifest: Manifest = crate::manifest::parse_str(manifest_text);
        let lexed = lex(src);
        let input = FileInput {
            rel_path: "crates/x/src/lib.rs".into(),
            crate_rel: "src/lib.rs".into(),
            manifest: &manifest,
            src,
            lexed: &lexed,
        };
        let model = WorkspaceModel::build(std::slice::from_ref(&input));
        let allow = Allowlist::parse("");
        let mut report = Report::default();
        check(&model, &allow, &mut report);
        report.finalize();
        report
    }

    const ENTRY_MANIFEST: &str = "[package]\nname = \"x\"\n\
        [package.metadata.rush-lint]\nentry-points = [\"serve_loop\"]\n";

    #[test]
    fn l009_reports_reachable_panic_with_path() {
        let rep = run(
            "pub fn serve_loop() { step(); }\n\
             fn step() { inner(); }\n\
             fn inner(v: Option<u32>) -> u32 { v.unwrap() }\n\
             fn unreached() { panic!(\"not reachable\"); }\n",
            ENTRY_MANIFEST,
        );
        let l9: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PanicReachability)
            .collect();
        assert_eq!(l9.len(), 1, "{:?}", rep.findings);
        assert!(l9[0].message.contains("serve_loop -> step -> inner"));
        assert_eq!(l9[0].line, 3);
    }

    #[test]
    fn l009_honors_l003_pragma() {
        let rep = run(
            "pub fn serve_loop(v: Option<u32>) -> u32 {\n\
                 // rush-lint: allow(RUSH-L003): startup-validated\n\
                 v.unwrap()\n\
             }\n",
            ENTRY_MANIFEST,
        );
        assert!(
            rep.findings.iter().all(|f| f.rule != Rule::PanicReachability),
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.suppressed, 1);
    }

    #[test]
    fn l009_index_needs_entry_point_crate_and_honors_bounds() {
        let rep = run(
            "pub fn serve_loop(v: &[u32]) -> u32 {\n\
                 let a = v[idx()];\n\
                 // bound: probe count checked at construction\n\
                 let b = v[0];\n\
                 a + b\n\
             }\n\
             fn idx() -> usize { 0 }\n",
            ENTRY_MANIFEST,
        );
        let l9: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PanicReachability)
            .collect();
        assert_eq!(l9.len(), 1, "{:?}", rep.findings);
        assert_eq!(l9[0].line, 2);
    }

    #[test]
    fn l010_flags_bare_slot_math() {
        let rep = run(
            "pub fn split(capacity: u64, used: u64) -> u64 { capacity - used }\n\
             pub fn safe(capacity: u64, used: u64) -> u64 { capacity.saturating_sub(used) }\n",
            "[package]\nname = \"x\"\n[package.metadata.rush-lint]\narith-hygiene = true\n",
        );
        let l10: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::ArithHygiene)
            .collect();
        assert_eq!(l10.len(), 1, "{:?}", rep.findings);
        assert_eq!(l10[0].line, 1);
    }

    #[test]
    fn l011_order_cycle_and_held_io() {
        let rep = run(
            "pub fn ab(s: &S) {\n\
                 let a = s.a.lock().unwrap();\n\
                 let b = s.b.lock().unwrap();\n\
                 let _ = (a, b);\n\
             }\n\
             pub fn ba(s: &S) {\n\
                 let b = s.b.lock().unwrap();\n\
                 let a = s.a.lock().unwrap();\n\
                 let _ = (a, b);\n\
             }\n\
             pub fn io(s: &S, w: &mut W) {\n\
                 let g = s.a.lock().unwrap();\n\
                 w.write_all(&[0]).ok();\n\
                 drop(g);\n\
                 w.flush().ok();\n\
             }\n",
            "[package]\nname = \"x\"\n",
        );
        let l11: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::LockDiscipline)
            .collect();
        assert!(
            l11.iter().any(|f| f.message.contains("inconsistent lock order")),
            "{:?}",
            rep.findings
        );
        let held: Vec<_> = l11
            .iter()
            .filter(|f| f.message.contains("held across"))
            .collect();
        assert_eq!(held.len(), 1, "{:?}", rep.findings);
        assert!(held[0].message.contains("write_all"));
    }

    const REACTOR_MANIFEST: &str = "[package]\nname = \"x\"\n\
        [package.metadata.rush-lint]\nreactor-loops = [\"Reactor::run\"]\n";

    #[test]
    fn l013_reports_blocking_call_with_path() {
        let rep = run(
            "struct Reactor;\n\
             impl Reactor {\n\
                 pub fn run(&mut self) { self.tick(); }\n\
                 fn tick(&self) { helper(); }\n\
             }\n\
             fn helper() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n\
             fn unreached(s: &mut W) { s.write_all(&[0]).ok(); }\n",
            REACTOR_MANIFEST,
        );
        let l13: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::ReactorDiscipline)
            .collect();
        assert_eq!(l13.len(), 1, "{:?}", rep.findings);
        assert!(l13[0].message.contains("blocking `sleep`"));
        assert!(l13[0].message.contains("run -> tick -> helper"));
        assert_eq!(l13[0].line, 6);
    }

    #[test]
    fn l013_nonblocking_loop_is_clean() {
        let rep = run(
            "struct Reactor;\n\
             impl Reactor {\n\
                 pub fn run(&mut self) {\n\
                     let evs = self.poller.wait(timeout);\n\
                     let _ = self.tx.send(msg);\n\
                     let n = self.stream.read(&mut buf);\n\
                     let _ = (evs, n);\n\
                 }\n\
             }\n",
            REACTOR_MANIFEST,
        );
        assert!(
            rep.findings.iter().all(|f| f.rule != Rule::ReactorDiscipline),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn l013_panic_free_file_flags_unwrap_and_honors_pragma() {
        let manifest = "[package]\nname = \"x\"\n\
            [package.metadata.rush-lint]\npanic-free = [\"src/lib.rs\"]\n";
        let rep = run(
            "pub fn decode(v: Option<u32>) -> u32 { v.unwrap() }\n\
             pub fn checked(v: Option<u32>) -> u32 {\n\
                 // rush-lint: allow(RUSH-L013): validated at the frame scanner\n\
                 v.unwrap()\n\
             }\n\
             #[cfg(test)]\nmod tests {\n\
                 fn helper(v: Option<u32>) -> u32 { v.unwrap() }\n\
             }\n",
            manifest,
        );
        let l13: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.rule == Rule::ReactorDiscipline)
            .collect();
        assert_eq!(l13.len(), 1, "{:?}", rep.findings);
        assert_eq!(l13[0].line, 1);
        assert!(l13[0].message.contains("panic-free file `src/lib.rs`"));
        assert_eq!(rep.suppressed, 1);
    }
}
