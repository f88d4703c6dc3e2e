//! Workspace-wide semantic model for the deep lint pass.
//!
//! [`WorkspaceModel::build`] parses every scanned file with
//! [`crate::parser`], walks the trees once, and distills exactly the facts
//! the deep rules (RUSH-L009 … RUSH-L013) consume:
//!
//! * a **symbol table** of every function (free, associated, method) with
//!   its defining file, impl type, and test-gating;
//! * per-function **fact lists**: outgoing calls (the edges of the call
//!   graph), potential panic sites and slot/capacity arithmetic sites;
//! * a per-function **lock dataflow summary**: which guards are held when
//!   other locks are acquired (the global acquisition-order graph) and
//!   which calls happen under a held guard;
//! * per-file metadata: pragma/bound-comment lines and the manifest facts
//!   that scope each rule.
//!
//! Name resolution is deliberately *name-based and over-approximate*: a
//! method call `.foo()` may target any method named `foo` in the
//! workspace, and `Type::foo` targets any `foo` in an impl of a type
//! whose last path segment is `Type`. For reachability analyses an
//! over-approximation is sound: it can only claim *more* code reachable,
//! never less.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, Item, Stmt};
use crate::parser::{parse_file, ParseOutcome};
use crate::rules::{pragma_lines, bound_comment_lines, FileInput, SHIM_NAMES};

/// The target of a call edge, by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `foo(..)` — a free function (or a method called via `self.`-less
    /// path inside an impl, which also resolves associatively).
    Free(String),
    /// `Type::foo(..)` — associated call; `Self` is resolved to the
    /// surrounding impl type by the extractor.
    Assoc(String, String),
    /// `.foo(..)` — a method call on an unknown receiver type.
    Method(String),
}

/// One outgoing call from a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Who is being called.
    pub target: CallTarget,
    /// 1-based line of the call.
    pub line: u32,
}

/// The kind of potential panic at a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert*!`.
    Macro(String),
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `base[index]` with a non-range index.
    Index {
        /// The index is an integer literal (bound comments can justify it).
        literal: bool,
    },
}

/// One potential panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What could panic.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: u32,
}

/// One unchecked arithmetic site over slot/capacity-named operands.
#[derive(Debug, Clone)]
pub struct ArithSite {
    /// The operator (`+`, `-`, `*`, `+=`, `-=`, `*=`).
    pub op: String,
    /// The offending operand name (e.g. `slots`, `capacity`).
    pub operand: String,
    /// 1-based line of the operator.
    pub line: u32,
}

/// Lock dataflow summary for one function.
#[derive(Debug, Clone, Default)]
pub struct LockSummary {
    /// `(held, acquired, line)` — `acquired` was taken while `held` was
    /// live. These are the edges of the global acquisition-order graph.
    pub order_pairs: Vec<(String, String, u32)>,
    /// `(held, callee, line)` — a named call made while `held` was live.
    pub held_calls: Vec<(String, String, u32)>,
}

/// One function in the workspace symbol table.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`WorkspaceModel::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Impl self-type for methods/associated functions (`Self` resolved).
    pub self_type: Option<String>,
    /// 1-based line of the definition.
    pub line: u32,
    /// Test-gated (own attribute or any enclosing `#[cfg(test)]` scope).
    pub is_test: bool,
    /// Outgoing call edges.
    pub calls: Vec<CallSite>,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Unchecked slot/capacity arithmetic sites.
    pub arith: Vec<ArithSite>,
    /// Lock dataflow summary.
    pub locks: LockSummary,
}

/// Per-file metadata the deep rules need (owned, no borrows).
#[derive(Debug, Default)]
pub struct FileModel {
    /// Path relative to the scan root.
    pub rel_path: String,
    /// Path relative to the owning crate.
    pub crate_rel: String,
    /// The crate's L009 entry-point function names.
    pub entry_points: Vec<String>,
    /// The crate opts into L010.
    pub arith_hygiene: bool,
    /// The crate's L013 reactor event-loop roots (`Type::name` or bare).
    pub reactor_loops: Vec<String>,
    /// The crate's L013 panic-free files (crate-relative).
    pub panic_free: Vec<String>,
    /// Library code (in `src/`, not a bin target).
    pub is_library: bool,
    /// Belongs to a vendored shim crate.
    pub is_shim: bool,
    /// Source lines (for allowlist line matching).
    pub lines: Vec<String>,
    /// Line → allowed rule codes from inline pragmas.
    pub pragmas: BTreeMap<u32, BTreeSet<&'static str>>,
    /// Lines whose comments document a bound.
    pub bound_lines: BTreeSet<u32>,
    /// Structural parse errors in this file.
    pub parse_errors: usize,
    /// Tokens consumed by soft recovery.
    pub recovered: usize,
}

/// The whole-workspace model.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Per-file metadata, in scan order.
    pub files: Vec<FileModel>,
    /// Every function found, workspace-wide.
    pub fns: Vec<FnInfo>,
}

impl WorkspaceModel {
    /// Parse and distill every file.
    pub fn build(inputs: &[FileInput<'_>]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        for input in inputs {
            let outcome = parse_file(input.lexed);
            model.add_file(input, &outcome);
        }
        model
    }

    /// Add one parsed file to the model.
    pub fn add_file(&mut self, input: &FileInput<'_>, outcome: &ParseOutcome) {
        let file_idx = self.files.len();
        let fm = FileModel {
            rel_path: input.rel_path.clone(),
            crate_rel: input.crate_rel.clone(),
            entry_points: input.manifest.entry_points.clone(),
            arith_hygiene: input.manifest.arith_hygiene,
            reactor_loops: input.manifest.reactor_loops.clone(),
            panic_free: input.manifest.panic_free.clone(),
            is_library: input.is_library(),
            is_shim: SHIM_NAMES.contains(&input.manifest.name.as_str()),
            lines: input.src.lines().map(str::to_string).collect(),
            pragmas: pragma_lines(input),
            bound_lines: bound_comment_lines(input),
            parse_errors: outcome.errors.len(),
            recovered: outcome.recovered.len(),
        };
        let mut fns = Vec::new();
        collect_items(
            &outcome.file.items,
            &Ctx { file: file_idx, self_type: None, in_test: false },
            &mut fns,
        );
        self.files.push(fm);
        self.fns.extend(fns);
    }
}

/// Extraction context while walking the item tree.
struct Ctx {
    file: usize,
    self_type: Option<String>,
    in_test: bool,
}

fn collect_items(items: &[Item], ctx: &Ctx, fns: &mut Vec<FnInfo>) {
    for item in items {
        match item {
            Item::Fn(f) => {
                let mut info = FnInfo {
                    file: ctx.file,
                    name: f.name.clone(),
                    self_type: ctx.self_type.clone(),
                    line: f.line,
                    is_test: ctx.in_test || f.is_test,
                    calls: Vec::new(),
                    panics: Vec::new(),
                    arith: Vec::new(),
                    locks: LockSummary::default(),
                };
                if let Some(body) = &f.body {
                    let mut w = FactWalker {
                        self_type: ctx.self_type.clone(),
                        info: &mut info,
                        held: Vec::new(),
                    };
                    w.walk_block(body);
                    // Nested items inside the body are hoisted as siblings.
                    let nested: Vec<&Item> = body
                        .stmts
                        .iter()
                        .filter_map(|s| match s {
                            Stmt::Item(i) => Some(&**i),
                            _ => None,
                        })
                        .collect();
                    for n in nested {
                        collect_items(
                            std::slice::from_ref(n),
                            &Ctx {
                                file: ctx.file,
                                self_type: ctx.self_type.clone(),
                                in_test: info.is_test,
                            },
                            fns,
                        );
                    }
                }
                fns.push(info);
            }
            Item::Impl(imp) => {
                collect_items(
                    &imp.items,
                    &Ctx {
                        file: ctx.file,
                        self_type: Some(imp.self_type.clone()),
                        in_test: ctx.in_test || imp.is_test,
                    },
                    fns,
                );
            }
            Item::Mod(m) => {
                collect_items(
                    &m.items,
                    &Ctx {
                        file: ctx.file,
                        self_type: None,
                        in_test: ctx.in_test || m.is_test,
                    },
                    fns,
                );
            }
            Item::Enum(_) | Item::Skipped => {}
        }
    }
}

/// Macros that unconditionally (or conditionally) panic at runtime.
/// `debug_assert*` is excluded: it compiles out of release binaries and
/// the shallow lint already polices its use at kernel boundaries.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// A live lock guard during the dataflow walk.
struct Guard {
    /// Binding name (`g` in `let g = m.lock()`), empty for temporaries.
    binding: String,
    /// The lock's textual identity (receiver path of the acquisition).
    lock: String,
}

struct FactWalker<'a> {
    self_type: Option<String>,
    info: &'a mut FnInfo,
    held: Vec<Guard>,
}

impl FactWalker<'_> {
    fn walk_block(&mut self, block: &Block) {
        let depth = self.held.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { name, init, else_block, .. } => {
                    if let Some(init) = init {
                        // walk_expr records the acquisition order pairs;
                        // here we only turn a let-bound acquisition into
                        // a guard that stays held for the rest of scope.
                        self.walk_expr(init);
                        if let Some(lock) = acquisition_of(init) {
                            self.held.push(Guard {
                                binding: name.clone().unwrap_or_default(),
                                lock,
                            });
                        }
                    }
                    if let Some(b) = else_block {
                        self.walk_block(b);
                    }
                }
                Stmt::Expr(e) => {
                    // `drop(g)` releases the guard bound to `g`.
                    if let Expr::Call { callee, args, .. } = e {
                        if let (Expr::Path { segs, .. }, [Expr::Path { segs: arg, .. }]) =
                            (&**callee, args.as_slice())
                        {
                            if segs.last().is_some_and(|s| s == "drop") && arg.len() == 1 {
                                let victim = &arg[0];
                                if let Some(pos) = self
                                    .held
                                    .iter()
                                    .rposition(|g| !g.binding.is_empty() && g.binding == *victim)
                                {
                                    self.walk_expr(e);
                                    self.held.remove(pos);
                                    continue;
                                }
                            }
                        }
                    }
                    self.walk_expr(e);
                    // A statement-level bare acquisition is a temporary:
                    // held only for its own statement, no persistent guard.
                }
                Stmt::Item(_) => {} // hoisted by collect_items
            }
        }
        self.held.truncate(depth); // scope end drops block-local guards
    }

    fn record_acquire(&mut self, lock: &str, line: u32) {
        for g in &self.held {
            self.info
                .locks
                .order_pairs
                .push((g.lock.clone(), lock.to_string(), line));
        }
    }

    fn record_call(&mut self, target: CallTarget, line: u32) {
        let callee_name = match &target {
            CallTarget::Free(n) | CallTarget::Method(n) | CallTarget::Assoc(_, n) => n.clone(),
        };
        for g in &self.held {
            self.info.locks.held_calls.push((g.lock.clone(), callee_name.clone(), line));
        }
        self.info.calls.push(CallSite { target, line });
    }

    fn walk_expr(&mut self, e: &Expr) {
        match e {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
            Expr::Call { callee, args, line } => {
                match &**callee {
                    Expr::Path { segs, .. } => match segs.as_slice() {
                        [one] => self.record_call(CallTarget::Free(one.clone()), *line),
                        [.., ty, name] => {
                            let ty = if ty == "Self" {
                                self.self_type.clone().unwrap_or_else(|| ty.clone())
                            } else {
                                ty.clone()
                            };
                            self.record_call(CallTarget::Assoc(ty, name.clone()), *line);
                        }
                        [] => {}
                    },
                    other => self.walk_expr(other),
                }
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::MethodCall { recv, name, args, line } => {
                self.walk_expr(recv);
                match name.as_str() {
                    "unwrap" if args.is_empty() => {
                        // `.lock().unwrap()` is part of the acquisition
                        // idiom, not an independent panic site *and* it
                        // still panics — record the panic regardless.
                        self.info.panics.push(PanicSite { kind: PanicKind::Unwrap, line: *line });
                    }
                    "expect" => {
                        self.info.panics.push(PanicSite { kind: PanicKind::Expect, line: *line });
                    }
                    _ => {}
                }
                self.record_call(CallTarget::Method(name.clone()), *line);
                if is_lock_method(name, args) {
                    // Acquisition visible to the order analysis even when
                    // not let-bound (temporary guard for this statement).
                    let lock = receiver_path(recv);
                    if !lock.is_empty() {
                        self.record_acquire(&lock, *line);
                    }
                }
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::Field { base, .. } => self.walk_expr(base),
            Expr::Index { base, index, line } => {
                self.walk_expr(base);
                self.walk_expr(index);
                if !matches!(&**index, Expr::Range { .. }) {
                    let literal = matches!(&**index, Expr::Lit { is_int: true, .. });
                    self.info.panics.push(PanicSite { kind: PanicKind::Index { literal }, line: *line });
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
                if matches!(op.as_str(), "+" | "-" | "*" | "+=" | "-=" | "*=") {
                    for side in [&**lhs, &**rhs] {
                        if let Some(name) = slot_operand_name(side) {
                            self.info.arith.push(ArithSite {
                                op: op.clone(),
                                operand: name,
                                line: *line,
                            });
                        }
                    }
                }
            }
            Expr::Unary { operand, .. } => self.walk_expr(operand),
            Expr::Macro { name, args, line } => {
                if PANIC_MACROS.contains(&name.as_str()) {
                    self.info
                        .panics
                        .push(PanicSite { kind: PanicKind::Macro(name.clone()), line: *line });
                }
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::Match { scrutinee, arms, .. } => {
                self.walk_expr(scrutinee);
                for arm in arms {
                    self.walk_expr(&arm.body);
                }
            }
            Expr::If { cond, then_block, else_expr, .. } => {
                self.walk_expr(cond);
                self.walk_block(then_block);
                if let Some(e) = else_expr {
                    self.walk_expr(e);
                }
            }
            Expr::While { cond, body, .. } => {
                self.walk_expr(cond);
                self.walk_block(body);
            }
            Expr::ForLoop { iter, body, .. } => {
                self.walk_expr(iter);
                self.walk_block(body);
            }
            Expr::Loop { body, .. } => self.walk_block(body),
            Expr::Closure { body, .. } => self.walk_expr(body),
            Expr::BlockExpr(b) => self.walk_block(b),
            Expr::Jump { value, .. } => {
                if let Some(v) = value {
                    self.walk_expr(v);
                }
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for e in elems {
                    self.walk_expr(e);
                }
            }
            Expr::StructLit { fields, .. } => {
                for f in fields {
                    self.walk_expr(f);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(lo) = lo {
                    self.walk_expr(lo);
                }
                if let Some(hi) = hi {
                    self.walk_expr(hi);
                }
            }
            Expr::Try { operand, .. } | Expr::Cast { operand, .. } => self.walk_expr(operand),
        }
    }
}

/// Zero-argument `.lock()` / `.read()` / `.write()` — the argument
/// requirement keeps `io::Read::read(&mut buf)` / `Write::write(&buf)`
/// out of the lock analysis.
fn is_lock_method(name: &str, args: &[Expr]) -> bool {
    args.is_empty() && matches!(name, "lock" | "read" | "write")
}

/// The textual identity of a lock from an acquisition's receiver chain:
/// `self.inner.state.lock()` → `self.inner.state`.
fn receiver_path(recv: &Expr) -> String {
    match recv {
        Expr::Path { segs, .. } => segs.join("::"),
        Expr::Field { base, name, .. } => {
            let b = receiver_path(base);
            if b.is_empty() {
                name.clone()
            } else {
                format!("{b}.{name}")
            }
        }
        Expr::MethodCall { recv, name, .. } => {
            // `self.shard(i).lock()` — include the method for identity.
            let b = receiver_path(recv);
            if b.is_empty() {
                format!("{name}()")
            } else {
                format!("{b}.{name}()")
            }
        }
        Expr::Unary { operand, .. } | Expr::Try { operand, .. } | Expr::Cast { operand, .. } => {
            receiver_path(operand)
        }
        _ => String::new(),
    }
}

/// If `e` (an initializer) is a lock acquisition, the lock's identity.
/// Unwraps the usual `m.lock().unwrap()` / `m.lock().expect(..)` /
/// `m.read()?` wrappers around the acquisition itself.
fn acquisition_of(e: &Expr) -> Option<String> {
    match e {
        Expr::MethodCall { recv, name, args, .. } => {
            if is_lock_method(name, args) {
                let path = receiver_path(recv);
                if path.is_empty() {
                    None
                } else {
                    Some(path)
                }
            } else if matches!(name.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
                // `unwrap_or_else(|e| e.into_inner())` is the standard
                // poison-recovery idiom; the guard is still acquired.
                acquisition_of(recv)
            } else {
                None
            }
        }
        Expr::Try { operand, .. } => acquisition_of(operand),
        _ => None,
    }
}

/// The offending operand name for L010: a path or field whose final
/// segment names a slot/capacity quantity. Method-call results and casts
/// are excluded (a computed value is the caller's responsibility).
fn slot_operand_name(e: &Expr) -> Option<String> {
    let name = match e {
        Expr::Path { segs, .. } => segs.last()?.clone(),
        Expr::Field { name, .. } => name.clone(),
        // `*used_slots += eta` mutates the slot quantity through a
        // reference; the deref does not launder the name.
        Expr::Unary { operand, .. } => return slot_operand_name(operand),
        _ => return None,
    };
    let lower = name.to_ascii_lowercase();
    if lower.contains("slot") || lower.contains("capacit") {
        Some(name)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::manifest::Manifest;

    fn build_one(src: &str, manifest: &Manifest) -> WorkspaceModel {
        let lexed = lex(src);
        let input = FileInput {
            rel_path: "crates/x/src/lib.rs".into(),
            crate_rel: "src/lib.rs".into(),
            manifest,
            src,
            lexed: &lexed,
        };
        WorkspaceModel::build(std::slice::from_ref(&input))
    }

    fn manifest() -> Manifest {
        crate::manifest::parse_str(
            "[package]\nname = \"x\"\n[package.metadata.rush-lint]\narith-hygiene = true\n",
        )
    }

    #[test]
    fn calls_and_panics_extracted() {
        let m = manifest();
        let model = build_one(
            "pub fn a(v: &[u32]) -> u32 {\n\
                 b();\n\
                 Helper::assoc();\n\
                 let x = v.first().unwrap();\n\
                 v[0] + *x\n\
             }\n\
             fn b() { panic!(\"no\"); }\n",
            &m,
        );
        assert_eq!(model.fns.len(), 2);
        let a = &model.fns[0];
        assert!(a.calls.iter().any(|c| c.target == CallTarget::Free("b".into())));
        assert!(a
            .calls
            .iter()
            .any(|c| c.target == CallTarget::Assoc("Helper".into(), "assoc".into())));
        assert!(a.panics.iter().any(|p| p.kind == PanicKind::Unwrap));
        assert!(a
            .panics
            .iter()
            .any(|p| matches!(p.kind, PanicKind::Index { literal: true })));
        let b = &model.fns[1];
        assert!(b.panics.iter().any(|p| p.kind == PanicKind::Macro("panic".into())));
    }

    #[test]
    fn self_resolved_in_assoc_calls() {
        let m = manifest();
        let model = build_one(
            "struct S;\nimpl S {\n    fn new() -> S { Self::init() }\n    fn init() -> S { S }\n}\n",
            &m,
        );
        let new = model.fns.iter().find(|f| f.name == "new").expect("fn new");
        assert_eq!(new.self_type.as_deref(), Some("S"));
        assert!(new
            .calls
            .iter()
            .any(|c| c.target == CallTarget::Assoc("S".into(), "init".into())));
    }

    #[test]
    fn lock_order_and_held_calls() {
        let m = manifest();
        let model = build_one(
            "fn f(a: &M, b: &M, s: &mut TcpStream) {\n\
                 let ga = a.state.lock().unwrap();\n\
                 let gb = b.other.lock().unwrap();\n\
                 drop(gb);\n\
                 s.write_all(&[1]).unwrap();\n\
                 drop(ga);\n\
                 let gc = b.other.lock().unwrap();\n\
                 let _ = gc;\n\
             }\n",
            &m,
        );
        let f = &model.fns[0];
        assert!(f
            .locks
            .order_pairs
            .iter()
            .any(|(h, a, _)| h == "a.state" && a == "b.other"));
        // write_all happened after drop(gb) but while ga was held.
        assert!(f
            .locks
            .held_calls
            .iter()
            .any(|(h, c, _)| h == "a.state" && c == "write_all"));
        // gc was acquired after ga was dropped: no a.state→b.other pair
        // from that second acquisition (only the first).
        let pairs = f
            .locks
            .order_pairs
            .iter()
            .filter(|(h, a, _)| h == "a.state" && a == "b.other")
            .count();
        assert_eq!(pairs, 1);
    }

    #[test]
    fn arith_sites_extracted() {
        let m = manifest();
        let model = build_one(
            "fn g(slots: u32, used: u32) -> u32 {\n\
                 let free = slots - used;\n\
                 free\n\
             }\n",
            &m,
        );
        let g = &model.fns[0];
        assert!(g.arith.iter().any(|a| a.op == "-" && a.operand == "slots"));
    }

    #[test]
    fn test_gated_fns_marked() {
        let m = manifest();
        let model = build_one(
            "#[cfg(test)]\nmod tests {\n    fn helper() { panic!(\"t\"); }\n}\n\
             fn live() {}\n",
            &m,
        );
        let helper = model.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert!(helper.is_test);
        let live = model.fns.iter().find(|f| f.name == "live").expect("live");
        assert!(!live.is_test);
    }
}
