//! Lightweight AST for the deep lint rules (RUSH-L009 … RUSH-L013).
//!
//! The tree is deliberately smaller than a compiler AST: types, generics,
//! visibility and attribute bodies are *skipped* during parsing, because no
//! deep rule needs them. What survives is exactly what the analyses read:
//! item structure (functions, impls, modules, enums), expression structure
//! (calls, method calls, indexing, arithmetic, matches with their arm
//! patterns, blocks and bindings), and 1-based line numbers for findings.

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// One item. Items the analyses never look into parse to [`Item::Skipped`].
#[derive(Debug)]
pub enum Item {
    /// A function (free, method, or associated).
    Fn(Function),
    /// An `impl` block with the items inside it.
    Impl(ImplBlock),
    /// An inline module with the items inside it.
    Mod(Module),
    /// An `enum` definition.
    Enum(EnumDef),
    /// Anything else: structs, traits are parsed for their methods, but
    /// uses, type aliases, consts, macros etc. carry no analysis payload.
    Skipped,
}

/// A function item.
#[derive(Debug)]
pub struct Function {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Directly test-gated (`#[test]` / `#[cfg(test)]` on the item itself).
    pub is_test: bool,
    /// The body; `None` for trait/extern signatures.
    pub body: Option<Block>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// Last path segment of the self type (`Foo` in `impl Trait for Foo`).
    pub self_type: String,
    /// Test-gated via `#[cfg(test)]` on the block.
    pub is_test: bool,
    /// Items inside the block (methods and associated items).
    pub items: Vec<Item>,
}

/// An inline `mod name { ... }`.
#[derive(Debug)]
pub struct Module {
    /// The module name.
    pub name: String,
    /// Test-gated via `#[cfg(test)]` (the usual `mod tests`).
    pub is_test: bool,
    /// Items inside the module.
    pub items: Vec<Item>,
}

/// An `enum` definition.
#[derive(Debug)]
pub struct EnumDef {
    /// The enum name.
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// Test-gated definition.
    pub is_test: bool,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] name [: ty] = init [else { ... }];`
    Let {
        /// The bound name when the pattern is a plain (possibly `mut`)
        /// identifier; `None` for destructuring patterns.
        name: Option<String>,
        /// The initializer, when present.
        init: Option<Expr>,
        /// The `else` block of a `let ... else`.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// A nested item (functions and modules declared inside bodies).
    Item(Box<Item>),
}

/// One expression. Line numbers point at the most useful token for a
/// finding (the operator, the method name, the opening bracket, ...).
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (a single identifier is a one-segment path).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Line of the first segment.
        line: u32,
    },
    /// Any literal token.
    Lit {
        /// Line of the literal.
        line: u32,
        /// True when the literal is an integer.
        is_int: bool,
    },
    /// `callee(args)`.
    Call {
        /// The callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Line of the opening parenthesis.
        line: u32,
    },
    /// `recv.name(args)`.
    MethodCall {
        /// The receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
    },
    /// `base.name` (also tuple fields: `t.0`).
    Field {
        /// The base expression.
        base: Box<Expr>,
        /// Field name (or tuple index as text).
        name: String,
        /// Line of the field name.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
        /// Line of the `[`.
        line: u32,
    },
    /// `lhs op rhs` — includes assignments (`=`, `+=`, ...) for uniformity.
    Binary {
        /// Operator text (`+`, `-`, `*`, `==`, `+=`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Line of the operator.
        line: u32,
    },
    /// `op operand` (`!x`, `-x`, `*x`, `&x`).
    Unary {
        /// Operator text.
        op: String,
        /// The operand.
        operand: Box<Expr>,
        /// Line of the operator.
        line: u32,
    },
    /// `name!(args)` / `name![args]`; `name!{...}` bodies are skipped.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Arguments, parsed leniently as expressions.
        args: Vec<Expr>,
        /// Line of the macro name.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
        /// Line of the `match` keyword.
        line: u32,
    },
    /// `if cond { .. } [else ..]` (`if let` conditions keep only the
    /// scrutinee expression).
    If {
        /// The condition (or `if let` scrutinee).
        cond: Box<Expr>,
        /// The then-block.
        then_block: Block,
        /// The else expression (a block or another `if`).
        else_expr: Option<Box<Expr>>,
        /// Line of the `if`.
        line: u32,
    },
    /// `while cond { .. }` (`while let` keeps the scrutinee).
    While {
        /// The condition.
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the `while`.
        line: u32,
    },
    /// `for pat in iter { .. }` (the pattern is skipped).
    ForLoop {
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the `for`.
        line: u32,
    },
    /// `loop { .. }`.
    Loop {
        /// The loop body.
        body: Block,
        /// Line of the `loop`.
        line: u32,
    },
    /// A closure; parameters are skipped, the body is kept.
    Closure {
        /// The closure body.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: u32,
    },
    /// A block used as an expression (also `unsafe { .. }`).
    BlockExpr(Block),
    /// `return` / `break` / `continue`, with an optional value.
    Jump {
        /// The jumped value, when present.
        value: Option<Box<Expr>>,
        /// Line of the keyword.
        line: u32,
    },
    /// `(a, b, ...)` — a 1-tuple without trailing comma is unwrapped to
    /// its inner expression by the parser.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// Line of the `(`.
        line: u32,
    },
    /// `[a, b]` / `[x; n]`.
    Array {
        /// Elements (for `[x; n]`: the element and the length).
        elems: Vec<Expr>,
        /// Line of the `[`.
        line: u32,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Path segments of the struct name.
        segs: Vec<String>,
        /// Field value expressions (plus the functional-update base).
        fields: Vec<Expr>,
        /// Line of the path.
        line: u32,
    },
    /// `lo..hi` / `lo..=hi` with either side optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// Line of the `..`.
        line: u32,
    },
    /// `operand?`.
    Try {
        /// The questioned expression.
        operand: Box<Expr>,
        /// Line of the `?`.
        line: u32,
    },
    /// `operand as Type` (the type is skipped).
    Cast {
        /// The cast expression.
        operand: Box<Expr>,
        /// Line of the `as`.
        line: u32,
    },
    /// A token the parser could not interpret, consumed for progress.
    Unknown {
        /// Line of the token.
        line: u32,
    },
}

impl Expr {
    /// The line a finding about this expression should point at.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Match { line, .. }
            | Expr::If { line, .. }
            | Expr::While { line, .. }
            | Expr::ForLoop { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Jump { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Range { line, .. }
            | Expr::Try { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Unknown { line } => *line,
            Expr::BlockExpr(b) => b.stmts.first().map_or(0, |s| match s {
                Stmt::Let { line, .. } => *line,
                Stmt::Expr(e) => e.line(),
                Stmt::Item(_) => 0,
            }),
        }
    }
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// The (classified) pattern.
    pub pat: Pat,
    /// The arm body.
    pub body: Expr,
    /// 1-based line of the pattern.
    pub line: u32,
}

/// A classified match-arm pattern. The deep rules only need to know the
/// *shape* of the top-level pattern, not its full structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pat {
    /// The `_` wildcard (alone, possibly or-ed with nothing else).
    Wild,
    /// A bare (possibly `ref`/`mut`) identifier binding like `other`.
    Binding(String),
    /// One or more `A::B`-style paths (or-patterns record every path).
    /// Each path is its segment list; fields/payloads are not recorded.
    Variants(Vec<Vec<String>>),
    /// Anything else: literals, tuples, slices, structs, ranges, ...
    Other,
}
