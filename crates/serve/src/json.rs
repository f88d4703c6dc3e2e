//! A hand-rolled JSON codec for the wire protocol.
//!
//! The workspace vendors no serde, and the protocol needs *strict* framing:
//! a malformed byte must produce a located error, never a panic or a
//! silently-coerced value. This module implements exactly the JSON subset
//! RFC 8259 defines, with the following deliberate strictness choices:
//!
//! * one value per frame: trailing non-whitespace is an error;
//! * duplicate object keys are rejected (a lenient reader would silently
//!   drop half a request);
//! * nesting is capped at [`MAX_DEPTH`] so an adversarial frame cannot
//!   overflow the parser's stack;
//! * numbers must be finite JSON numbers — `NaN`/`Infinity` tokens are
//!   rejected on read and never produced on write.
//!
//! Integers round-trip exactly up to 2^53 (the `f64` mantissa); the
//! protocol never carries larger values (latencies are µs, counters are
//! event counts).
//!
//! Objects preserve insertion order (they are association lists, not hash
//! maps), so encoded frames are deterministic and snapshots diff cleanly.
//!
//! **One tokenizer.** Every JSON text the crate reads — a request or reply
//! frame, a snapshot, a `fig5` report, [`parse`] — goes through one
//! recursive-descent tokenizer. It validates the whole text and records it
//! as a flat *tape* of nodes: a scalar in place, a string as the byte span
//! between its quotes, a container as its member count and the number of
//! nodes it spans. It copies nothing. [`parse`] builds a [`Json`] tree from
//! the tape and sizes each container once; the frame and snapshot readers
//! in `wire.rs` look fields up on the tape itself. So there is one grammar
//! and one set of located errors for all of them.
//!
//! **What a frame costs.** Reading one is a single pass over its bytes into
//! a tape that frames on the same thread reuse. A string without escapes
//! is borrowed from the frame; one with escapes is copied run by run, one
//! `push_str` per escape-free run. Only the strings the decoded value keeps
//! are copied, so a `predict` frame decodes without allocating. Writing
//! appends to the caller's `Vec<u8>` (the reactor passes a connection's
//! write buffer): an integer is a digit loop, a float is Rust's
//! shortest-round-trip `Display` written in place, a string is its
//! escape-free runs copied as slices. Encoding a reply into a buffer with
//! room allocates nothing.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 64;

/// Largest integer exactly representable in a JSON number (2^53).
pub const MAX_SAFE_INT: u64 = 1 << 53;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an insertion-ordered association list.
    Obj(Vec<(String, Json)>),
}

/// A located parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from a `u64` (values at or above 2^53 saturate to
    /// 2^53 − 1, the largest integer [`Json::as_u64`] accepts back).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.min(MAX_SAFE_INT - 1) as f64)
    }

    /// Builds a number from an `f64`; non-finite values become `null`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match; parse rejects duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number that is whole,
    /// non-negative and strictly below 2^53. The bound is strict because
    /// every integer ≥ 2^53 shares its `f64` with a neighbour (2^53 + 1
    /// parses to exactly 2^53), so accepting 2^53 would silently alias
    /// rounded wire values.
    pub fn as_u64(&self) -> Option<u64> {
        exact_u64(self.as_f64()?)
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        into_text(out)
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// [`Json::as_u64`]'s rule: whole, non-negative and below 2^53.
pub(crate) fn exact_u64(v: f64) -> Option<u64> {
    let t = v.trunc();
    if t.total_cmp(&v).is_eq() && v >= 0.0 && v < MAX_SAFE_INT as f64 {
        Some(v as u64)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// The text the writers produced. They append only `&str` bytes and ASCII,
/// so the bytes are always UTF-8 and nothing is ever replaced.
pub(crate) fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Appends the decimal digits of `v`.
pub(crate) fn write_u64(mut v: u64, out: &mut Vec<u8>) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        if let Some(d) = digits.get_mut(at) {
            *d = b'0' + (v % 10) as u8;
        }
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(at..).unwrap_or_default());
}

/// Appends a number the way every frame and snapshot spells it: `null`
/// for a non-finite value, else the shortest text that parses back to the
/// identical bit pattern.
pub(crate) fn write_num(v: f64, out: &mut Vec<u8>) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    // Rust's f64 Display is shortest-round-trip, and whole numbers print
    // without a fraction — both parse back to the identical bit pattern.
    let start = out.len();
    // Appending to a Vec cannot fail.
    let _ = Bytes(out).write_fmt(format_args!("{v}"));
    if out.get(start..).is_some_and(beyond_i64) {
        // Whole magnitudes beyond i64 print as a bare digit run; mark
        // them as floats.
        out.extend_from_slice(b".0");
    }
}

/// `fmt::Write` onto a byte buffer, so `Display` writes in place.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Whether `text`, a number just written by `Display`, is a bare digit run
/// outside the `i64` range.
fn beyond_i64(text: &[u8]) -> bool {
    if text.iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        return false;
    }
    let (digits, limit): (&[u8], &[u8]) = match text.strip_prefix(b"-") {
        Some(digits) => (digits, b"9223372036854775808"),
        None => (text, b"9223372036854775807"),
    };
    // Equal-length digit runs compare as numbers.
    digits.len() > limit.len() || (digits.len() == limit.len() && digits > limit)
}

/// Appends `s` as a quoted, escaped JSON string: each run of bytes that
/// need no escape is copied as one slice.
pub(crate) fn write_escaped(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            0..=0x1F => b"",
            _ => continue,
        };
        out.extend_from_slice(bytes.get(run..i).unwrap_or_default());
        if short.is_empty() {
            let hex = |nibble: u8| HEX.get(usize::from(nibble)).copied().unwrap_or(b'0');
            out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 0xF)]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(bytes.get(run..).unwrap_or_default());
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// Reading: the tokenizer and its tape
// ---------------------------------------------------------------------------

/// One entry of a tokenized text's tape, in document order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string: the bytes between its quotes, and whether an escape
    /// occurs in them.
    Str { start: usize, end: usize, escaped: bool },
    /// An array of `len` elements, spanning `span` nodes (itself included).
    Arr { len: usize, span: usize },
    /// An object of `len` members, each a key `Str` and its value,
    /// spanning `span` nodes (itself included).
    Obj { len: usize, span: usize },
}

/// Parses one JSON value from `text`, rejecting trailing garbage.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending character.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut nodes = Vec::new();
    tokenize(text, &mut nodes)?;
    Ok(Doc { text, nodes: &nodes }.build(0))
}

/// Tokenizes one JSON value (and nothing after it) from `text` onto
/// `nodes`, replacing whatever they held.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending character.
pub(crate) fn tokenize(text: &str, nodes: &mut Vec<Node>) -> Result<(), JsonError> {
    nodes.clear();
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    p.value(nodes, 0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(())
}

/// A tokenized text: the text and its tape. The value at node `0` is the
/// whole document.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Doc<'a> {
    pub(crate) text: &'a str,
    pub(crate) nodes: &'a [Node],
}

impl<'a> Doc<'a> {
    fn node(self, at: usize) -> Option<Node> {
        self.nodes.get(at).copied()
    }

    /// The index just past the value at `at`.
    fn next(self, at: usize) -> usize {
        match self.node(at) {
            Some(Node::Arr { span, .. } | Node::Obj { span, .. }) => at + span,
            _ => at + 1,
        }
    }

    /// The first `len` members after the object head at `at`, as (key,
    /// value) indices.
    fn members(self, at: usize, len: usize) -> impl Iterator<Item = (usize, usize)> + 'a {
        let mut key = at + 1;
        (0..len).map(move |_| {
            let member = (key, key + 1);
            key = self.next(key + 1);
            member
        })
    }

    /// The elements of the array at `at`; none when `at` is not an array.
    pub(crate) fn elements(self, at: usize) -> impl Iterator<Item = usize> + 'a {
        let len = match self.node(at) {
            Some(Node::Arr { len, .. }) => len,
            _ => 0,
        };
        let mut el = at + 1;
        (0..len).map(move |_| {
            let this = el;
            el = self.next(el);
            this
        })
    }

    /// The value of member `key` of the object at `at`; none when `at` is
    /// not an object or has no such member.
    pub(crate) fn member(self, at: usize, key: &str) -> Option<usize> {
        let Some(Node::Obj { len, .. }) = self.node(at) else { return None };
        self.members(at, len).find(|&(k, _)| self.str_is(k, key)).map(|(_, v)| v)
    }

    /// Whether the value at `at` is the string `s`.
    fn str_is(self, at: usize, s: &str) -> bool {
        match self.node(at) {
            Some(Node::Str { start, end, escaped: false }) => {
                self.text.as_bytes().get(start..end) == Some(s.as_bytes())
            }
            Some(Node::Str { .. }) => self.str(at).as_deref() == Some(s),
            _ => false,
        }
    }

    /// The string at `at`: borrowed from the text unless it has escapes.
    pub(crate) fn str(self, at: usize) -> Option<Cow<'a, str>> {
        let Some(Node::Str { start, end, escaped }) = self.node(at) else { return None };
        if !escaped {
            return self.text.get(start..end).map(Cow::Borrowed);
        }
        let mut out = String::with_capacity(end - start);
        // Re-read from the opening quote; the tokenizer already accepted it.
        let mut p = Parser { text: self.text, pos: start.saturating_sub(1) };
        p.string(Some(&mut out)).ok()?;
        Some(Cow::Owned(out))
    }

    /// The number at `at`.
    pub(crate) fn num(self, at: usize) -> Option<f64> {
        match self.node(at) {
            Some(Node::Num(v)) => Some(v),
            _ => None,
        }
    }

    /// The bool at `at`.
    pub(crate) fn boolean(self, at: usize) -> Option<bool> {
        match self.node(at) {
            Some(Node::Bool(b)) => Some(b),
            _ => None,
        }
    }

    /// Whether the value at `at` is `null`.
    pub(crate) fn is_null(self, at: usize) -> bool {
        matches!(self.node(at), Some(Node::Null))
    }

    /// Whether the value at `at` is an array.
    pub(crate) fn is_arr(self, at: usize) -> bool {
        matches!(self.node(at), Some(Node::Arr { .. }))
    }

    /// Whether the value at `at` is an object.
    pub(crate) fn is_obj(self, at: usize) -> bool {
        matches!(self.node(at), Some(Node::Obj { .. }))
    }

    /// The value at `at` as a [`Json`] tree, each container sized once.
    fn build(self, at: usize) -> Json {
        match self.node(at) {
            Some(Node::Bool(b)) => Json::Bool(b),
            Some(Node::Num(v)) => Json::Num(v),
            Some(Node::Str { .. }) => {
                Json::Str(self.str(at).map(Cow::into_owned).unwrap_or_default())
            }
            Some(Node::Arr { .. }) => {
                Json::Arr(self.elements(at).map(|el| self.build(el)).collect())
            }
            Some(Node::Obj { len, .. }) => Json::Obj(
                self.members(at, len)
                    .map(|(k, v)| {
                        (self.str(k).map(Cow::into_owned).unwrap_or_default(), self.build(v))
                    })
                    .collect(),
            ),
            Some(Node::Null) | None => Json::Null,
        }
    }
}

/// The tokenizer's cursor. The string scanner also serves
/// [`Doc::str`], which re-reads an escaped string to decode it.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, reason: reason.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Node) -> Result<Node, JsonError> {
        if self.text.get(self.pos..).is_some_and(|rest| rest.starts_with(word)) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, nodes: &mut Vec<Node>, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let node = match self.peek() {
            Some(b'n') => self.literal("null", Node::Null)?,
            Some(b't') => self.literal("true", Node::Bool(true))?,
            Some(b'f') => self.literal("false", Node::Bool(false))?,
            Some(b'"') => self.string_node()?,
            Some(b'[') => return self.array(nodes, depth),
            Some(b'{') => return self.object(nodes, depth),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(c) => return Err(self.err(format!("unexpected character '{}'", c as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        nodes.push(node);
        Ok(())
    }

    /// Writes a container's head once its last member is on the tape.
    fn close(nodes: &mut [Node], head: usize, node: impl FnOnce(usize) -> Node) {
        let span = nodes.len() - head;
        if let Some(slot) = nodes.get_mut(head) {
            *slot = node(span);
        }
    }

    fn array(&mut self, nodes: &mut Vec<Node>, depth: usize) -> Result<(), JsonError> {
        self.eat(b'[')?;
        let head = nodes.len();
        nodes.push(Node::Arr { len: 0, span: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                self.value(nodes, depth + 1)?;
                len += 1;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => break,
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err("expected ',' or ']' in array"));
                    }
                }
            }
        }
        Self::close(nodes, head, |span| Node::Arr { len, span });
        Ok(())
    }

    fn object(&mut self, nodes: &mut Vec<Node>, depth: usize) -> Result<(), JsonError> {
        self.eat(b'{')?;
        let head = nodes.len();
        nodes.push(Node::Obj { len: 0, span: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key_pos = self.pos;
                nodes.push(self.string_node()?);
                let doc = Doc { text: self.text, nodes };
                let key = nodes.len() - 1;
                let key_text = doc.str(key).unwrap_or_default();
                if doc.members(head, len).any(|(k, _)| doc.str_is(k, &key_text)) {
                    return Err(JsonError {
                        pos: key_pos,
                        reason: format!("duplicate object key \"{key_text}\""),
                    });
                }
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                self.value(nodes, depth + 1)?;
                len += 1;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err("expected ',' or '}' in object"));
                    }
                }
            }
        }
        Self::close(nodes, head, |span| Node::Obj { len, span });
        Ok(())
    }

    fn string_node(&mut self) -> Result<Node, JsonError> {
        let start = self.pos + 1;
        let escaped = self.string(None)?;
        Ok(Node::Str { start, end: self.pos - 1, escaped })
    }

    /// Reads one string from its opening quote through its closing one,
    /// decoding it into `out` when one is given. Returns whether it held
    /// an escape.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<bool, JsonError> {
        self.eat(b'"')?;
        let mut escaped = false;
        loop {
            // The run of bytes that stand for themselves; it ends at an
            // ASCII byte or the end of the text, so on a char boundary.
            let run = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push_str(self.text.get(run..self.pos).unwrap_or_default());
            }
            let start = self.pos;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(escaped),
                Some(b'\\') => {
                    escaped = true;
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                Some(_) => {
                    return Err(JsonError {
                        pos: start,
                        reason: "unescaped control character in string".into(),
                    });
                }
            }
        }
    }

    /// The character an escape stands for; the backslash is behind.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require \uXXXX low half.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("lone high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                } else if (0xDC00..0xE000).contains(&hi) {
                    None
                } else {
                    char::from_u32(hi)
                };
                c.ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Node, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            self.digits();
        }
        let text =
            self.text.get(start..self.pos).ok_or_else(|| self.err("invalid number bytes"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Node::Num(v)),
            _ => Err(JsonError { pos: start, reason: format!("number out of range: {text}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.encode();
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse {text}: {e}"));
        assert_eq!(*v, back, "{text}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(1e-9),
            Json::Num(6.02e23),
            Json::u64(9_007_199_254_740_992),
            Json::str(""),
            Json::str("plain"),
            Json::str("esc \" \\ \n \t \u{08} \u{0C} \r"),
            Json::str("unicode: caña 木 🚀 \u{1}"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = Json::Obj(vec![
            ("v".into(), Json::u64(1)),
            ("op".into(), Json::str("submit")),
            ("args".into(), Json::Arr(vec![Json::Num(1.25), Json::Null, Json::Bool(true)])),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Arr(vec![]))])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn parses_whitespace_liberally() {
        let v = parse(" {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse("{} x").unwrap_err();
        assert!(e.reason.contains("trailing"), "{e}");
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in ["01", "1.", ".5", "1e", "+-3", "--1", "1e+", "NaN", "Infinity", "0x10"] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
        // Overflowing literals are rejected rather than becoming inf.
        assert!(parse("1e999").is_err());
    }

    #[test]
    fn rejects_malformed_strings() {
        for bad in [r#"""#, r#""\x""#, r#""\u12"#, r#""\ud800""#, r#""\ud800A""#, "\"\u{1}\""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Valid surrogate pair decodes.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let e = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(e.reason.contains("duplicate"), "{e}");
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert!(e.reason.contains("deep"), "{e}");
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let e = parse(r#"{"ok": tru}"#).unwrap_err();
        assert_eq!(e.pos, 7);
        let e = parse("[1,, 2]").unwrap_err();
        assert_eq!(e.pos, 3);
    }

    #[test]
    fn accessors_are_typed() {
        let v = parse(r#"{"n": 3, "f": 2.5, "s": "x", "b": false, "a": [1], "neg": -1}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY), Json::Null);
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }
}

/// The codec against compact copies of the writer and string reader it
/// replaced (`format!` then an `i64` reparse for numbers, a byte-at-a-time
/// string reader): the same bytes out, the same values or located errors
/// back.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;

    fn reference_num(v: f64) -> String {
        if !v.is_finite() {
            return "null".into();
        }
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) && s.parse::<i64>().is_err() {
            s.push_str(".0");
        }
        s
    }

    /// `parse` of a text that opens with a quote, as the old reader did it.
    fn reference_parse_string(text: &str) -> Result<Json, JsonError> {
        struct P<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl P<'_> {
            fn err(&self, reason: &str) -> JsonError {
                JsonError { pos: self.pos, reason: reason.into() }
            }
            fn bump(&mut self) -> Option<u8> {
                let b = self.bytes.get(self.pos).copied()?;
                self.pos += 1;
                Some(b)
            }
            fn hex4(&mut self) -> Result<u32, JsonError> {
                let mut v = 0;
                for _ in 0..4 {
                    let d = match self.bump() {
                        Some(b) if b.is_ascii_hexdigit() => (b as char).to_digit(16).unwrap(),
                        _ => return Err(self.err("expected 4 hex digits")),
                    };
                    v = (v << 4) | d;
                }
                Ok(v)
            }
            fn string(&mut self) -> Result<String, JsonError> {
                if self.bump() != Some(b'"') {
                    return Err(self.err("expected '\"'"));
                }
                let mut out = String::new();
                loop {
                    let start = self.pos;
                    match self.bump() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => return Ok(out),
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{08}'),
                            Some(b'f') => out.push('\u{0C}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hi = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                } else if (0xDC00..0xE000).contains(&hi) {
                                    None
                                } else {
                                    char::from_u32(hi)
                                };
                                match c {
                                    Some(c) => out.push(c),
                                    None => return Err(self.err("invalid \\u escape")),
                                }
                            }
                            _ => return Err(self.err("invalid escape")),
                        },
                        Some(b) if b < 0x20 => {
                            return Err(JsonError {
                                pos: start,
                                reason: "unescaped control character in string".into(),
                            })
                        }
                        Some(b) if b < 0x80 => out.push(b as char),
                        Some(_) => {
                            let mut end = self.pos;
                            while self.bytes.get(end).is_some_and(|&b| (b & 0xC0) == 0x80) {
                                end += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                            self.pos = end;
                        }
                    }
                }
            }
        }
        let mut p = P { bytes: text.as_bytes(), pos: 0 };
        let s = p.string()?;
        while matches!(p.bytes.get(p.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            p.pos += 1;
        }
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(Json::Str(s))
    }

    fn written(v: f64) -> String {
        let mut out = Vec::new();
        write_num(v, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// Bit patterns of every kind: any at all, subnormals, whole numbers
    /// around 2^53, around and past `i64::MAX`, and powers of two.
    fn floats() -> impl Strategy<Value = f64> {
        let near = |x: f64| (0u64..4096).prop_map(move |k| f64::from_bits(x.to_bits() - 2048 + k));
        prop_oneof![
            (0u64..=u64::MAX).prop_map(f64::from_bits),
            (0u64..(1 << 52)).prop_map(|b| f64::from_bits(b | ((b & 1) << 63))),
            Just(-0.0),
            (0u64..4096).prop_map(|k| ((1u64 << 53) - 2048 + k) as f64),
            (0u64..4096).prop_map(|k| -(((1u64 << 53) - 2048 + k) as f64)),
            near(9_223_372_036_854_775_808.0),
            near(-9_223_372_036_854_775_808.0),
            (0i32..1024).prop_map(|e| 2f64.powi(e)),
            (0i32..1024).prop_map(|e| -(2f64.powi(e))),
        ]
    }

    /// Pieces of a string body: plain and multi-byte characters, control
    /// bytes, every escape, surrogate pairs, lone and broken surrogates,
    /// broken escapes and a stray quote.
    fn piece() -> impl Strategy<Value = String> {
        let fixed = |s: &'static str| Just(s).prop_map(String::from);
        prop_oneof![
            (0x20u32..0x7F).prop_map(|c| char::from_u32(c).unwrap().to_string()),
            (0x80u32..0x11_0000)
                .prop_filter("a scalar value", |&c| char::from_u32(c).is_some())
                .prop_map(|c| char::from_u32(c).unwrap().to_string()),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap().to_string()),
            fixed("plain run of text"),
            fixed("caña 木 🚀"),
            fixed("\\\""),
            fixed("\\\\"),
            fixed("\\/"),
            fixed("\\b\\f\\n\\r\\t"),
            (0u32..0x1_0000).prop_map(|u| format!("\\u{u:04x}")),
            (0u32..0x1_0000).prop_map(|u| format!("\\u{u:04X}")),
            (0xD800u32..0xDC00, 0xDC00u32..0xE000)
                .prop_map(|(h, l)| format!("\\u{h:04x}\\u{l:04x}")),
            (0xD800u32..0xE000).prop_map(|u| format!("\\u{u:04x}")),
            (0xD800u32..0xDC00).prop_map(|u| format!("\\u{u:04x}\\n")),
            (0xD800u32..0xDC00).prop_map(|u| format!("\\u{u:04x}\\u0041")),
            fixed("\\u12"),
            fixed("\\x"),
            fixed("\\"),
            fixed("\""),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn numbers_write_as_before_and_read_back_bit_identical(v in floats()) {
            let text = written(v);
            prop_assert_eq!(&text, &reference_num(v));
            if v.is_finite() {
                let back = parse(&text).unwrap().as_f64().unwrap();
                prop_assert_eq!(back.to_bits(), v.to_bits(), "{}", text);
            }
        }

        #[test]
        fn strings_read_as_before(
            pieces in prop::collection::vec(piece(), 0..10),
            close in prop_oneof![Just("\""), Just(""), Just("\" "), Just("\"x")],
        ) {
            let text = format!("\"{}{close}", pieces.concat());
            let got = parse(&text);
            prop_assert_eq!(&got, &reference_parse_string(&text), "{:?}", text);
            if let Ok(v) = got {
                prop_assert_eq!(parse(&v.encode()).unwrap(), v);
            }
        }
    }
}
