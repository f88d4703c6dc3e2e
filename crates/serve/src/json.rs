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

use std::fmt;

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
        let v = self.as_f64()?;
        let t = v.trunc();
        if t.total_cmp(&v).is_eq() && v >= 0.0 && v < MAX_SAFE_INT as f64 {
            Some(v as u64)
        } else {
            None
        }
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends a number the way every frame and snapshot spells it: `null`
/// for a non-finite value, else the shortest text that parses back to the
/// identical bit pattern.
pub(crate) fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's f64 Display is shortest-round-trip, and whole numbers print
    // without a fraction — both parse back to the identical bit pattern.
    let mut s = format!("{v}");
    if !s.contains(['.', 'e', 'E']) && s.parse::<i64>().is_err() {
        // Whole magnitudes beyond i64 print as a bare digit run; mark
        // them as floats.
        s.push_str(".0");
    }
    out.push_str(&s);
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value from `text`, rejecting trailing garbage.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending character.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, reason: reason.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    pos: key_pos,
                    reason: format!("duplicate object key \"{key}\""),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                            // Surrogate pair: require \uXXXX low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
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
                    });
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; copy it wholesale.
                    let s = self.bytes;
                    let mut end = self.pos;
                    while s.get(end).is_some_and(|&b| (b & 0xC0) == 0x80) {
                        end += 1;
                    }
                    match s.get(start..end).and_then(|b| std::str::from_utf8(b).ok()) {
                        Some(chunk) => out.push_str(chunk),
                        None => return Err(self.err("invalid utf-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
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

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number bytes"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
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
