//! The workspace's JSON writer and a small parser.
//!
//! Every machine-readable artefact the workspace writes (`RUN_<name>.json`
//! manifests, the `BENCH_*.json` reports, the event JSONL, served
//! replies and `scorpio-core`'s report export) is a plain record of
//! numbers, strings, options and lists. Each record implements
//! [`WriteJson`], mostly through [`json_record!`](crate::json_record),
//! and [`to_string`] renders it. The [`parse`] half exists so tests can
//! round-trip what the writers produce; it accepts exactly the subset
//! the writers emit (objects, arrays, strings, finite numbers, `1e999`
//! infinities, booleans, `null`).
//!
//! Numbers are written without `core::fmt`: integers through a
//! two-digit table, finite floats through the in-tree shortest
//! round-trip formatter in `json/num.rs`, whose output is byte-identical
//! to `format!("{}", v)` for every finite `f64` (checked against `std`
//! by its oracle tests). NaN is written as `null` and `±inf` as
//! `±1e999`.

mod num;

/// A value that appends itself to a JSON document.
pub trait WriteJson {
    /// Appends `self` to `out` as one JSON value.
    fn write_json(&self, out: &mut String);
}

/// Implements [`WriteJson`] for a struct with named fields, writing
/// them as one object in the listed order.
///
/// The list must name every field: the expansion destructures the
/// struct without a `..` rest pattern, so a missing (or misspelled)
/// field fails to compile. See [`to_string`] for an example.
///
/// ```compile_fail
/// struct P { x: f64, name: String }
/// scorpio_obs::json_record!(P { x }); // `name` is missing
/// ```
#[macro_export]
macro_rules! json_record {
    ($name:ident { $first:ident $(, $field:ident)* $(,)? }) => {
        impl $crate::json::WriteJson for $name {
            fn write_json(&self, out: &mut String) {
                let $name { $first $(, $field)* } = self;
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::json::WriteJson::write_json($first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::json::WriteJson::write_json($field, out);
                )*
                out.push('}');
            }
        }
    };
}

/// Renders `value` as a JSON string.
///
/// ```
/// struct P { x: f64, name: String }
/// scorpio_obs::json_record!(P { x, name });
/// let json = scorpio_obs::json::to_string(&P { x: 1.5, name: "a".into() });
/// assert_eq!(json, r#"{"x":1.5,"name":"a"}"#);
/// ```
pub fn to_string<T: WriteJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Start of the run of bytes that need no escaping, copied in one
    // piece when the next escape (or the end) is reached. Every byte
    // that needs escaping is ASCII, so each cut is a char boundary.
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        num::write_u64(out, *self);
    }
}

impl WriteJson for usize {
    fn write_json(&self, out: &mut String) {
        num::write_u64(out, *self as u64);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        let v = *self;
        if v.is_finite() {
            num::write_finite_f64(out, v);
        } else if v.is_nan() {
            out.push_str("null");
        } else if v > 0.0 {
            out.push_str("1e999"); // renders as Infinity in lenient parsers
        } else {
            out.push_str("-1e999");
        }
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: WriteJson, const N: usize> WriteJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

// ───────────────────────────── parser ─────────────────────────────

/// A parsed JSON value (see [`parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also produced for serialised NaN).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (including the `±1e999` infinity spellings).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keeping key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a single line of `[`s (e.g. from
/// a socket client) would overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (trailing whitespace allowed, nothing else
/// after the value).
///
/// ```
/// use scorpio_obs::json::{parse, Value};
/// let v = parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
/// assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
/// ```
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error,
/// or of the first array/object nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u escape at {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one slice: both are ASCII, so the cut always lands
                    // on a char boundary of the `&str` input.
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        let v: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        Ok(Value::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\"y","d":null},"e":true,"é":"naïve → ✓ 🦀\n\u00e9\\"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Value::as_str),
            Some("x\"y")
        );
        assert_eq!(
            v.get("é").and_then(Value::as_str),
            Some("naïve → ✓ 🦀\n\u{e9}\\")
        );
    }

    #[test]
    fn parses_infinity_spelling() {
        let v = parse("[1e999,-1e999]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_f64(), Some(f64::INFINITY));
        assert_eq!(items[1].as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn escape_and_parse_agree() {
        let mut out = String::new();
        let s = "a\"b\\c\nd\te\u{1}ü€𝄞\"\\ end";
        escape_into(&mut out, s);
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    /// The per-char escaper `escape_into` replaced, kept as its oracle.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escape_into_matches_per_char_reference() {
        let cases = [
            "",
            "plain ascii key",
            "\"",
            "\\",
            "say \"hi\" \\ bye",
            "\u{1}",
            "\u{1f}",
            "\u{0}\u{8}\u{b}\u{c}\u{1e}",
            "\n\r\t",
            "line\nbreak\r\n\ttab",
            "naïve → ✓ 🦀",
            "ü\"€\\𝄞\n",
            "clean run \u{1}dirty\"clean again\\é\u{1f}end",
            "\u{7f}\u{80}\u{ff}\u{2028}",
        ];
        for s in cases {
            let mut out = String::new();
            escape_into(&mut out, s);
            assert_eq!(out, escape_per_char(s), "{s:?}");
        }
    }

    #[test]
    fn rejects_nesting_past_max_depth() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
    }
}
