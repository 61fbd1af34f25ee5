//! A minimal JSON backend over serde's data model, plus a small parser.
//!
//! The workspace vendors an offline `serde` shim (serialization half
//! only) and has no JSON crate; this module is the single shared
//! encoder behind every machine-readable artefact the workspace writes
//! (`RUN_<name>.json` manifests, `trace.json`, `scorpio-core`'s report
//! export). The [`parse`] half exists so tests can round-trip what the
//! writers produce; it accepts exactly the subset the writers emit
//! (objects, arrays, strings, finite numbers, `1e999` infinities,
//! booleans, `null`).
//!
//! Numbers are written without `core::fmt`: integers through a
//! two-digit table, finite floats through the in-tree shortest
//! round-trip formatter in `json/num.rs`, whose output is byte-identical
//! to `format!("{}", v)` for every finite `f64` (checked against `std`
//! by its oracle tests). NaN is written as `null` and `±inf` as
//! `±1e999`.

use serde::ser::{self, Serialize};

mod num;

/// Serialises any `Serialize` value to a JSON string.
///
/// # Panics
///
/// Panics on types outside the subset the workspace's records use
/// (maps with non-string keys, bytes).
///
/// ```
/// use serde::Serialize;
/// #[derive(Serialize)]
/// struct P { x: f64, name: String }
/// let json = scorpio_obs::json::to_string(&P { x: 1.5, name: "a".into() });
/// assert_eq!(json, r#"{"x":1.5,"name":"a"}"#);
/// ```
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value
        .serialize(&mut Ser { out: &mut out })
        .expect("record serialisation cannot fail");
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

fn fmt_f64(out: &mut String, v: f64) {
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

/// Serializer error (unreachable for the record types the workspace
/// serialises; required by the trait).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for Error {}
impl ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

#[derive(Debug)]
struct Ser<'a> {
    out: &'a mut String,
}

impl<'a, 'b> ser::Serializer for &'b mut Ser<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Seq<'a, 'b>;
    type SerializeTuple = Seq<'a, 'b>;
    type SerializeTupleStruct = Seq<'a, 'b>;
    type SerializeTupleVariant = Seq<'a, 'b>;
    type SerializeMap = Map<'a, 'b>;
    type SerializeStruct = Map<'a, 'b>;
    type SerializeStructVariant = Map<'a, 'b>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        num::write_i64(self.out, v);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        num::write_u64(self.out, v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        fmt_f64(self.out, v as f64);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        fmt_f64(self.out, v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), Error> {
        escape_into(self.out, v.encode_utf8(&mut [0; 4]));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, _: &[u8]) -> Result<(), Error> {
        Err(ser::Error::custom("bytes unsupported"))
    }
    fn serialize_none(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), Error> {
        v.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        escape_into(self.out, variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        v: &T,
    ) -> Result<(), Error> {
        v.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        v: &T,
    ) -> Result<(), Error> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push(':');
        v.serialize(&mut *self)?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Seq<'a, 'b>, Error> {
        self.out.push('[');
        Ok(Seq {
            ser: self,
            first: true,
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<Seq<'a, 'b>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(self, _: &'static str, len: usize) -> Result<Seq<'a, 'b>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        len: usize,
    ) -> Result<Seq<'a, 'b>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Map<'a, 'b>, Error> {
        self.out.push('{');
        Ok(Map {
            ser: self,
            first: true,
        })
    }
    fn serialize_struct(self, _: &'static str, _: usize) -> Result<Map<'a, 'b>, Error> {
        self.serialize_map(None)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Map<'a, 'b>, Error> {
        self.serialize_map(None)
    }
}

/// Sequence serializer state (implementation detail of [`to_string`]).
#[derive(Debug)]
pub struct Seq<'a, 'b> {
    ser: &'b mut Ser<'a>,
    first: bool,
}

impl ser::SerializeSeq for Seq<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
        if !self.first {
            self.ser.out.push(',');
        }
        self.first = false;
        v.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), Error> {
        self.ser.out.push(']');
        Ok(())
    }
}

macro_rules! seq_like {
    ($trait:ident, $method:ident) => {
        impl ser::$trait for Seq<'_, '_> {
            type Ok = ();
            type Error = Error;
            fn $method<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
                ser::SerializeSeq::serialize_element(self, v)
            }
            fn end(self) -> Result<(), Error> {
                ser::SerializeSeq::end(self)
            }
        }
    };
}
seq_like!(SerializeTuple, serialize_element);
seq_like!(SerializeTupleStruct, serialize_field);
seq_like!(SerializeTupleVariant, serialize_field);

/// Map/struct serializer state (implementation detail of [`to_string`]).
#[derive(Debug)]
pub struct Map<'a, 'b> {
    ser: &'b mut Ser<'a>,
    first: bool,
}

impl ser::SerializeMap for Map<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        if !self.first {
            self.ser.out.push(',');
        }
        self.first = false;
        key.serialize(&mut *self.ser)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
        self.ser.out.push(':');
        v.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), Error> {
        self.ser.out.push('}');
        Ok(())
    }
}

impl ser::SerializeStruct for Map<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        v: &T,
    ) -> Result<(), Error> {
        ser::SerializeMap::serialize_key(self, key)?;
        ser::SerializeMap::serialize_value(self, v)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeMap::end(self)
    }
}

impl ser::SerializeStructVariant for Map<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        v: &T,
    ) -> Result<(), Error> {
        ser::SerializeStruct::serialize_field(self, key, v)
    }
    fn end(self) -> Result<(), Error> {
        self.ser.out.push('}');
        Ok(())
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
        for c in ['"', '\\', '\u{1}', 'é', '🦀'] {
            assert_eq!(to_string(&c), escape_per_char(&c.to_string()));
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
