//! The suite's one canonical JSON surface: minimal dependency-free
//! encoding helpers **and** the matching parser.
//!
//! Every JSON-emitting corner of the suite — `t-dat --json` reports,
//! the monitor's JSONL event stream, the bench runner's `BENCH_*.json`
//! files — encodes through these helpers, and every consumer (most
//! importantly `tdat-store` ingest) parses through [`parse`], so there
//! is exactly one wire format to keep stable. The format is fixed:
//! strings escape `\`, `"`, and all control characters below `0x20`
//! (`\n`/`\r`/`\t` by name, the rest as `\u00XX` — the parser rejects
//! raw control bytes, and a raw newline would split a JSONL line),
//! numbers print with six decimal places, and non-finite numbers
//! encode as `null`.
//!
//! Historically these helpers lived in `tdat::report::json` (which
//! still re-exports this module) and were one copy-paste away from
//! forking per emitter; they are now a crate-level module so new
//! surfaces have no reason to grow their own.

use std::collections::HashMap;
use std::fmt::{self, Write};

/// Escapes `\`, `"`, and control characters for embedding in a JSON
/// string. Control characters must be escaped: [`parse`] (like any
/// strict JSON parser) rejects raw bytes below `0x20`, and a raw
/// newline would split a JSONL line in two.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// Appends `s` escaped as [`escape`] does, without a temporary.
pub fn write_escaped(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so a run between two of
    // them is whole UTF-8.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'\\' | b'"' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'\\' => out.push_str("\\\\"),
            b'"' => out.push_str("\\\""),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Formats a number with fixed six-decimal precision (`null` if
/// non-finite), keeping emitted JSON byte-stable.
pub fn fmt_num(v: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, v);
    out
}

/// Appends `v` formatted as [`fmt_num`] does, without a temporary.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

/// Appends `"key":`, preceded by a comma if `comma`.
fn push_key(out: &mut String, key: &str, comma: bool) {
    if comma {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `"key":"value"` (escaped), preceded by a comma if
/// `comma`.
pub fn push_str_field(out: &mut String, key: &str, value: &str, comma: bool) {
    push_key(out, key, comma);
    out.push('"');
    write_escaped(out, value);
    out.push('"');
}

/// Appends `"key":1.234567`, preceded by a comma if `comma`.
pub fn push_num_field(out: &mut String, key: &str, value: f64, comma: bool) {
    push_key(out, key, comma);
    write_num(out, value);
}

/// Appends `"key":<raw>` verbatim (caller guarantees `raw` displays as
/// valid JSON — an integer, `true`, `null`, an encoded value),
/// preceded by a comma if `comma`.
pub fn push_raw_field(out: &mut String, key: &str, raw: impl fmt::Display, comma: bool) {
    push_key(out, key, comma);
    let _ = write!(out, "{raw}");
}

/// Appends `"key":["a","b",…]` (each element escaped), preceded by
/// a comma if `comma`.
pub fn push_str_array_field<S: AsRef<str>>(out: &mut String, key: &str, values: &[S], comma: bool) {
    push_key(out, key, comma);
    out.push('[');
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        write_escaped(out, value.as_ref());
        out.push('"');
    }
    out.push(']');
}

/// A parsed JSON value.
///
/// Objects preserve field order (emission order is part of the
/// canonical format) and additionally carry an index for O(1) key
/// lookup via [`get`](JsonValue::get).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; the canonical encoders never
    /// emit integers beyond 2^53.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(JsonObject),
}

/// An object's fields, in source order, with an O(1) lookup index.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
    index: HashMap<String, usize>,
}

impl PartialEq for JsonObject {
    fn eq(&self, other: &JsonObject) -> bool {
        self.fields == other.fields
    }
}

impl JsonObject {
    /// The field with this key, if present (last one wins on duplicate
    /// keys, mirroring common JSON semantics).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.index.get(key).map(|&i| &self.fields[i].1)
    }

    /// The fields in source order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    fn insert(&mut self, key: String, value: JsonValue) {
        match self.index.get(&key) {
            Some(&i) => self.fields[i].1 = value,
            None => {
                self.index.insert(key.clone(), self.fields.len());
                self.fields.push((key, value));
            }
        }
    }
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(o) => o.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact non-negative integral value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// True if this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A parse failure: what went wrong and the byte offset it went wrong
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub detail: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value, rejecting trailing garbage.
///
/// Handles the full escape set (`\\ \" \/ \b \f \n \r \t \uXXXX`),
/// a superset of what the canonical encoder emits, so externally
/// produced files ingest too.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input.
///
/// # Examples
///
/// ```
/// use tdat::json::{parse, JsonValue};
///
/// let v = parse(r#"{"peer":"10.0.0.1","ratio":0.25,"tags":["a"]}"#).unwrap();
/// assert_eq!(v.get("peer").and_then(JsonValue::as_str), Some("10.0.0.1"));
/// assert_eq!(v.get("ratio").and_then(JsonValue::as_f64), Some(0.25));
/// ```
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &str) -> ParseError {
        ParseError {
            detail: detail.to_string(),
            at: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut obj = JsonObject::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            obj.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Obj(obj));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        let mut run = self.at;
        loop {
            match self.peek() {
                Some(b'"') => {
                    out.push_str(self.str_slice(run, self.at)?);
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.str_slice(run, self.at)?);
                    self.at += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.at += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not worth supporting:
                            // the canonical encoder never emits \u at
                            // all. Reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate escape"))?;
                            out.push(c);
                            run = self.at;
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    out.push(escaped);
                    self.at += 1;
                    run = self.at;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.at += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn str_slice(&self, from: usize, to: usize) -> Result<&'a str, ParseError> {
        std::str::from_utf8(&self.bytes[from..to]).map_err(|_| ParseError {
            detail: "invalid UTF-8 in string".to_string(),
            at: from,
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + d;
            self.at += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = self.str_slice(start, self.at)?;
        let n: f64 = text.parse().map_err(|_| ParseError {
            detail: format!("invalid number {text:?}"),
            at: start,
        })?;
        Ok(JsonValue::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d").and_then(JsonValue::as_str),
            Some("e")
        );
    }

    #[test]
    fn object_preserves_field_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let JsonValue::Obj(obj) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = obj.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn unescapes_the_canonical_and_standard_sets() {
        let v = parse(r#""a\\b\"c\n\tA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\\b\"c\n\tA"));
    }

    #[test]
    fn escape_then_parse_round_trips() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "both\\\"x",
            "",
            "line\nbreak",
            "cr\rlf\n",
            "tab\tstop",
            "bell\u{7}null\u{0}esc\u{1b}",
            "mixed\n\"quote\"\\\t\u{1}",
        ] {
            let encoded = format!("\"{}\"", escape(s));
            assert_eq!(parse(&encoded).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn escaped_control_characters_stay_on_one_line() {
        let encoded = escape("a\nb\tc\u{1}d");
        assert_eq!(encoded, "a\\nb\\tc\\u0001d");
        assert!(!encoded.bytes().any(|b| b < 0x20));
    }

    #[test]
    fn fmt_num_then_parse_round_trips_to_six_decimals() {
        for v in [0.0, 1.5, -2.25, 198.0, 0.123456, 1e9] {
            let parsed = parse(&fmt_num(v)).unwrap().as_f64().unwrap();
            assert_eq!(fmt_num(parsed), fmt_num(v), "{v}");
        }
        assert_eq!(parse(&fmt_num(f64::NAN)).unwrap(), JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\"}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn as_u64_requires_exact_non_negative_integers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(2.0));
        let JsonValue::Obj(obj) = v else {
            panic!("not an object")
        };
        assert_eq!(obj.fields().len(), 1);
    }
}
