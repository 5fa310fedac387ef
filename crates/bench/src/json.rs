//! Minimal JSON document model for the `bench-results/` output files.
//!
//! The workspace builds offline, so instead of an external serializer this
//! module provides the small slice of functionality the experiment binaries
//! need: a [`Value`] tree with an insertion-ordered [`Map`], the [`json!`]
//! constructor macro, a pretty printer, and a parser ([`from_str`]) so
//! binaries can reuse previously written result files (e.g. Fig. 4 consuming
//! the Table II run).

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like `serde_json`'s arbitrary
    /// precision off mode).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with keys kept in insertion order, so written files diff
    /// cleanly between runs.
    Object(Map),
}

/// Insertion-ordered string → [`Value`] map backing [`Value::Object`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts `value` under `key`, replacing (in place) any existing entry.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for entry in &mut self.entries {
            if entry.0 == key {
                return Some(std::mem::replace(&mut entry.1, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl Value {
    /// Returns the array elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object map if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
        impl From<&$t> for Value {
            fn from(n: &$t) -> Self {
                Value::Num(*n as f64)
            }
        })*
    };
}
impl_from_num!(f64, f32, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(s.clone())
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&Vec<T>> for Value {
    fn from(v: &Vec<T>) -> Self {
        Value::from(v.as_slice())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Builds a [`Value`] from a literal-ish expression.
///
/// Supported forms: `json!(null)`, `json!([e0, e1, …])` (each element an
/// expression convertible to [`Value`]), `json!({"key": expr, …})` and
/// `json!(expr)` for any `expr: Into<Value>`. Nest objects by nesting the
/// macro: `json!({"outer": json!({"inner": 1})})`.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::json::Value::Null
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Value::Array(vec![ $( $crate::json::Value::from($elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::Map::new();
        $( map.insert($key.to_string(), $crate::json::Value::from($val)); )*
        $crate::json::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::json::Value::from($other)
    };
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/∞; follow serde_json and emit null
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn pretty_into(out: &mut String, value: &Value, indent: usize) {
    const STEP: usize = 2;
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                pretty_into(out, item, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                escape_into(out, k);
                out.push_str(": ");
                pretty_into(out, v, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-prints `value` with two-space indentation (no trailing newline).
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    pretty_into(&mut out, value, 0);
    out
}

/// Error from [`from_str`], carrying a message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a hostile document overflow
/// the stack; every file this workspace writes nests far less deeply.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError { message: message.to_string(), offset: self.pos })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", expected as char))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            self.err(&format!("expected '{kw}'"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|_| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { message: "invalid utf-8".into(), offset: start })?;
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("invalid number"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // surrogate pairs: \uD800-\uDBFF must be
                            // followed by a low surrogate escape
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                            // hex4 leaves pos on the byte after the digits
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy a full UTF-8 scalar
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| ParseError { message: "invalid utf-8".into(), offset: self.pos })?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| ParseError { message: "invalid utf-8".into(), offset: self.pos })?;
        match u32::from_str_radix(text, 16) {
            Ok(n) => {
                self.pos += 4;
                Ok(n)
            }
            Err(_) => self.err("invalid \\u escape"),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed input, trailing garbage, or arrays
/// and objects nested more than [`MAX_DEPTH`] deep.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing characters");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_scalars_arrays_objects() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(1.5f32), Value::Num(1.5));
        assert_eq!(json!("hi"), Value::Str("hi".into()));
        assert_eq!(
            json!([1, 2, 3]),
            Value::Array(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)])
        );
        let obj = json!({"a": 1, "b": json!([true]), "c": json!({"d": "x"})});
        assert_eq!(obj.get("a").and_then(Value::as_f64), Some(1.0));
        assert_eq!(obj.get("b").and_then(Value::as_array).map(Vec::len), Some(1));
        assert_eq!(obj.get("c").and_then(|c| c.get("d")).and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut map = Map::new();
        map.insert("z".into(), json!(1));
        map.insert("a".into(), json!(2));
        assert_eq!(map.insert("z".into(), json!(3)), Some(Value::Num(1.0)));
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
        assert_eq!(map.get("z"), Some(&Value::Num(3.0)));
    }

    #[test]
    fn pretty_printer_formats_documents() {
        let v = json!({"name": "run", "points": json!([1, 2.5]), "empty": json!([])});
        let text = to_string_pretty(&v);
        assert_eq!(
            text,
            "{\n  \"name\": \"run\",\n  \"points\": [\n    1,\n    2.5\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn integers_print_without_decimal_point() {
        let mut s = String::new();
        write_num(&mut s, 42.0);
        assert_eq!(s, "42");
        s.clear();
        write_num(&mut s, -0.125);
        assert_eq!(s, "-0.125");
        s.clear();
        write_num(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let v = json!({"s": "line\n\"quote\"\t\\"});
        let text = to_string_pretty(&v);
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parser_roundtrips_pretty_output() {
        let v = json!({
            "a": 1,
            "b": json!([json!({"x": -2.5}), json!(null), json!(false)]),
            "c": "text",
        });
        let back = from_str(&to_string_pretty(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = from_str(r#" { "k" : [ 1e3, -0.5, true, null, "A😀" ] } "#)
            .unwrap();
        let arr = v.get("k").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0], Value::Num(1000.0));
        assert_eq!(arr[1], Value::Num(-0.5));
        assert_eq!(arr[4], Value::Str("A😀".into()));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"unterminated").is_err());
    }

    #[test]
    fn parser_rejects_hostile_nesting_without_overflowing_the_stack() {
        for open in ["[", "{\"k\":"] {
            let err = from_str(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // exactly MAX_DEPTH levels still parse
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(from_str(&deeper).is_err());
    }
}
