//! The owned JSON value tree plus its text writer and parser.

use std::fmt;

/// A JSON number: unsigned, signed (negative), or floating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A finite float.
    Float(f64),
}

impl Number {
    /// Lossy view as `f64`.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::UInt(n) => n as f64,
            Number::Int(n) => n as f64,
            Number::Float(f) => f,
        }
    }

    /// Exact view as `u64`, when representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::UInt(n) => Some(n),
            Number::Int(n) => u64::try_from(n).ok(),
            Number::Float(f) if f.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&f) => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// Exact view as `i64`, when representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::UInt(n) => i64::try_from(n).ok(),
            Number::Int(n) => Some(n),
            Number::Float(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// An order-preserving string-keyed map (what `serde_json::Map` is with the
/// `preserve_order` feature). Keys are few per object in this workspace, so
/// lookups are linear scans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert (or replace) `key`, returning any previous value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// View as object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// View as array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// View as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// View as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// View as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// View as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// View as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True if this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if this value is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// True if this value is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// True if this value is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// True if this value is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// Object member lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Serialize to compact JSON text.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serialize to pretty JSON text (2-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }

    /// Parse JSON text. Arrays and objects may nest at most 128 levels
    /// deep; deeper input is an error.
    pub fn parse_json(text: &str) -> Result<Value, crate::Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(crate::Error::msg(format!(
                "trailing characters at offset {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

// --- writer ---

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_string(out, s),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: &Number) {
    use std::fmt::Write;
    match *n {
        Number::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip formatting; integral floats
                // keep a ".0" so the type survives a round-trip.
                if f == f.trunc() && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ---

/// How deep arrays and objects may nest in parsed JSON. The parser
/// recurses once per level, so without a bound a hostile document (a
/// request body of nothing but `[`) overflows the stack and aborts the
/// process. The deepest JSON this workspace writes or ships is 5 levels.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> crate::Error {
        crate::Error::msg(format!("{msg} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), crate::Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Parse one value nested inside `depth` arrays or objects.
    fn value(&mut self, depth: usize) -> Result<Value, crate::Error> {
        if matches!(self.peek(), Some(b'[' | b'{')) && depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_JSON_DEPTH} levels"
            )));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut m = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':'")?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    m.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(m));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, crate::Error> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, crate::Error> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("short \\u escape"))?;
        let s = std::str::from_utf8(s).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, crate::Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let text = r#"{"a":1,"b":-2,"c":3.5,"d":"x\"y","e":[true,false,null],"f":{}}"#;
        let v = Value::parse_json(text).unwrap();
        assert_eq!(v.to_json_string(), text);
    }

    #[test]
    fn float_formatting_keeps_type() {
        let v = Value::Number(Number::Float(2.0));
        assert_eq!(v.to_json_string(), "2.0");
        let back = Value::parse_json("2.0").unwrap();
        assert_eq!(back, Value::Number(Number::Float(2.0)));
    }

    #[test]
    fn unicode_escapes() {
        let v = Value::parse_json(r#""A😀""#).unwrap();
        assert_eq!(v, Value::String("A😀".to_owned()));
    }

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = Map::new();
        m.insert("z".into(), Value::Null);
        m.insert("a".into(), Value::Bool(true));
        let keys: Vec<_> = m.keys().cloned().collect();
        assert_eq!(keys, vec!["z".to_owned(), "a".to_owned()]);
    }

    #[test]
    fn pretty_printing_shape() {
        let v = Value::parse_json(r#"{"a":[1,2]}"#).unwrap();
        assert_eq!(v.to_json_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse_json("1 2").is_err());
        assert!(Value::parse_json("{").is_err());
        assert!(Value::parse_json("\"abc").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "1" + &"}".repeat(depth);
        for nested in [arrays as fn(usize) -> String, objects] {
            assert!(Value::parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
            let err = Value::parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
            assert!(err.to_string().contains("nest deeper than 128"), "{err}");
        }
        // Deep enough to overflow the stack of an unbounded parser.
        let err = Value::parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.to_string().contains("nest deeper than 128"), "{err}");
    }

    #[test]
    fn large_integers_survive() {
        let v = Value::parse_json(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Value::parse_json(&i64::MIN.to_string()).unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }
}
