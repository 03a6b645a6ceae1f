//! Offline stand-in for the real `serde_json` crate.
//!
//! Renders the stub `serde::Value` tree as JSON text and parses JSON text
//! back into a [`Value`] tree ([`from_str`]). Output is fully
//! deterministic: object keys keep insertion order (struct declaration
//! order), floats render via Rust's shortest-roundtrip formatting, and
//! non-finite floats render as `null` (matching serde_json's lossy modes).
//! Parsing preserves object key order, so a parse → serialize roundtrip of
//! stub-produced JSON is byte-identical.

use serde::Serialize;
pub use serde::Value;

/// Error type for serialization and parsing.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn parse(offset: usize, message: impl Into<String>) -> Self {
        Error(format!("at byte {offset}: {}", message.into()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json stub error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent, like the
/// real serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, Some(2), 0);
    Ok(out)
}

/// Serializes `value` as compact JSON into an `io::Write` sink.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Serializes `value` as pretty JSON into an `io::Write` sink.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    let s = to_string_pretty(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Parses a JSON document into a [`Value`] tree.
///
/// Object key order is preserved, integers without a fraction/exponent parse
/// to `UInt`/`Int` (so numeric JSON roundtrips losslessly through the stub's
/// writer), and trailing garbage after the document is an error.
pub fn from_str(input: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(p.pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

/// Maximum nesting depth accepted by [`from_str`] (DoS guard for the
/// network-facing service protocol).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(Error::parse(self.pos, "JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::parse(
                self.pos,
                format!("unexpected character `{}`", other as char),
            )),
            None => Err(Error::parse(self.pos, "unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::parse(self.pos, format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::parse(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::parse(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(Error::parse(
                                            self.pos,
                                            "invalid low surrogate",
                                        ));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::parse(self.pos, "lone surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    Error::parse(self.pos, "invalid unicode escape")
                                })?,
                            );
                        }
                        other => {
                            return Err(Error::parse(
                                self.pos,
                                format!("invalid escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(Error::parse(self.pos, "control character in string"))
                }
                Some(_) => {
                    // Consume the maximal run of plain bytes in one step.
                    // The run ends at an ASCII byte (or the end of input),
                    // never inside a multi-byte scalar, so the run of a
                    // valid &str is itself valid UTF-8.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::parse(start, "invalid UTF-8"))?;
                    out.push_str(text);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::parse(self.pos, "truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::parse(self.pos, "invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| Error::parse(self.pos, "invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse(start, "invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::parse(start, format!("invalid number `{text}`")))
    }
}

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Match serde_json: always include a decimal point or
                // exponent so the token reads back as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(s, out),
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
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_rendering() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::UInt(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::Float(0.5)),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null],"c":0.5}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string(&"a\"b\\c\nd").unwrap(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str(" true ").unwrap(), Value::Bool(true));
        assert_eq!(from_str("42").unwrap(), Value::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("2.5e-3").unwrap(), Value::Float(0.0025));
        assert_eq!(from_str(r#""a\nbA""#).unwrap(), Value::Str("a\nbA".into()));
        assert_eq!(
            from_str(r#"[1, "x", {"k": false}]"#).unwrap(),
            Value::Array(vec![
                Value::UInt(1),
                Value::Str("x".into()),
                Value::Object(vec![("k".into(), Value::Bool(false))]),
            ])
        );
    }

    #[test]
    fn parse_preserves_object_key_order() {
        let v = from_str(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "{]",
            "nul",
            r#"{"a":}"#,
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_serialize_roundtrip_is_identity() {
        let text = r#"{"a":1,"b":[true,null,-3,0.25],"c":{"d":"x\ny"},"e":1e300}"#;
        let v = from_str(text).unwrap();
        let rendered = to_string(&v).unwrap();
        assert_eq!(from_str(&rendered).unwrap(), v);
        // Pretty output also roundtrips to the same tree.
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(400) + &"]".repeat(400);
        assert!(from_str(&deep).is_err());
    }
}
