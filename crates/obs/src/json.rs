//! Minimal JSON support for the flat single-line objects the trace emits:
//! a writer that escapes correctly and a parser for one object per line.
//!
//! Only the subset the event schema needs is implemented — objects whose
//! values are strings, integers, floats or booleans — but that subset is
//! handled completely (escape sequences, `\uXXXX`, exponents, surrogate
//! pairs are rejected explicitly rather than mis-decoded). No external
//! dependency, by design: the observability layer must be loadable from
//! every crate in the workspace, including the leaf ones.

use std::fmt;

/// One scalar field value of an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field (job keys, stage names, reasons).
    Str(String),
    /// An integer field (widths, precisions, counts).
    Int(i64),
    /// A float field (delays, rates). Non-finite floats cannot be
    /// represented in JSON; convert them via [`Value::from`] (which falls
    /// back to a string) rather than constructing `Float` directly.
    Float(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::Str(v.clone())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Float(v)
        } else {
            // NaN/±inf have no JSON representation; a string keeps the
            // information without producing an unparseable line.
            Value::Str(format!("{v}"))
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write_json_string(f, s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write_json_float(f, *v),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
pub(crate) fn write_json_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Writes a finite float so that it reparses as a float (never as an
/// integer): Rust's shortest-roundtrip `Display`, with `.0` appended when
/// the rendering has neither a decimal point nor an exponent.
fn write_json_float(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    debug_assert!(v.is_finite(), "Value::Float holds finite floats only");
    let text = format!("{v}");
    if text.contains('.') || text.contains('e') || text.contains('E') {
        out.write_str(&text)
    } else {
        write!(out, "{text}.0")
    }
}

/// Renders `fields` as one flat single-line JSON object, keys in order —
/// the inverse of [`parse_object`]. The explore report writes its records
/// with it.
pub fn render_object<K: AsRef<str>>(fields: &[(K, Value)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    for (index, (key, value)) in fields.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write_json_string(&mut out, key.as_ref());
        out.push(':');
        let _ = write!(out, "{value}");
    }
    out.push('}');
    out
}

/// Why a line failed to parse as a flat JSON event object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the line.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one line holding exactly one flat JSON object with scalar
/// values, preserving key order. Nested objects/arrays and `null` are
/// rejected — the event schema never emits them.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, JsonError> {
    let mut parser = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        line,
    };
    parser.skip_ws();
    parser.expect(b'{')?;
    let mut fields = Vec::new();
    parser.skip_ws();
    if parser.peek() == Some(b'}') {
        parser.pos += 1;
    } else {
        loop {
            parser.skip_ws();
            let key = parser.string()?;
            parser.skip_ws();
            parser.expect(b':')?;
            parser.skip_ws();
            let value = parser.value()?;
            fields.push((key, value));
            parser.skip_ws();
            match parser.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(parser.error("expected `,` or `}`")),
            }
        }
    }
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after object"));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: &'a str,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => Err(self.error("nested values are not part of the schema")),
            Some(b'n') => Err(self.error("`null` is not part of the schema")),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.line[start..self.pos];
        if float {
            let parsed: f64 = text
                .parse()
                .map_err(|_| self.error(&format!("malformed number `{text}`")))?;
            if !parsed.is_finite() {
                return Err(self.error(&format!("non-finite number `{text}`")));
            }
            Ok(Value::Float(parsed))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.error(&format!("malformed number `{text}`")))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Decode at char granularity so multi-byte UTF-8 passes through.
            let rest = &self.line[self.pos..];
            let Some(c) = rest.chars().next() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.line[self.pos..].chars().next() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = self
                                .line
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("malformed \\u escape"))?;
                            let c = char::from_u32(code).ok_or_else(|| {
                                self.error("surrogate \\u escapes are not supported")
                            })?;
                            self.pos += 4;
                            out.push(c);
                        }
                        other => return Err(self.error(&format!("unknown escape `\\{other}`"))),
                    }
                }
                c if (c as u32) < 0x20 => return Err(self.error("raw control character in string")),
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(fields: &[(&str, Value)]) -> String {
        render_object(fields)
    }

    #[test]
    fn scalar_values_roundtrip() {
        let fields = vec![
            ("s", Value::from("plain")),
            ("q", Value::from("quo\"te\\and\nnewline\ttab")),
            ("u", Value::from("μops — ünïcode")),
            ("i", Value::from(-42i64)),
            ("z", Value::from(0usize)),
            ("f", Value::from(1.0f64)),
            ("g", Value::from(-0.125f64)),
            ("e", Value::from(1e300f64)),
            ("b", Value::from(true)),
        ];
        let line = render(&fields);
        let parsed = parse_object(&line).unwrap();
        assert_eq!(parsed.len(), fields.len());
        for ((k, v), (pk, pv)) in fields.iter().zip(&parsed) {
            assert_eq!(k, pk);
            assert_eq!(v, pv, "field `{k}`");
        }
    }

    #[test]
    fn floats_never_reparse_as_integers() {
        let line = render(&[("f", Value::Float(3.0))]);
        assert!(line.contains("3.0"), "{line}");
        assert_eq!(parse_object(&line).unwrap()[0].1, Value::Float(3.0));
    }

    #[test]
    fn nonfinite_floats_become_strings() {
        assert_eq!(Value::from(f64::NAN), Value::Str("NaN".to_owned()));
        assert_eq!(Value::from(f64::INFINITY), Value::Str("inf".to_owned()));
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":null}",
            "{\"a\":[1]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1} extra",
            "{\"a\":\"unterminated}",
            "{\"a\":\"bad\\escape\"}",
            "{\"a\":1e999}",
            "{\"a\":\"\\ud800\"}",
        ] {
            assert!(parse_object(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object("{ }").unwrap().is_empty());
    }
}
