//! Workspace-local substitute for the `serde_json` crate.
//!
//! Renders and parses the `serde` shim's [`Value`] tree as JSON. Covers
//! `to_string`, `to_string_pretty`, `to_value`, the `json!` object/array
//! macro, and `from_str`, which parses to a [`Value`] only: upstream's
//! generic typed read has no caller here.

pub use serde::Value;

/// JSON parse/convert error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Lowers any serializable type to a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.serialize_value()
}

/// Serializes to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    to_value(value).write_json(None, 0, &mut out);
    Ok(out)
}

/// Serializes to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    to_value(value).write_json(Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into a [`Value`]. Arrays and objects may nest at most
/// 128 deep; deeper input is an error, not a stack overflow.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// Deepest array/object nesting `from_str` accepts: far above any document
/// this workspace writes, far below what exhausts a thread's stack.
const MAX_DEPTH: usize = 128;

/// Builds a [`Value`] object with JSON-literal syntax; field values are
/// arbitrary serializable expressions.
#[macro_export]
macro_rules! json {
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value(&$val)) ),*
        ])
    };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of JSON".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            _ => self.number(),
        }
    }

    /// Parses one array or object, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u codepoint".into()))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at b.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error("truncated UTF-8".into()))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error("bad UTF-8".into()))?,
                    );
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| Error("bad number".into()))?;
        if text.is_empty() || text == "-" {
            return Err(Error(format!("expected number at byte {start}")));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({
            "name": "phi",
            "cores": 60u32,
            "ratio": 2.5,
            "ok": true,
            "none": Value::Null,
            "xs": vec![1i64, 2, 3]
        });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&text).unwrap(), v, "failed for {text}");
        }
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&Value::F64(3.0)).unwrap();
        assert_eq!(text, "3.0");
        assert_eq!(from_str(&text).unwrap(), Value::F64(3.0));
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd".into());
        let text = to_string(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = from_str(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        let inner = v.get_field("a").unwrap().as_array().unwrap();
        assert_eq!(inner[0], Value::I64(1));
        assert_eq!(inner[1].get_field("b"), Some(&Value::Null));
    }

    #[test]
    fn typed_values_round_trip_as_their_value() {
        let xs = vec![1.5f64, 2.0, -3.25];
        let text = to_string_pretty(&xs).unwrap();
        assert_eq!(from_str(&text).unwrap(), to_value(&xs));
        let ns = vec![0u64, 7, u64::MAX];
        assert_eq!(from_str(&to_string(&ns).unwrap()).unwrap(), to_value(&ns));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = from_str(&deep).unwrap_err().to_string();
        assert!(err.contains("nested deeper than 128"), "{err}");
        for hostile in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            assert!(from_str(&hostile).is_err());
        }
    }
}
