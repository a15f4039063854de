//! Workspace-local substitute for the `serde` crate.
//!
//! Instead of serde's visitor machinery, this shim routes everything
//! through a concrete [`Value`] tree: `Serialize` lowers a type into a
//! `Value`. The companion `serde_json` shim renders and parses `Value` as
//! JSON, and `serde_derive` generates `Serialize` for structs with named
//! fields and unit-variant enums. There is no typed read path: JSON comes
//! back as a `Value`, and the one reader that needs a typed result (the
//! incident log) walks that tree itself.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// The in-memory data model every (de)serialization goes through.
///
/// Object fields keep insertion order (`Vec` of pairs, not a map) so JSON
/// output is deterministic and matches declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer that fits in `i64`, whatever type it was written from.
    I64(i64),
    /// Integer above `i64::MAX`. Serializing and parsing agree on this
    /// split, so a value survives a round-trip through text unchanged.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with ordered fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object by name.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload coerced to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Integral payload coerced to `i64` (floats only when exact).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => Some(v as i64),
            _ => None,
        }
    }

    /// Integral payload coerced to `u64` (floats only when exact).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(v) => u64::try_from(v).ok(),
            Value::U64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && v >= 0.0 && v < 1.9e19 => Some(v as u64),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object payload (ordered field list).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Writes `self` as JSON into `out`; `indent = Some(width)` pretty-
    /// prints, `None` is compact. (Lives here rather than in the
    /// `serde_json` shim so `Value` can implement `Display` without an
    /// orphan impl.)
    pub fn write_json(&self, indent: Option<usize>, depth: usize, out: &mut String) {
        let (nl, pad, pad_in, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => write_json_f64(*f, out),
            Value::Str(s) => write_json_escaped(s, out),
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write_json(indent, depth + 1, out);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_json_escaped(k, out);
                    out.push_str(colon);
                    item.write_json(indent, depth + 1, out);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_json_escaped(s: &str, out: &mut String) {
    out.push('"');
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
}

fn write_json_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        // serde_json rejects non-finite floats; emitting null keeps output
        // valid JSON while making the anomaly visible.
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        // Keep the float/integer distinction through a round-trip.
        out.push_str(".0");
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_json(None, 0, &mut out);
        f.write_str(&out)
    }
}

/// Types that can lower themselves into a [`Value`].
pub trait Serialize {
    /// The `Value` representation of `self`.
    fn serialize_value(&self) -> Value;
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

/// Integers lower to `I64` when they fit and `U64` otherwise, exactly as
/// the JSON parser reads them back.
macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                i64::try_from(*self).map_or(Value::U64(*self as u64), Value::I64)
            }
        }
    )*};
}
int_value!(i32, i64, u32, u64, usize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(v) => v.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_lowers_to_value_or_null() {
        assert_eq!(Some(7u32).serialize_value(), Value::I64(7));
        assert_eq!(None::<u32>.serialize_value(), Value::Null);
    }

    #[test]
    fn unsigned_integers_take_the_parser_variant() {
        assert_eq!(5u64.serialize_value(), Value::I64(5));
        assert_eq!(u64::MAX.serialize_value(), Value::U64(u64::MAX));
        assert_eq!(Value::I64(4).as_u64(), Some(4));
        assert_eq!(Value::F64(4.0).as_u64(), Some(4));
        assert_eq!(Value::F64(4.5).as_u64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
    }

    #[test]
    fn object_field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::I64(1))]);
        assert_eq!(v.get_field("a"), Some(&Value::I64(1)));
        assert_eq!(v.get_field("b"), None);
    }
}
