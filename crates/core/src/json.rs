//! A minimal hand-rolled JSON writer.
//!
//! The workspace builds fully offline without a serialization
//! framework, so anything that needs a serialized form rolls its own — the
//! binary [`crate::codec`] for the shard wire protocol, and this
//! module for human/tool-facing JSON: `certify-lint --json` diagnostic
//! reports today, the ROADMAP's `RunReport` JSON export next.
//!
//! Only the writing half exists (no parser): a [`Json`] value tree is
//! built programmatically and rendered with [`Json::render`]. Output
//! is deterministic — object keys keep their insertion order — and
//! strings are escaped per RFC 8259 (quotes, backslashes, control
//! characters).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number. Non-finite values render as `null`
    /// (JSON has no NaN/Infinity).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys render in the order given (no sorting, no
    /// dedup) so output is deterministic and diff-friendly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value (convenience for `Json::Str(s.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the tree as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal, escaping per RFC 8259.
fn write_escaped(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn containers_render_in_order() {
        let value = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(value.render(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        let s = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(Vec::new()).render(), "[]");
        assert_eq!(Json::Obj(Vec::new()).render(), "{}");
    }
}
