//! A JSON writer (the workspace carries no serde), and the one reader
//! the A/A driver needs: pulling a metric's value out of a result line
//! this same writer produced.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    /// Written with the shortest digits that round-trip; a non-finite
    /// value has no JSON spelling and is written as `null`.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One line, no trailing newline.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// `{"value": v, "unit": u}` — how every metric is reported.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))])
}

/// The number that follows `"key": ` in `text` (first occurrence).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of metric `name` in a result line written by [`metric`].
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{");
    number_after(&line[line.find(&pat)?..], "value")
}

/// The value of top-level counter `key` (`attempted`, `failed`).
pub fn counter_value(line: &str, key: &str) -> Option<u64> {
    number_after(line, key).map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_kind() {
        let j = Json::obj([
            ("a", Json::Null),
            ("b", Json::Bool(true)),
            ("c", Json::U64(18_446_744_073_709_551_615)),
            ("d", Json::F64(0.1)),
            ("e", Json::F64(f64::NAN)),
            ("f", Json::str("q\"\\\n\u{1}é")),
            ("g", Json::Arr(vec![Json::U64(1), Json::Arr(vec![])])),
            ("h", Json::obj::<String>([])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": null, "b": true, "c": 18446744073709551615, "d": 0.1, "e": null, "f": "q\"\\\n\u0001é", "g": [1, []], "h": {}}"#
        );
    }

    #[test]
    fn floats_keep_all_their_digits() {
        let x = 118.203_456_789_012_34_f64;
        let text = Json::F64(x).to_string();
        assert_eq!(text.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn reads_back_what_it_wrote() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::U64(1464)),
            ("failed", Json::U64(0)),
            (
                "metrics",
                Json::obj([
                    ("op_p50_us", metric(118.25, "us")),
                    ("op_p99_us", metric(1.5e-7, "us")),
                ]),
            ),
        ])
        .to_string();
        assert_eq!(metric_value(&line, "op_p50_us"), Some(118.25));
        assert_eq!(metric_value(&line, "op_p99_us"), Some(1.5e-7));
        assert_eq!(metric_value(&line, "absent"), None);
        assert_eq!(counter_value(&line, "attempted"), Some(1464));
        assert_eq!(counter_value(&line, "failed"), Some(0));
    }
}
