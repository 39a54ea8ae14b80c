//! A minimal JSON value and pretty writer — enough for the machine-readable
//! lint report (`--format json` / `--report`). Hand-rolled because the
//! workspace builds offline: no `serde`.
//!
//! Numbers are restricted to `i64`: every quantity the report carries
//! (line numbers, the diagnostic count) is an integer.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (serialization must be
/// byte-stable for the snapshot test).
#[derive(Debug)]
pub enum Json {
    /// An integer (see module docs for why floats are excluded).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty serialization with 2-space indentation and a trailing newline
    /// (the `--format json` / snapshot format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        match self {
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, level + 1);
                    item.write(out, level + 1);
                }
                newline_indent(out, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, level + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, level + 1);
                }
                newline_indent(out, level);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..2 * level {
        out.push(' ');
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
    fn pretty_prints_nested_values() {
        let v = Json::Obj(vec![
            ("schema".into(), Json::Str("simlint-report-v1".into())),
            ("count".into(), Json::Num(2)),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Num(-7),
                    Json::Str("a\"b\n".into()),
                    Json::Str("c:\\x\r\t\u{1}é".into()),
                    Json::Obj(vec![("k\"".into(), Json::Arr(vec![Json::Num(0)]))]),
                ]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        let expected = r#"{
  "schema": "simlint-report-v1",
  "count": 2,
  "items": [
    -7,
    "a\"b\n",
    "c:\\x\r\t\u0001é",
    {
      "k\"": [
        0
      ]
    }
  ],
  "empty": [],
  "none": {}
}
"#;
        assert_eq!(v.to_pretty(), expected);
    }
}
