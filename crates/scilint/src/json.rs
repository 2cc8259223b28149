//! The one writer of every CI-gated JSON artifact: `scilint/v1` and
//! `sciflow/v1` here, `scimemo/v2` in `scimemo`, and the six
//! `scibench-bench-*` documents in `scibench-bench`.
//!
//! Callers build a [`Json`] value; [`Json::render`] lays every document
//! out by one rule, so all artifacts diff line by line the same way:
//!
//! * the top-level object puts one member per line;
//! * an array that is a direct member of it puts one element per line;
//! * everything deeper is inline, separated by `", "` and `": "`;
//! * empty containers render as `[]` and `{}`.
//!
//! Strings escape `"`, `\`, newline, and every other control character as
//! `\u00XX`. A float carries its own number of decimals and renders as
//! `null` when it is not finite.

/// A JSON value whose rendering is fully decided: floats carry their
/// decimals and objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, rendered exactly.
    Int(i128),
    /// A float and its number of decimals.
    Float(f64, usize),
    /// A string, escaped on rendering.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in insertion order.
    Object(Vec<(String, Json)>),
}

/// An object from `(key, value)` members, in order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of anything convertible into values.
pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Array(items.into_iter().map(Into::into).collect())
}

/// A float rendered with `decimals` digits after the point.
pub fn float(value: f64, decimals: usize) -> Json {
    Json::Float(value, decimals)
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
int_from!(u32, u64, usize);

impl Json {
    /// Render as a document: the layout rule above, plus a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write `self` as a value nested `depth` containers deep.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(v, decimals) if v.is_finite() => {
                out.push_str(&format!("{v:.*}", *decimals));
            }
            Json::Float(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                write_seq(out, "[]", items, depth <= 1, depth, |out, item| {
                    item.write(out, depth + 1);
                });
            }
            Json::Object(members) => {
                write_seq(out, "{}", members, depth == 0, depth, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                });
            }
        }
    }
}

/// Write a container: one child per line when `broken`, else inline.
fn write_seq<T>(
    out: &mut String,
    brackets: &str,
    items: &[T],
    broken: bool,
    depth: usize,
    mut each: impl FnMut(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let (sep, indent) = if broken && !items.is_empty() {
        (",", format!("\n{}", "  ".repeat(depth + 1)))
    } else {
        (", ", String::new())
    };
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&indent);
        each(out, item);
    }
    if !indent.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(v: Json) -> String {
        // Two levels deep: below the top-level object and a member object.
        let doc = obj([("a", obj([("b", v)]))]).render();
        let start = doc.find("{\"b\": ").expect("member object") + 6;
        doc[start..doc.len() - 4].to_string()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(
            inline("a\"b\\c\nd\te".into()),
            "\"a\\\"b\\\\c\\nd\\u0009e\""
        );
        assert_eq!(inline("plain é".into()), "\"plain é\"");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(inline(float(f64::NAN, 2)), "null");
        assert_eq!(inline(float(f64::INFINITY, 1)), "null");
        assert_eq!(inline(float(f64::NEG_INFINITY, 4)), "null");
    }

    #[test]
    fn empty_containers_are_closed_brackets() {
        assert_eq!(inline(arr(Vec::<Json>::new())), "[]");
        assert_eq!(inline(obj(Vec::<(&str, Json)>::new())), "{}");
        let doc = obj([
            ("list", arr(Vec::<Json>::new())),
            ("map", obj(Vec::<(&str, Json)>::new())),
        ]);
        assert_eq!(doc.render(), "{\n  \"list\": [],\n  \"map\": {}\n}\n");
        assert_eq!(obj(Vec::<(&str, Json)>::new()).render(), "{}\n");
    }

    #[test]
    fn floats_keep_their_decimals() {
        assert_eq!(inline(float(16.0, 1)), "16.0");
        assert_eq!(inline(float(0.9, 4)), "0.9000");
        assert_eq!(inline(float(2.0 / 3.0, 2)), "0.67");
        assert_eq!(inline(float(1234.6, 0)), "1235");
    }

    #[test]
    fn document_layout_is_pinned() {
        let doc = obj([
            ("schema", "demo/v1".into()),
            ("quick", true.into()),
            (
                "host",
                obj([("cores", 2u32.into()), ("single", false.into())]),
            ),
            (
                "rows",
                arr([
                    obj([
                        ("name", "a".into()),
                        ("ms", float(1.5, 2)),
                        ("tags", arr(["x", "y"])),
                    ]),
                    obj([("name", "b".into()), ("ms", Json::Null)]),
                ]),
            ),
            ("curve", arr([arr([Json::from(1usize), float(1.0, 4)])])),
            ("total", 18_446_744_073_709_551_615u64.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"demo/v1\",\n  \"quick\": true,\n  \
             \"host\": {\"cores\": 2, \"single\": false},\n  \"rows\": [\n    \
             {\"name\": \"a\", \"ms\": 1.50, \"tags\": [\"x\", \"y\"]},\n    \
             {\"name\": \"b\", \"ms\": null}\n  ],\n  \"curve\": [\n    [1, 1.0000]\n  ],\n  \
             \"total\": 18446744073709551615\n}\n"
        );
    }
}
