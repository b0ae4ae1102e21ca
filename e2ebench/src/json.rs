//! Minimal JSON output (the workspace has no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of already encoded items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON array of strings.
pub fn strings<S: AsRef<str>>(xs: &[S]) -> String {
    array(xs.iter().map(|x| string(x.as_ref())))
}

/// A JSON array of numbers.
pub fn numbers(xs: &[f64]) -> String {
    array(xs.iter().map(|&x| number(x)))
}

/// An object built field by field, in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Add a raw (already encoded) field.
    pub fn raw(mut self, key: &str, value: String) -> Obj {
        self.0.push((key.to_string(), value));
        self
    }

    /// Add a number.
    pub fn num(self, key: &str, x: f64) -> Obj {
        self.raw(key, number(x))
    }

    /// Add an integer.
    pub fn int(self, key: &str, x: u64) -> Obj {
        self.raw(key, x.to_string())
    }

    /// Add a map of numbers as a nested object.
    pub fn nums(self, key: &str, m: &BTreeMap<String, f64>) -> Obj {
        let inner = m.iter().fold(Obj::default(), |o, (k, v)| o.num(k, *v));
        self.raw(key, inner.render())
    }

    /// Encode without the field `key`.
    pub fn without(&self, key: &str) -> String {
        let rest = self.0.iter().filter(|(k, _)| k != key).cloned().collect();
        Obj(rest).render()
    }

    /// Encode.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}
