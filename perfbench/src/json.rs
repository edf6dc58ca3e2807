//! A minimal JSON object writer (the workspace has no serde).

/// A JSON object whose fields keep their insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// A field whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.fields.push((key.to_string(), json.to_string()));
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, &quote(v));
    }

    /// An unsigned integer field.
    pub fn uint(&mut self, key: &str, v: u64) {
        self.raw(key, &v.to_string());
    }

    /// A number field with every digit it has; `null` if not finite.
    pub fn num(&mut self, key: &str, v: f64) {
        if v.is_finite() {
            self.raw(key, &format!("{v:?}"));
        } else {
            self.raw(key, "null");
        }
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.raw(key, if v { "true" } else { "false" });
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, v: Obj) {
        self.raw(key, &v.render());
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let mut inner = Obj::new();
        inner.num("value", 1.25);
        inner.str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true);
        o.uint("n", 3);
        o.str("s", "a\"b\\\n");
        o.num("nan", f64::NAN);
        o.obj("m", inner);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "n": 3, "s": "a\"b\\\u000a", "nan": null, "m": {"value": 1.25, "unit": "ms"}}"#
        );
    }
}
