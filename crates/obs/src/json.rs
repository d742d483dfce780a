//! Hand-rolled JSON writing (no serde): string escaping and an
//! incremental object builder, shared by the Perfetto trace export
//! ([`crate::flight::chrome_trace_json`]) and every `--json` /
//! JSON-lines report the CLI prints.

/// Append `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_json_str(out: &mut String, s: &str) {
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

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for finite f64 is valid JSON.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Incremental JSON object writer.
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Start an object.
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_json_str(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        write_json_str(&mut self.buf, v);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> JsonObj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field (`null` when non-finite).
    pub fn f64(mut self, k: &str, v: f64) -> JsonObj {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    /// Add a pre-rendered JSON value (e.g. a nested object).
    pub fn raw(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn object_builder_shapes() {
        let o = JsonObj::new()
            .str("type", "x")
            .u64("n", 3)
            .i64("i", -4)
            .f64("f", 0.5)
            .f64("bad", f64::NAN)
            .finish();
        assert_eq!(o, r#"{"type":"x","n":3,"i":-4,"f":0.5,"bad":null}"#);
        assert_eq!(JsonObj::new().finish(), "{}");
    }
}
