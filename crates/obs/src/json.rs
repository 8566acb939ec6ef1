//! Hand-rolled JSON helpers.
//!
//! The workspace's one JSON writer: the trace and metrics exporters and the
//! `experiments` harness build their JSON with a tiny writer ([`Obj`],
//! [`Arr`], [`escape`]) and tests check artifacts with a minimal
//! recursive-descent well-formedness validator ([`validate`]). The validator
//! accepts exactly RFC 8259 JSON; it does not build a value tree, it only
//! walks the text.

/// Escape a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer. Fields are emitted in call order.
#[derive(Debug, Default)]
pub struct Obj {
    out: String,
    any: bool,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Obj {
        Obj {
            out: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('"');
        self.out.push_str(&escape(k));
        self.out.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        self.out.push_str(&v.to_string());
        self
    }

    /// Add a float field (non-finite values are emitted as `null`).
    pub fn f64(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        if v.is_finite() {
            self.out.push_str(&format!("{v:.6}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.out.push('"');
        self.out.push_str(&escape(v));
        self.out.push('"');
        self
    }

    /// Add a field whose value is already-serialized JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Close the object and return its JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Incremental JSON array writer over already-serialized elements.
#[derive(Debug, Default)]
pub struct Arr {
    out: String,
    any: bool,
}

impl Arr {
    /// Start an empty array.
    pub fn new() -> Arr {
        Arr {
            out: String::from("["),
            any: false,
        }
    }

    /// Append an already-serialized JSON element.
    pub fn raw(&mut self, v: &str) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push_str(v);
    }

    /// Close the array and return its JSON text.
    pub fn finish(mut self) -> String {
        self.out.push(']');
        self.out
    }
}

const MAX_DEPTH: usize = 128;

/// Check that `s` is one well-formed JSON value with nothing trailing.
/// Returns a position-tagged message on the first defect.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos, 0)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn fail(pos: usize, what: &str) -> String {
    format!("{what} at offset {pos}")
}

fn value(b: &[u8], pos: usize, depth: usize) -> Result<usize, String> {
    if depth > MAX_DEPTH {
        return Err(fail(pos, "nesting too deep"));
    }
    match b.get(pos) {
        None => Err(fail(pos, "unexpected end of input")),
        Some(b'{') => object(b, pos + 1, depth + 1),
        Some(b'[') => array(b, pos + 1, depth + 1),
        Some(b'"') => string(b, pos + 1),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(_) => Err(fail(pos, "unexpected byte")),
    }
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
        Ok(pos + lit.len())
    } else {
        Err(fail(pos, "bad literal"))
    }
}

fn string(b: &[u8], mut pos: usize) -> Result<usize, String> {
    // `pos` is just past the opening quote.
    while pos < b.len() {
        match b[pos] {
            b'"' => return Ok(pos + 1),
            b'\\' => {
                pos += 1;
                match b.get(pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 1,
                    Some(b'u') => {
                        if b.len() < pos + 5
                            || !b[pos + 1..pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(fail(pos, "bad unicode escape"));
                        }
                        pos += 5;
                    }
                    _ => return Err(fail(pos, "bad escape")),
                }
            }
            c if c < 0x20 => return Err(fail(pos, "raw control character in string")),
            _ => pos += 1,
        }
    }
    Err(fail(pos, "unterminated string"))
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    match b.get(pos) {
        Some(b'0') => pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while pos < b.len() && b[pos].is_ascii_digit() {
                pos += 1;
            }
        }
        _ => return Err(fail(start, "bad number")),
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        if !b.get(pos).is_some_and(u8::is_ascii_digit) {
            return Err(fail(pos, "bad fraction"));
        }
        while pos < b.len() && b[pos].is_ascii_digit() {
            pos += 1;
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if !b.get(pos).is_some_and(u8::is_ascii_digit) {
            return Err(fail(pos, "bad exponent"));
        }
        while pos < b.len() && b[pos].is_ascii_digit() {
            pos += 1;
        }
    }
    Ok(pos)
}

fn object(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b'"') {
            return Err(fail(pos, "expected object key"));
        }
        pos = string(b, pos + 1)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(fail(pos, "expected ':'"));
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(fail(pos, "expected ',' or '}'")),
        }
    }
}

fn array(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = skip_ws(b, pos);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b']') => return Ok(pos + 1),
            _ => return Err(fail(pos, "expected ',' or ']'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn obj_and_arr_build_valid_json() {
        let mut arr = Arr::new();
        arr.raw("1");
        arr.raw("\"two\"");
        let json = Obj::new()
            .u64("n", 7)
            .f64("x", 1.5)
            .str("s", "he said \"hi\"")
            .raw("list", &arr.finish())
            .finish();
        validate(&json).unwrap();
        assert!(json.starts_with("{\"n\":7,"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e+3",
            "  {\"a\": [1, 2, {\"b\": \"c\\u00e9\"}], \"d\": false}  ",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1} x",
            "\"unterminated",
            "01",
            "1.",
            "nul",
            "{\"a\":\"\u{1}\"}",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn validator_bounds_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        validate(&ok).unwrap();
    }
}
