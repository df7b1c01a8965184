//! A serde-free JSON value: builder, renderer, and parser.
//!
//! The build environment has no crates.io access, so the machine-readable
//! surfaces (`harness --report`, flight records,
//! `explain_analyze().to_json()`) hand-roll their JSON through this small
//! value type instead of depending on `serde`.

use std::io::Write;

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, and the query service parses every frame a
/// client sends with it, so an unbounded depth would let one line of
/// `[` bytes overflow a session thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order (reports stay diffable
/// across runs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters and nanoseconds).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered with enough precision to round-trip).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a key in an object; panics on non-objects.
    pub fn set(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            fields.push((key, value));
        }
        self
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an f64: floats directly, integers widened (lossy
    /// above 2^53, like JSON itself).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// Appends the compact rendering to `out`: the one writer behind
    /// [`Json::render`], usable on a caller's reusable byte buffer.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::U64(v) => write_u64(out, *v),
            Json::I64(v) => {
                if *v < 0 {
                    out.push(b'-');
                }
                write_u64(out, v.unsigned_abs());
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` prints shortest-round-trip floats; writing to
                    // a Vec cannot fail.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_to(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Appends `v` in decimal without allocating: the one integer formatter
/// behind every rendered number, the query service's answer rows included.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn write_escaped(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    // Byte-wise is char-wise here: every byte of a multi-byte UTF-8
    // sequence is >= 0x80 and passes through untouched.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
    /// Which kind of failure this is.
    pub kind: JsonErrorKind,
}

/// The kinds of [`JsonParseError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not one well-formed JSON value.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON value (trailing whitespace allowed, nothing else).
/// Used by the tests that validate the harness's `--report` output.
pub fn parse_json(input: &str) -> Result<Json, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
            kind: JsonErrorKind::Syntax,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| Json::Null),
            Some(b't') => self.eat_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonParseError {
                        kind: JsonErrorKind::TooDeep,
                        ..self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
                    });
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not expected in our own output.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Take the longest run of plain UTF-8.
                    let mut end = self.pos;
                    while end < self.bytes.len() && !matches!(self.bytes[end], b'"' | b'\\') {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let v = Json::obj()
            .set("name", "exec.semijoin")
            .set("calls", 3u64)
            .set("hit", true)
            .set("ratio", 0.5f64)
            .set("note", "a \"quoted\"\nline\t\\")
            .set(
                "nested",
                Json::Arr(vec![Json::Null, Json::U64(7), Json::I64(-2)]),
            );
        let text = v.render();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_foreign_json() {
        let v =
            parse_json(r#" { "a" : [ 1 , 2.5 , -3 , 1e3 ] , "b" : { } , "c" : "A" } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "\"unterminated", "1 2", "nul"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_with_a_distinct_error() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse_json(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for deep in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(500_000),
        ] {
            let err = parse_json(&deep).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
        }
        assert_eq!(parse_json("[1,]").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn integers_render_at_their_extremes() {
        for v in [0, 7, 10, 99, 100, 4_294_967_295, u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
        for v in [i64::MIN, -1, 0, i64::MAX] {
            assert_eq!(Json::I64(v).render(), v.to_string());
        }
        assert_eq!(Json::F64(0.1).render(), "0.1");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::from("\u{1}é\u{1f}").render(), "\"\\u0001é\\u001f\"");
    }

    #[test]
    fn set_replaces_existing_keys() {
        let v = Json::obj().set("k", 1u64).set("k", 2u64);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(v.render(), r#"{"k":2}"#);
    }
}
