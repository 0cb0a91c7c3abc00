//! Hand-rolled line-protocol JSON: a minimal value type, a deterministic
//! writer, and a hardened parser.
//!
//! The workspace is offline (no serde), and the daemon's chaos contract
//! requires **byte-identical** responses between the concurrent server
//! and the single-threaded oracle, so the representation is deliberately
//! simple and fully ordered:
//!
//! * objects are insertion-ordered `Vec<(String, Json)>` — writing a
//!   value twice produces the same bytes, and two code paths that build
//!   the same frame field-by-field produce the same bytes;
//! * the writer emits no insignificant whitespace and escapes exactly
//!   the characters JSON requires;
//! * the parser is a recursive-descent reader with an explicit depth
//!   limit, so a malicious frame of ten thousand `[` cannot blow the
//!   stack of a connection thread.

use std::fmt;

/// Nesting depth past which [`parse`] rejects the input. Protocol frames
/// are at most three levels deep; 64 leaves generous headroom while
/// keeping adversarial recursion bounded.
const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers keep their syntactic class (`Int` vs `Float`)
/// so integer round-trips are exact and byte-stable.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and significant for
    /// output bytes (never for lookups).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj<I>(fields: I) -> Json
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Object field lookup (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as an unsigned value.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to the canonical compact form (no whitespace).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(x) => {
            if x.is_finite() {
                let text = format!("{x}");
                // `1.0f64` displays as "1"; keep a float marker so the
                // syntactic class round-trips.
                if text.contains('.') || text.contains('e') || text.contains('E') {
                    out.push_str(&text);
                } else {
                    out.push_str(&text);
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; the protocol never produces them,
                // but the writer must stay total.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// A parse failure: a message and the byte offset it refers to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input, nesting deeper than
/// [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: accept, combining when the
                            // low half follows; lone surrogates become
                            // U+FFFD rather than panicking.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Frame fragments for the parser fuzz: JSON punctuation, every
    /// field name the parser knows, values of every JSON type (including
    /// out-of-range and ill-typed ones), and raw bytes.
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\"op\"",
        "\"check\"",
        "\"optimize\"",
        "\"sweep\"",
        "\"evict\"",
        "\"stats\"",
        "\"ping\"",
        "\"formula\"",
        "\"CC(E0) -> C(E0)\"",
        "\"n\"",
        "\"t\"",
        "\"mode\"",
        "\"omission\"",
        "\"exchange\"",
        "\"digest:64\"",
        "\"horizon\"",
        "\"sampled\"",
        "\"symmetry\"",
        "\"from\"",
        "\"to\"",
        "\"shards\"",
        "\"deadline_ms\"",
        "\"max_runs\"",
        "\"witness\"",
        "\"set_repr\"",
        "0",
        "1",
        "-1",
        "65536",
        "9223372036854775807",
        "1e999",
        "-0.5",
        "true",
        "false",
        "null",
        "\"\\u0000\"",
        "\"\\ud800\"",
        " ",
        "\n",
        "\u{fffd}",
        "\u{1f600}",
    ];

    /// Builds a frame from `len` seeded draws: a fragment, or a raw byte
    /// (decoded lossily, as a line read off the wire would be).
    pub(crate) fn fuzz_line(seed: u64, len: usize) -> String {
        let mut bytes = Vec::new();
        let mut x = seed;
        for _ in 0..len {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match (z % (FRAGMENTS.len() as u64 + 8)) as usize {
                i if i < FRAGMENTS.len() => bytes.extend_from_slice(FRAGMENTS[i].as_bytes()),
                _ => bytes.push((z >> 32) as u8),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// No byte string panics the JSON parser: it yields a value or a
        /// typed [`JsonError`].
        #[test]
        fn arbitrary_lines_parse_or_fail_without_panicking(
            seed in proptest::num::u64::ANY,
            len in 0usize..48,
        ) {
            let line = fuzz_line(seed, len);
            if let Err(e) = parse(&line) {
                proptest::prop_assert!(!e.message.is_empty(), "{:?}", line);
            }
        }
    }

    #[test]
    fn round_trips_are_byte_stable() {
        let frame = Json::obj([
            ("op", Json::Str("check".into())),
            ("n", Json::Int(3)),
            ("ok", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::Null, Json::Int(-7)])),
        ]);
        let line = frame.to_line();
        assert_eq!(line, r#"{"op":"check","n":3,"ok":true,"items":[null,-7]}"#);
        assert_eq!(parse(&line).unwrap(), frame);
        assert_eq!(parse(&line).unwrap().to_line(), line);
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndA".into()));
        // And the writer re-escapes them canonically.
        assert_eq!(v.to_line(), r#""a\"b\\c\ndA""#);
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\u{1}",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "nulll",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // …while protocol-depth frames parse fine.
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn numbers_keep_their_syntactic_class() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-9").unwrap(), Json::Int(-9));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::Float(2.0).to_line(), "2.0");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"op":"ping","n":3,"deep":{"x":true}}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("x"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(v.get("missing").is_none());
    }
}
