//! A small hand-rolled JSON encoder, writer and parser.
//!
//! The serving layer returns JSON to looking-glass clients; no JSON crate
//! exists in the offline dependency set, and the value shapes we emit are
//! simple (objects, arrays, strings, integers, a few floats), so a ~100-line
//! encoder is cheaper than a shim. Encoding is strict RFC 8259: strings are
//! escaped, non-finite floats are rejected (JSON has no NaN/Infinity), and
//! integers are emitted verbatim up to the full `u64`/`i64` range.
//!
//! There are two ways to produce a document, and they share one escaping
//! routine and one integer routine, so they cannot disagree on a byte:
//!
//! * [`Json`] is a tree, built and then encoded with [`Json::encode`]. Cold
//!   endpoints, error bodies and stream frames use it.
//! * [`JsonWriter`] appends straight into one `String`, with no tree. The
//!   hot read endpoints (`/routes`, `/rib`, `/updates`, `/origin`) render
//!   through it from borrowed store data. [`JsonWriter::finish`] seals the
//!   text into an [`Encoded`], and [`Json::Raw`] carries it wherever a
//!   [`Json`] is expected: `encode` copies it verbatim and
//!   [`Json::into_body`] hands the `String` over without a copy.
//!
//! [`Json::parse`] is the matching strict decoder (the stream layer uses it
//! to verify frames round-trip): no trailing content, no unescaped control
//! characters, no leading zeros, surrogate pairs validated, and a recursion
//! depth cap so hostile input cannot blow the stack.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers timestamps, counters, ASNs).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; must be finite at encode time.
    F64(f64),
    /// A string (escaped on encode).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as given (deterministic output).
    Obj(Vec<(String, Json)>),
    /// An already-encoded document from [`JsonWriter::finish`], written
    /// verbatim.
    Raw(Encoded),
}

/// A JSON text that [`JsonWriter`] produced. The field is private, so
/// [`JsonWriter::finish`] is the only way to make one: the bytes went
/// through the writer's escaping and number formatting.
#[derive(Clone, Debug, PartialEq)]
pub struct Encoded(String);

impl Encoded {
    /// The encoded text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Error returned when a value cannot be represented in JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json encode error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Encodes the value as a compact JSON string.
    pub fn encode(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// The value as a response body: a [`Json::Raw`] hands its `String`
    /// over as is, anything else is encoded.
    pub fn into_body(self) -> Result<String, JsonError> {
        match self {
            Json::Raw(Encoded(text)) => Ok(text),
            other => other.encode(),
        }
    }

    /// Parses a JSON document (strict RFC 8259; the whole input must be one
    /// value plus optional surrounding whitespace). Non-negative integers
    /// parse as [`Json::U64`], negative ones as [`Json::I64`], and anything
    /// with a fraction or exponent as [`Json::F64`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!("trailing content at byte {}", p.pos)));
        }
        Ok(v)
    }

    fn encode_into(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => fmt_u64(*n, out),
            Json::I64(n) => {
                if *n < 0 {
                    out.push('-');
                }
                fmt_u64(n.unsigned_abs(), out);
            }
            Json::F64(x) => {
                if !x.is_finite() {
                    return Err(JsonError(format!("non-finite float {x}")));
                }
                // `{}` on f64 never prints exponent notation for the
                // magnitudes we emit and round-trips the value.
                let s = format!("{x}");
                out.push_str(&s);
                // "1" would re-parse as an integer; keep floats floats.
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out)?;
                }
                out.push('}');
            }
            Json::Raw(Encoded(text)) => out.push_str(text),
        }
        Ok(())
    }
}

/// Appends the decimal digits of `n` (the one integer routine behind
/// [`Json::encode`] and [`JsonWriter`]).
pub(crate) fn fmt_u64(n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ascii"));
}

/// Streams one JSON document into a single `String`, with no [`Json`]
/// tree in between. Separators are tracked for the caller: a value or key
/// written after a sibling gets its comma, and a key gets its colon.
///
/// ```
/// use gill_query::json::{Json, JsonWriter};
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.key("vp");
/// w.str("AS65001");
/// w.key("hops");
/// w.begin_arr();
/// w.u64(65001);
/// w.u64(2);
/// w.end_arr();
/// w.end_obj();
/// let text = Json::Raw(w.finish()).encode().unwrap();
/// assert_eq!(text, r#"{"vp":"AS65001","hops":[65001,2]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next value or key follows a sibling and needs a comma.
    sep: bool,
    /// Open objects and arrays.
    depth: usize,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..Self::default()
        }
    }

    fn value_start(&mut self) {
        if self.sep {
            self.out.push(',');
        }
        self.sep = true;
    }

    fn open(&mut self, c: char) {
        self.value_start();
        self.out.push(c);
        self.sep = false;
        self.depth += 1;
    }

    fn close(&mut self, c: char) {
        self.out.push(c);
        self.sep = true;
        self.depth -= 1;
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) {
        self.value_start();
        encode_str(k, &mut self.out);
        self.out.push(':');
        self.sep = false;
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) {
        self.value_start();
        encode_str(s, &mut self.out);
    }

    /// Writes a string value that `f` formats straight into the buffer
    /// (no intermediate `String`). `f` must only append; whatever it
    /// appends is escaped exactly like [`JsonWriter::str`] would escape it.
    pub fn str_with(&mut self, f: impl FnOnce(&mut String)) {
        self.value_start();
        self.out.push('"');
        let start = self.out.len();
        f(&mut self.out);
        if self.out.as_bytes()[start..]
            .iter()
            .any(|&b| needs_escape(b))
        {
            let raw = self.out.split_off(start);
            escape_into(&raw, &mut self.out);
        }
        self.out.push('"');
    }

    /// Writes a value's `Display` form as a string value.
    pub fn display(&mut self, v: impl fmt::Display) {
        self.str_with(|out| {
            use fmt::Write as _;
            write!(out, "{v}").expect("writing to a String cannot fail");
        });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) {
        self.value_start();
        fmt_u64(n, &mut self.out);
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.value_start();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value_start();
        self.out.push_str("null");
    }

    /// The finished document. Every object and array must be closed.
    pub fn finish(self) -> Encoded {
        debug_assert_eq!(self.depth, 0, "unclosed object or array");
        Encoded(self.out)
    }
}

/// Nesting depth cap for the parser (far above any frame we emit).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte {:?}", b as char))),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // the input is a &str, so slices on char runs are valid UTF-8
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // high surrogate: require \uXXXX low surrogate
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => unreachable!("fast path consumes plain bytes"),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad hex digit")),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // integer part: "0" or nonzero digit followed by digits
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if float {
            let x: f64 = text.parse().map_err(|_| self.err("malformed number"))?;
            if !x.is_finite() {
                return Err(self.err("number out of range"));
            }
            Ok(Json::F64(x))
        } else if neg {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Whether `b` cannot appear raw inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` as a quoted JSON string (the one escaping routine behind
/// [`Json::encode`] and [`JsonWriter`]).
fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Appends `s` with every character JSON forbids raw escaped. Runs of
/// plain bytes are copied whole; every escaped byte is ASCII, so each run
/// ends on a character boundary.
fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden tests: every expectation is the exact byte sequence the
    // encoder must produce — clients (and the CI smoke test's well-formed
    // check) depend on the output being stable.

    #[test]
    fn golden_scalars() {
        assert_eq!(Json::Null.encode().unwrap(), "null");
        assert_eq!(Json::Bool(true).encode().unwrap(), "true");
        assert_eq!(Json::Bool(false).encode().unwrap(), "false");
        assert_eq!(Json::U64(0).encode().unwrap(), "0");
        assert_eq!(Json::I64(-42).encode().unwrap(), "-42");
        assert_eq!(Json::F64(1.5).encode().unwrap(), "1.5");
    }

    #[test]
    fn golden_u64_boundaries() {
        assert_eq!(
            Json::U64(u64::MAX).encode().unwrap(),
            "18446744073709551615"
        );
        assert_eq!(
            Json::U64(u64::MAX - 1).encode().unwrap(),
            "18446744073709551614"
        );
        assert_eq!(Json::U64(1).encode().unwrap(), "1");
        assert_eq!(
            Json::I64(i64::MIN).encode().unwrap(),
            "-9223372036854775808"
        );
        assert_eq!(Json::I64(i64::MAX).encode().unwrap(), "9223372036854775807");
    }

    #[test]
    fn golden_float_formatting() {
        // integral floats keep a decimal point so they re-parse as floats
        assert_eq!(Json::F64(2.0).encode().unwrap(), "2.0");
        assert_eq!(Json::F64(0.0).encode().unwrap(), "0.0");
        assert_eq!(Json::F64(-3.0).encode().unwrap(), "-3.0");
        assert_eq!(Json::F64(0.25).encode().unwrap(), "0.25");
    }

    #[test]
    fn non_finite_floats_rejected() {
        assert!(Json::F64(f64::NAN).encode().is_err());
        assert!(Json::F64(f64::INFINITY).encode().is_err());
        assert!(Json::F64(f64::NEG_INFINITY).encode().is_err());
        // ... even when nested deep inside a structure
        let nested = Json::obj([("a", Json::Arr(vec![Json::F64(f64::NAN)]))]);
        assert!(nested.encode().is_err());
    }

    #[test]
    fn golden_string_escaping() {
        assert_eq!(Json::str("plain").encode().unwrap(), r#""plain""#);
        assert_eq!(Json::str("say \"hi\"").encode().unwrap(), r#""say \"hi\"""#);
        assert_eq!(Json::str("a\\b").encode().unwrap(), r#""a\\b""#);
        assert_eq!(
            Json::str("line\nbreak").encode().unwrap(),
            r#""line\nbreak""#
        );
        assert_eq!(Json::str("tab\there").encode().unwrap(), r#""tab\there""#);
        assert_eq!(Json::str("cr\rlf").encode().unwrap(), r#""cr\rlf""#);
        assert_eq!(Json::str("\u{08}\u{0c}").encode().unwrap(), r#""\b\f""#);
        // other control characters use \u00xx
        assert_eq!(
            Json::str("\u{01}\u{1f}").encode().unwrap(),
            r#""\u0001\u001f""#
        );
        // non-ASCII passes through unescaped (JSON is UTF-8)
        assert_eq!(
            Json::str("prefix→route").encode().unwrap(),
            "\"prefix→route\""
        );
    }

    #[test]
    fn golden_arrays_and_objects() {
        assert_eq!(Json::Arr(vec![]).encode().unwrap(), "[]");
        assert_eq!(Json::Obj(vec![]).encode().unwrap(), "{}");
        let v = Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)]);
        assert_eq!(v.encode().unwrap(), "[1,2,3]");
        let o = Json::obj([
            ("vp", Json::str("AS65001")),
            ("prefix", Json::str("10.0.0.0/24")),
            ("hops", Json::Arr(vec![Json::U64(65001), Json::U64(2)])),
        ]);
        assert_eq!(
            o.encode().unwrap(),
            r#"{"vp":"AS65001","prefix":"10.0.0.0/24","hops":[65001,2]}"#
        );
    }

    #[test]
    fn golden_nested_structures() {
        let v = Json::obj([
            (
                "routes",
                Json::Arr(vec![
                    Json::obj([("path", Json::Arr(vec![Json::U64(1)]))]),
                    Json::obj([("path", Json::Arr(vec![]))]),
                ]),
            ),
            ("count", Json::U64(2)),
            ("truncated", Json::Bool(false)),
            ("note", Json::Null),
        ]);
        assert_eq!(
            v.encode().unwrap(),
            r#"{"routes":[{"path":[1]},{"path":[]}],"count":2,"truncated":false,"note":null}"#
        );
    }

    #[test]
    fn object_key_order_is_preserved() {
        let a = Json::obj([("b", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(a.encode().unwrap(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(Json::parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F64(2000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::F64(-0.25));
    }

    #[test]
    fn parse_strings_and_escapes() {
        assert_eq!(Json::parse(r#""plain""#).unwrap(), Json::str("plain"));
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\te""#).unwrap(),
            Json::str("a\"b\\c\nd\te")
        );
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::str("A"));
        // surrogate pair → one astral char
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("\u{1F600}"));
        assert_eq!(
            Json::parse("\"prefix→route\"").unwrap(),
            Json::str("prefix→route")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\udc00""#).is_err()); // lone low surrogate
        assert!(Json::parse("\"raw\ncontrol\"").is_err());
        assert!(Json::parse(r#""\x""#).is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_structures() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(
            Json::parse("[1, 2 ,3]").unwrap(),
            Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)])
        );
        assert_eq!(
            Json::parse(r#"{"b":1,"a":[true,null]}"#).unwrap(),
            Json::Obj(vec![
                ("b".into(), Json::U64(1)),
                ("a".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            " ",
            "{",
            "[1,",
            "[1,]",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "01",
            "1.",
            "1e",
            "+1",
            "truee",
            "[1] 2",
            "nul",
            "--1",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_depth_capped() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn encode_parse_roundtrip() {
        let v = Json::obj([
            ("vp", Json::str("AS65001")),
            ("n", Json::U64(7)),
            ("neg", Json::I64(-3)),
            ("f", Json::F64(2.5)),
            (
                "routes",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("a\"b")]),
            ),
        ]);
        let text = v.encode().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    /// The escaping goldens of `golden_string_escaping`, as (input, body).
    const ESCAPES: [(&str, &str); 9] = [
        ("plain", r#""plain""#),
        ("say \"hi\"", r#""say \"hi\"""#),
        ("a\\b", r#""a\\b""#),
        ("line\nbreak", r#""line\nbreak""#),
        ("tab\there", r#""tab\there""#),
        ("cr\rlf", r#""cr\rlf""#),
        ("\u{08}\u{0c}", r#""\b\f""#),
        ("\u{01}\u{1f}", r#""\u0001\u001f""#),
        ("prefix→route", "\"prefix→route\""),
    ];

    #[test]
    fn writer_escapes_exactly_like_the_tree() {
        for (input, golden) in ESCAPES {
            assert_eq!(Json::str(input).encode().unwrap(), golden, "{input:?}");
            let mut w = JsonWriter::new();
            w.str(input);
            assert_eq!(w.finish().as_str(), golden, "str {input:?}");
            let mut w = JsonWriter::new();
            w.str_with(|out| out.push_str(input));
            assert_eq!(w.finish().as_str(), golden, "str_with {input:?}");
            let mut w = JsonWriter::new();
            w.display(input);
            assert_eq!(w.finish().as_str(), golden, "display {input:?}");
            // keys take the same routine
            let mut w = JsonWriter::new();
            w.begin_obj();
            w.key(input);
            w.null();
            w.end_obj();
            assert_eq!(w.finish().as_str(), format!("{{{golden}:null}}"));
        }
    }

    #[test]
    fn writer_matches_the_tree_byte_for_byte() {
        let tree = Json::obj([
            ("vp", Json::str("vp(AS65001)")),
            ("at", Json::Null),
            ("n", Json::U64(u64::MAX)),
            ("ok", Json::Bool(true)),
            ("no", Json::Bool(false)),
            (
                "routes",
                Json::Arr(vec![
                    Json::obj([("path", Json::Arr(vec![Json::U64(1), Json::U64(0)]))]),
                    Json::obj([("path", Json::Arr(vec![]))]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("tail", Json::Arr(vec![Json::Arr(vec![]), Json::str("x")])),
        ]);
        let mut w = JsonWriter::with_capacity(16);
        w.begin_obj();
        w.key("vp");
        w.display(format_args!("vp({})", "AS65001"));
        w.key("at");
        w.null();
        w.key("n");
        w.u64(u64::MAX);
        w.key("ok");
        w.bool(true);
        w.key("no");
        w.bool(false);
        w.key("routes");
        w.begin_arr();
        w.begin_obj();
        w.key("path");
        w.begin_arr();
        w.u64(1);
        w.u64(0);
        w.end_arr();
        w.end_obj();
        w.begin_obj();
        w.key("path");
        w.begin_arr();
        w.end_arr();
        w.end_obj();
        w.begin_obj();
        w.end_obj();
        w.end_arr();
        w.key("tail");
        w.begin_arr();
        w.begin_arr();
        w.end_arr();
        w.str("x");
        w.end_arr();
        w.end_obj();
        assert_eq!(w.finish().as_str(), tree.encode().unwrap());
    }

    #[test]
    fn raw_nested_in_a_tree_encodes_verbatim() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.u64(7);
        w.str("a\"b");
        w.end_arr();
        let raw = Json::Raw(w.finish());
        assert_eq!(raw.encode().unwrap(), r#"[7,"a\"b"]"#);
        let tree = Json::obj([
            ("before", Json::U64(1)),
            ("raw", raw.clone()),
            ("list", Json::Arr(vec![raw.clone(), raw])),
        ]);
        assert_eq!(
            tree.encode().unwrap(),
            r#"{"before":1,"raw":[7,"a\"b"],"list":[[7,"a\"b"],[7,"a\"b"]]}"#
        );
    }

    #[test]
    fn into_body_moves_a_raw_out_without_copying() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("k");
        w.u64(1);
        w.end_obj();
        let encoded = w.finish();
        let (ptr, text) = (encoded.as_str().as_ptr(), encoded.as_str().to_string());
        let body = Json::Raw(encoded).into_body().unwrap();
        assert_eq!(body, text);
        assert_eq!(body.as_ptr(), ptr, "the writer's buffer is the body");
        // a tree is encoded, and an encode failure stays an error
        assert_eq!(Json::U64(3).into_body().unwrap(), "3");
        assert!(Json::F64(f64::NAN).into_body().is_err());
    }
}
