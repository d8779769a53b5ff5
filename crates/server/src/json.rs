//! A minimal JSON value builder, streaming serializer and parser.
//!
//! The wire protocol *emits* JSON everywhere and *reads* it in exactly
//! one place: the body of `POST /query`, a batch of sub-queries. [`Json`]
//! covers the value shapes the endpoints build, with `From` impls keeping
//! handler code terse; [`Json::parse`] is a strict recursive-descent
//! RFC 8259 parser sized for request bodies (depth-limited, no trailing
//! garbage).
//!
//! Serialization goes through [`Json::write_into`], which renders the
//! tree directly into any [`Write`] — a `Vec<u8>` for the buffered
//! fast path ([`Json::render`]), or the bare or gzip-wrapped response
//! writer of a streamed response. The [`Json::Stream`] variant holds a
//! [`StreamFragment`] that renders lazily at write time, so a response
//! carrying a cached million-edge list never materializes a body-sized
//! `String`: the tree holds an `Arc` to the artifact and the edges are
//! formatted straight into the socket.

use std::io::{self, Write};
use std::sync::Arc;

/// A JSON fragment rendered lazily, straight into the response writer.
///
/// Implementors hold `Arc`s to cached data (an artifact's edge list, a
/// metric result) and write one complete JSON value — rendering must be
/// deterministic, since repeated identical requests are byte-compared.
pub trait StreamFragment: Send + Sync {
    /// Writes the fragment's complete JSON form (one valid JSON value).
    fn write_json(&self, out: &mut dyn Write) -> io::Result<()>;
}

/// A JSON value under construction.
#[derive(Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any integer (emitted without a decimal point).
    Int(i128),
    /// A float; non-finite values serialize as `null` per RFC 8259.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// A lazily-rendered fragment (large arrays streamed from cached
    /// `Arc` data). Never produced by [`Json::parse`].
    Stream(Arc<dyn StreamFragment>),
    /// A preformatted non-JSON body rendered verbatim, carrying its own
    /// `content-type` (Prometheus text exposition). Never produced by
    /// [`Json::parse`].
    Text {
        /// The `content-type` header value to declare.
        content_type: &'static str,
        /// The raw body text.
        body: String,
    },
}

impl std::fmt::Debug for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => write!(f, "Null"),
            Json::Bool(b) => f.debug_tuple("Bool").field(b).finish(),
            Json::Int(i) => f.debug_tuple("Int").field(i).finish(),
            Json::Float(x) => f.debug_tuple("Float").field(x).finish(),
            Json::Str(s) => f.debug_tuple("Str").field(s).finish(),
            Json::Arr(items) => f.debug_tuple("Arr").field(items).finish(),
            Json::Obj(fields) => f.debug_tuple("Obj").field(fields).finish(),
            Json::Stream(_) => write!(f, "Stream(..)"),
            Json::Text { content_type, .. } => f.debug_tuple("Text").field(content_type).finish(),
        }
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Float(a), Json::Float(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            // Fragments compare by identity — equality of rendered
            // output would defeat the point of not rendering.
            (Json::Stream(a), Json::Stream(b)) => Arc::ptr_eq(a, b),
            (
                Json::Text {
                    content_type: ta,
                    body: ba,
                },
                Json::Text {
                    content_type: tb,
                    body: bb,
                },
            ) => ta == tb && ba == bb,
            _ => false,
        }
    }
}

impl Json {
    /// An empty object to extend with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds/chains a field on an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("set() on non-object {other:?}"),
        }
        self
    }

    /// Parses JSON text into a [`Json`] value. Strict: rejects trailing
    /// characters, unterminated values, invalid escapes and nesting
    /// deeper than 64 levels (the batch endpoint only needs an array of
    /// flat objects). Error messages are client-facing.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!(
                "trailing characters after JSON value at byte {}",
                parser.pos
            ));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Every dotted key path down to the leaves of an object tree, one
    /// per line in sorted order: the shape of a body independent of its
    /// values. `scripts/metrics_schema.txt` holds it for `/metrics`.
    pub fn key_schema(&self) -> String {
        fn walk(json: &Json, prefix: &str, out: &mut Vec<String>) {
            match json.entries() {
                Some(entries) if !entries.is_empty() => {
                    for (key, value) in entries {
                        let path = if prefix.is_empty() {
                            key.clone()
                        } else {
                            format!("{prefix}.{key}")
                        };
                        walk(value, &path, out);
                    }
                }
                _ => out.push(prefix.to_string()),
            }
        }
        let mut paths = Vec::new();
        walk(self, "", &mut paths);
        paths.sort_unstable();
        paths.join("\n") + "\n"
    }

    /// The first value of object field `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether this tree contains a [`Json::Stream`] fragment — the
    /// server's signal to use the chunked streaming response path
    /// instead of rendering a fixed-length body.
    pub fn is_streaming(&self) -> bool {
        match self {
            Json::Stream(_) => true,
            Json::Arr(items) => items.iter().any(Json::is_streaming),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.is_streaming()),
            _ => false,
        }
    }

    /// Serializes to compact JSON text (buffered; fragments render too).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_into(&mut out).expect("Vec write cannot fail");
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// Streams compact JSON text into `out`. This is *the* serializer:
    /// [`Json::render`] wraps it over a `Vec<u8>`, and streamed
    /// responses hand it their response writer (behind gzip when
    /// negotiated), so rendering never buffers more than one frame.
    pub fn write_into(&self, out: &mut dyn Write) -> io::Result<()> {
        match self {
            Json::Null => out.write_all(b"null"),
            Json::Bool(b) => out.write_all(if *b { b"true" } else { b"false" }),
            Json::Int(i) => write!(out, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(out, "{x}")
                } else {
                    out.write_all(b"null")
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.write_all(b"[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    item.write_into(out)?;
                }
                out.write_all(b"]")
            }
            Json::Obj(fields) => {
                out.write_all(b"{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    escape_into(k, out)?;
                    out.write_all(b":")?;
                    v.write_into(out)?;
                }
                out.write_all(b"}")
            }
            Json::Stream(fragment) => fragment.write_json(out),
            Json::Text { body, .. } => out.write_all(body.as_bytes()),
        }
    }
}

fn escape_into(s: &str, out: &mut dyn Write) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        // Multi-byte UTF-8 units are >= 0x80 and pass through in runs.
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            b if b < 0x20 => {
                out.write_all(&bytes[start..i])?;
                write!(out, "\\u{b:04x}")?;
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.write_all(&bytes[start..i])?;
        out.write_all(escape)?;
        start = i + 1;
    }
    out.write_all(&bytes[start..])?;
    out.write_all(b"\"")
}

/// Maximum nesting depth [`Json::parse`] accepts (guards the recursion
/// against adversarial `[[[[…]]]]` bodies).
const MAX_PARSE_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `literal` or errors.
    fn expect_lit(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(format!("expected {literal:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_PARSE_DEPTH {
            return Err("JSON nested deeper than 64 levels".to_string());
        }
        match self.peek() {
            Some(b'n') => self.expect_lit("null").map(|()| Json::Null),
            Some(b't') => self.expect_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect_lit("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of JSON".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_lit(":")?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 bytes in JSON string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired \uXXXX.
                                self.expect_lit("\\u")
                                    .map_err(|_| "unpaired surrogate".to_string())?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => return Err("unescaped control byte in string".to_string()),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // Require four hex *digits*: from_str_radix alone would also
        // accept sign-prefixed forms like "\u+123".
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        // FromStr alone is laxer than the RFC 8259 grammar (it accepts
        // "01" and "1."), so validate the token shape first.
        if !valid_number_token(text.as_bytes()) {
            return Err(format!("invalid number {text:?}"));
        }
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number {text:?}"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("invalid number {text:?}"))
        }
    }
}

/// Whether `token` matches RFC 8259's number grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn valid_number_token(token: &[u8]) -> bool {
    let mut i = 0;
    if token.get(i) == Some(&b'-') {
        i += 1;
    }
    match token.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(token.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    if token.get(i) == Some(&b'.') {
        i += 1;
        if !matches!(token.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(token.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    if matches!(token.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(token.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !matches!(token.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(token.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    i == token.len()
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

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}

impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u32).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::from("héllo").render(), "\"héllo\"");
    }

    #[test]
    fn nested_structure() {
        let v = Json::obj()
            .set("name", "x")
            .set(
                "counts",
                Json::Arr(vec![Json::from(1u32), Json::from(2u32)]),
            )
            .set("nested", Json::obj().set("ok", true));
        assert_eq!(
            v.render(),
            r#"{"name":"x","counts":[1,2],"nested":{"ok":true}}"#
        );
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_array_panics() {
        let _ = Json::Arr(vec![]).set("k", 1u32);
    }

    struct Edges(Vec<(u32, u32)>);

    impl StreamFragment for Edges {
        fn write_json(&self, out: &mut dyn Write) -> io::Result<()> {
            out.write_all(b"[")?;
            for (n, &(i, j)) in self.0.iter().enumerate() {
                if n > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "[{i},{j}]")?;
            }
            out.write_all(b"]")
        }
    }

    #[test]
    fn stream_fragments_render_lazily_and_mark_the_tree() {
        let fragment: Arc<dyn StreamFragment> = Arc::new(Edges(vec![(0, 1), (0, 2)]));
        let body = Json::obj()
            .set("n", 2u32)
            .set("edges", Json::Stream(Arc::clone(&fragment)));
        assert!(body.is_streaming());
        assert!(!Json::obj().set("n", 2u32).is_streaming());
        assert_eq!(body.render(), r#"{"n":2,"edges":[[0,1],[0,2]]}"#);
        // write_into and render agree byte for byte.
        let mut streamed = Vec::new();
        body.write_into(&mut streamed).unwrap();
        assert_eq!(streamed, body.render().into_bytes());
        // Fragments compare by identity, not content.
        assert_eq!(
            Json::Stream(Arc::clone(&fragment)),
            Json::Stream(Arc::clone(&fragment))
        );
        assert_ne!(
            Json::Stream(fragment),
            Json::Stream(Arc::new(Edges(vec![(0, 1), (0, 2)])))
        );
    }

    #[test]
    fn write_into_matches_render_for_all_shapes() {
        let v = Json::obj()
            .set("s", "a\"b\\c\nd\u{1}é")
            .set(
                "xs",
                Json::Arr(vec![Json::Null, Json::from(1.5), Json::from(-7i64)]),
            )
            .set("nested", Json::obj().set("ok", true));
        let mut streamed = Vec::new();
        v.write_into(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), v.render());
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("-0.5e-1").unwrap(), Json::Float(-0.05));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
        assert_eq!(Json::parse(" 1 ").unwrap(), Json::Int(1));
    }

    #[test]
    fn parse_structures_and_accessors() {
        let v = Json::parse(r#"[{"dataset":"d","op":"slg","s":2,"weighted":true}, 5]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("dataset").and_then(Json::as_str), Some("d"));
        assert_eq!(items[0].get("s").and_then(Json::as_int), Some(2));
        assert_eq!(items[0].get("weighted").and_then(Json::as_bool), Some(true));
        assert_eq!(items[0].get("missing"), None);
        assert_eq!(items[1].as_int(), Some(5));
        assert_eq!(items[1].as_str(), None);
        assert_eq!(items[0].entries().unwrap().len(), 4);
    }

    #[test]
    fn parse_render_roundtrip() {
        for text in [
            r#"{"a":[1,2.5,null,true],"b":{"c":"x\ny"},"d":[]}"#,
            r#"[{"k":"héllo"},-3]"#,
            "{}",
            "[]",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Json::from("a\"b\\c\ndAé")
        );
        // Surrogate pair escape for 𝄞 (U+1D11E), and the literal form.
        assert_eq!(
            Json::parse(r#""\ud834\udd1e""#).unwrap(),
            Json::from("\u{1D11E}")
        );
        assert_eq!(Json::parse("\"𝄞\"").unwrap(), Json::from("\u{1D11E}"));
        assert!(Json::parse(r#""\ud834""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\x""#).is_err(), "unknown escape");
        assert!(Json::parse(r#""\u+123""#).is_err(), "sign-prefixed hex");
        assert!(Json::parse(r#""\u12""#).is_err(), "truncated hex");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "1 2",
            "nul",
            "\"unterminated",
            "01a",
            "--3",
            // RFC 8259 number grammar: no leading zeros, no bare dots
            // or exponents, no interior signs.
            "01",
            "-01",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            "2-3",
            "1+2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
        // Depth bomb is rejected, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok_depth = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok_depth).is_ok());
    }
}
