//! Minimal self-contained JSON: a value model, a strict parser, and a
//! writer, with no external dependencies.
//!
//! The parser is one borrowed pull [`Reader`]: [`Json::parse`] builds a
//! tree with it, and large documents (model checkpoints) can walk it
//! step by step instead, borrowing number literals from the input. Each
//! step is linear in the bytes it reads: strings are copied run by run,
//! and duplicate object keys are found with a hash set.
//!
//! Lives in `rebert-obs` (the workspace's base crate) so both the
//! tracing exporters here and the higher layers — model checkpointing
//! (`rebert::persist`), the `rebert-serve` daemon's request/response
//! bodies, `rebert-analyze` reports — share one implementation without
//! pulling a JSON crate into the hot loop. `rebert` re-exports it as
//! `rebert::json`, which is the name the rest of the workspace uses.
//! Numbers keep their literal text ([`Json::Num`]): the writer emits the
//! shortest round-trip representation of the value it was given, and the
//! reader re-parses the literal at the requested width, so `f32`
//! checkpoints survive a save/load cycle bit-for-bit.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

/// A parsed (or to-be-written) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the error.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A number value from anything float-like; non-finite values become
    /// `null` (JSON has no NaN/Inf).
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// A number value from an `f32`, written with `f32` shortest
    /// round-trip precision.
    pub fn num_f32(v: f32) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// A number value from an unsigned integer.
    pub fn uint(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The number re-parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number re-parsed as `f32` (directly from the literal, so an
    /// `f32` written with [`Json::num_f32`] round-trips exactly).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number re-parsed as `u64` (rejects fractions and signs).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number re-parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(s) => f.write_str(s),
            Json::Str(s) => write_json_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal with escaping.
pub fn write_json_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_str("\"")
}

/// Recursion guard: netlist/checkpoint documents are shallow, so a tight
/// bound keeps malicious request bodies from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// What the next value in a [`Reader`] is, judged from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one borrowed JSON document: the grammar behind
/// [`Json::parse`], exposed step by step so a caller can decode a large
/// document without building a [`Json`] tree for it.
///
/// [`Reader::object`] and [`Reader::array`] hand each member to a
/// closure, which must consume exactly one value with another step;
/// [`Reader::number`] borrows a number's literal text,
/// [`Reader::flat_array`] borrows the unread text of an array of
/// scalars, [`Reader::value`] builds a [`Json`] tree, and
/// [`Reader::finish`] rejects trailing bytes.
/// Every step enforces the same rules as [`Json::parse`]: duplicate
/// object keys, the nesting bound, escapes and number syntax, except on
/// the elements [`Reader::flat_array`] leaves unread.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open containers whose members are being read.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The kind of the next value, without consuming it (`None` at the
    /// end of input or on a byte no value starts with).
    pub fn peek(&mut self) -> Option<Kind> {
        self.skip_ws();
        Some(match self.byte()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Arr,
            b'{' => Kind::Obj,
            b'-' | b'0'..=b'9' => Kind::Num,
            _ => return None,
        })
    }

    /// Reads the next value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key.to_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(self.number()?.to_owned())),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads an array, calling `item` once per element; `item` must
    /// consume exactly that element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        self.eat(b'[')?;
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.member()?;
            item(self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads an object, calling `field` once per member with its
    /// (unescaped) key; `field` must consume exactly the member's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        self.eat(b'{')?;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        // Duplicate keys are ambiguous (RFC 8259 leaves the behaviour
        // undefined); checkpoints and request bodies never need them, so
        // reject instead of silently keeping one of the values. A hash
        // set keeps the check linear in the member count.
        let mut seen = HashSet::new();
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.member()?;
            field(self, &key)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Reads an array that holds no string, array or object without
    /// reading its elements, and returns the text between its brackets,
    /// borrowed from the document, so a caller can split it and decode
    /// the scalars elsewhere (on other threads, say). Nothing between the
    /// brackets is checked: the caller owns the elements' grammar.
    ///
    /// Fails, having consumed nothing, when the array is not flat, has
    /// no closing `]`, or would nest past the depth bound; read those
    /// with [`Reader::array`], which reports the precise error.
    pub fn flat_array(&mut self) -> Result<&'a str, JsonError> {
        self.skip_ws();
        let start = self.pos;
        self.eat(b'[')?;
        let body = &self.text.as_bytes()[self.pos..];
        let stop = |b: u8| matches!(b, b']' | b'[' | b'{' | b'"');
        // Whole chunks first: a branch-free test per chunk vectorizes,
        // and a tensor's data runs to hundreds of kilobytes.
        let clear: usize = body
            .chunks(64)
            .take_while(|chunk| !chunk.iter().fold(false, |hit, &b| hit | stop(b)))
            .map(<[u8]>::len)
            .sum();
        let end = body[clear..]
            .iter()
            .position(|&b| stop(b))
            .map(|at| clear + at);
        match end {
            Some(end) if body[end] == b']' && self.depth < MAX_DEPTH => {
                let span = &self.text[self.pos..self.pos + end];
                self.pos += end + 1;
                Ok(span)
            }
            _ => {
                self.pos = start;
                Err(self.err("expected an array of scalars"))
            }
        }
    }

    /// Reads a number and returns its literal text, borrowed from the
    /// document.
    pub fn number(&mut self) -> Result<&'a str, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero-led digit run.
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.byte(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            self.digits();
        }
        Ok(&self.text[start..self.pos])
    }

    /// Ends the document: only whitespace may follow the last value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Moves to the value of an array element or object member, which
    /// sits `depth` containers deep.
    fn member(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    /// Reads a string. Each run up to the next quote, backslash or
    /// control byte is copied whole; those bytes are ASCII, so every run
    /// ends on a char boundary. A string without escapes is borrowed.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let text = self.text;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(run) = text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run;
            let chunk = &text[start..self.pos];
            match text.as_bytes()[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(chunk),
                        Some(mut s) => {
                            s.push_str(chunk);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(chunk);
                    self.pos += 1;
                    let esc = self.byte().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => {
                            return Err(self.err(format!("invalid escape `\\{}`", c as char)));
                        }
                    }
                }
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .byte()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low half.
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn digits(&mut self) {
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.25", "1e-3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny","c":null}],"d":true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn f32_values_survive_exactly() {
        let vals = [
            0.1f32,
            -1.5e-30,
            f32::MIN_POSITIVE,
            1.000_000_1,
            123456790.0,
            f32::MAX,
        ];
        for &x in &vals {
            let text = Json::num_f32(x).to_string();
            let back = Json::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_become_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num_f32(f32::INFINITY), Json::Null);
    }

    #[test]
    fn string_escapes_decode() {
        let v = Json::parse(r#""tab\t quote\" back\\ u\u0041 snow\u2603""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" back\\ uA snow☃"));
        // Surrogate pair (🂡 U+1F0A1).
        let v = Json::parse(r#""\ud83c\udca1""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F0A1}"));
    }

    #[test]
    fn control_chars_escape_on_write() {
        let s = Json::Str("a\u{1}\n".to_owned()).to_string();
        assert_eq!(s, r#""a\u0001\n""#);
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\u{1}\n"));
    }

    #[test]
    fn malformed_documents_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "01",
            "1.",
            "--1",
            "\"\\q\"",
            "\"\u{1}\"",
            "nulL",
            "[1] garbage",
            "\"unterminated",
            r#""\ud800x""#,
            r#"{"a":1,"a":2}"#,
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn duplicate_object_keys_rejected() {
        let err = Json::parse(r#"{"k":1,"b":2,"k":3}"#).unwrap_err();
        assert!(err.message.contains("duplicate object key `k`"), "{err}");
        // Nested objects are checked too; same key at different depths is
        // fine.
        assert!(Json::parse(r#"{"a":{"x":1,"x":2}}"#).is_err());
        assert!(Json::parse(r#"{"a":{"a":1}}"#).is_ok());
        // Escapes are resolved before comparison: "\u0061" is "a".
        assert!(Json::parse(r#"{"a":1,"\u0061":2}"#).is_err());
    }

    // ---- hand-rolled property tests (seeded, deterministic) ----------
    //
    // The generators are driven directly by a seeded ChaCha stream, so
    // every run checks the same cases.

    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// An adversarial string: quotes, backslashes, control characters,
    /// multi-byte scalars, and near-surrogate code points.
    fn gen_string(rng: &mut ChaCha20Rng) -> String {
        const POOL: &[char] = &[
            'a',
            'Z',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '☃',
            '\u{1F0A1}',
            '\u{D7FF}',
            '\u{E000}',
            '\u{FFFD}',
            '{',
            '}',
            '[',
            ']',
            ',',
            ':',
            'é',
        ];
        let len = rng.gen_range(0..8usize);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    fn gen_value(rng: &mut ChaCha20Rng, depth: usize) -> Json {
        let pick = if depth >= 4 {
            rng.gen_range(0..4u32) // leaves only
        } else {
            rng.gen_range(0..6u32)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::num(f64::from(rng.gen_range(-1000i32..1000)) * 0.125),
            3 => Json::Str(gen_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| gen_value(rng, depth + 1))
                    .collect(),
            ),
            _ => {
                let n = rng.gen_range(0..4usize);
                let mut fields: Vec<(String, Json)> = Vec::new();
                for _ in 0..n {
                    let key = gen_string(rng);
                    if fields.iter().any(|(k, _)| *k == key) {
                        continue; // writer output must stay parseable
                    }
                    let v = gen_value(rng, depth + 1);
                    fields.push((key, v));
                }
                Json::Obj(fields)
            }
        }
    }

    #[test]
    fn random_documents_round_trip_exactly() {
        let mut rng = ChaCha20Rng::seed_from_u64(0x5eed1);
        for i in 0..500 {
            let v = gen_value(&mut rng, 0);
            let text = v.to_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {i}: {e}: {text}"));
            assert_eq!(back, v, "case {i}: {text}");
            // Stability: writing the re-parsed value is byte-identical.
            assert_eq!(back.to_string(), text, "case {i}");
        }
    }

    #[test]
    fn mutated_documents_never_panic_and_stay_strict() {
        // Random single-character edits of valid documents: the parser
        // must cleanly accept or reject, and anything accepted must
        // round-trip through its own writer.
        let mut rng = ChaCha20Rng::seed_from_u64(0x5eed2);
        for i in 0..500 {
            let chars: Vec<char> = gen_value(&mut rng, 0).to_string().chars().collect();
            let mut mutated = chars.clone();
            const GLYPHS: &[char] = &['{', '}', '[', ']', '"', ',', ':', '\\', '0', 'e', '-', ' '];
            match rng.gen_range(0..3u32) {
                0 if !mutated.is_empty() => {
                    let at = rng.gen_range(0..mutated.len());
                    mutated[at] = GLYPHS[rng.gen_range(0..GLYPHS.len())];
                }
                1 if !mutated.is_empty() => {
                    mutated.remove(rng.gen_range(0..mutated.len()));
                }
                _ => {
                    let at = rng.gen_range(0..=mutated.len());
                    mutated.insert(at, GLYPHS[rng.gen_range(0..GLYPHS.len())]);
                }
            }
            let text: String = mutated.into_iter().collect();
            if let Ok(v) = Json::parse(&text) {
                let rewritten = v.to_string();
                assert_eq!(
                    Json::parse(&rewritten).as_ref(),
                    Ok(&v),
                    "case {i}: accepted `{text}` but failed to round-trip"
                );
            }
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    /// Parses `text`, failing if that takes longer than `limit`.
    fn parse_within(text: &str, limit: std::time::Duration) -> Result<Json, JsonError> {
        let started = std::time::Instant::now();
        let parsed = Json::parse(text);
        let took = started.elapsed();
        assert!(took < limit, "{} bytes took {took:?}", text.len());
        parsed
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let limit = std::time::Duration::from_secs(10);
        let body = "a".repeat(4 << 20);
        let v = parse_within(&format!("{{\"x\":\"{body}\"}}"), limit).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_str), Some(body.as_str()));
        // Escapes and multi-byte scalars between long runs.
        let run = "é☃x".repeat(1 << 18);
        let v = parse_within(&format!("\"{run}\\n{run}\\u0041\""), limit).unwrap();
        assert_eq!(v.as_str(), Some(format!("{run}\n{run}A").as_str()));
    }

    #[test]
    fn many_keys_parse_in_linear_time() {
        let limit = std::time::Duration::from_secs(10);
        let n = 200_000;
        let fields: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
        let text = format!("{{{}}}", fields.join(","));
        let v = parse_within(&text, limit).unwrap();
        assert_eq!(v.get("k199999").and_then(Json::as_u64), Some(199_999));
        // The last key repeats the first: still caught, still fast.
        let dup = format!("{{{},\"k0\":0}}", fields.join(","));
        let err = parse_within(&dup, limit).unwrap_err();
        assert!(err.message.contains("duplicate object key `k0`"), "{err}");
    }

    #[test]
    fn reader_steps_borrow_literals_and_agree_with_parse() {
        let text = r#" {"n": [1, -0, 2.5e-3], "s": "x", "skip": {"a": [null, true]}} "#;
        let mut r = Reader::new(text);
        assert_eq!(r.peek(), Some(Kind::Obj));
        let (mut nums, mut rest) = (Vec::new(), Vec::new());
        r.object(|r, key| {
            if key == "n" {
                r.array(|r| {
                    assert_eq!(r.peek(), Some(Kind::Num));
                    nums.push(r.number()?);
                    Ok(())
                })
            } else {
                rest.push((key.to_owned(), r.value()?));
                Ok(())
            }
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(nums, ["1", "-0", "2.5e-3"]);
        let whole = Json::parse(text).unwrap();
        assert_eq!(Some(&rest[0].1), whole.get("s"));
        assert_eq!(Some(&rest[1].1), whole.get("skip"));

        let mut r = Reader::new("[1] x");
        r.value().unwrap();
        assert!(r.finish().is_err(), "trailing bytes rejected");
        assert_eq!(Reader::new(" ?").peek(), None);
    }

    #[test]
    fn flat_array_borrows_the_span_or_consumes_nothing() {
        let mut r = Reader::new(" [1, 2.5 ,-0] ");
        assert_eq!(r.flat_array(), Ok("1, 2.5 ,-0"));
        r.finish().unwrap();
        assert_eq!(Reader::new("[]").flat_array(), Ok(""));
        // Unread elements are the caller's to check.
        assert_eq!(Reader::new("[1,,x]").flat_array(), Ok("1,,x"));
        for text in [
            r#"[1,"]"]"#,
            "[1,[2]]",
            r#"[{"a":1}]"#,
            "[1,2",
            "1",
            r#"["a"]"#,
        ] {
            let mut r = Reader::new(text);
            assert!(r.flat_array().is_err(), "{text}");
            // Nothing consumed: the whole value still reads as before.
            assert_eq!(r.value(), Reader::new(text).value(), "{text}");
        }
        // Past one 64-byte chunk, the first stop byte wins wherever it sits.
        for n in 0..150 {
            let run = "7,".repeat(n);
            assert_eq!(
                Reader::new(&format!("[{run}7]")).flat_array(),
                Ok(&*format!("{run}7"))
            );
            for stop in ["[7]]", "\"]\"]", "{}]"] {
                let text = format!("[{run}{stop}");
                assert!(Reader::new(&text).flat_array().is_err(), "{text}");
            }
        }
        // At the nesting bound the step declines, as `array` would.
        fn innermost<'a>(r: &mut Reader<'a>, levels: usize) -> Result<&'a str, JsonError> {
            if levels == 0 {
                return r.flat_array();
            }
            let mut span = Ok("");
            r.array(|r| {
                span = innermost(r, levels - 1);
                span.clone().map(drop)
            })?;
            span
        }
        let nested = |levels| "[".repeat(levels) + "[1]" + &"]".repeat(levels);
        assert_eq!(innermost(&mut Reader::new(&nested(63)), 63), Ok("1"));
        assert!(innermost(&mut Reader::new(&nested(64)), 64).is_err());
        assert!(Json::parse(&nested(63)).is_ok() && Json::parse(&nested(64)).is_err());
    }

    #[test]
    fn typed_accessors() {
        let v = Json::parse("42").unwrap();
        assert_eq!(v.as_u64(), Some(42));
        assert_eq!(v.as_usize(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::uint(7).to_string(), "7");
    }
}
