//! A minimal JSON value: parser and string escaping.
//!
//! The workspace builds offline with no external JSON crate, and the API
//! speaks a handful of small, fixed request and response shapes, so the
//! server hand-rolls the little JSON it needs. This module is the one JSON
//! codec of the workspace: the benches and tests read responses and
//! reports through [`Json`] and quote strings with [`escape`]. The parser is a
//! bounds-checked recursive descent over untrusted request bytes: depth is
//! capped (a `[[[[…` bomb cannot blow the stack), every error is a typed
//! [`JsonError`] with a byte offset, and input size is already capped by
//! the HTTP layer's body limit before a single byte reaches this module.

use std::fmt;

/// Maximum nesting depth accepted from untrusted input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order (later duplicates shadow earlier ones on
    /// [`Json::get`] lookups is *not* true — first match wins).
    Object(Vec<(String, Json)>),
}

/// A parse failure: what was wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What failed.
    pub detail: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.at != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, detail: &str) -> JsonError {
        JsonError {
            detail: detail.to_owned(),
            at: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than the server accepts"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.error("raw control character in string")),
                _ => {
                    // Re-scan a whole UTF-8 scalar from the source slice; the
                    // input is already validated UTF-8 (it arrived as &str).
                    let start = self.at - 1;
                    let rest = &self.bytes[start..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    // Non-empty by construction (`rest` starts at a byte we
                    // just consumed), but typed beats provable on the
                    // untrusted-input path.
                    let Some(c) = text.chars().next() else {
                        return Err(self.error("truncated string"));
                    };
                    out.push(c);
                    self.at = start + c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by `\u` and a
        // low surrogate; anything else is an error (never a panic).
        if (0xd800..=0xdbff).contains(&first) {
            if self.peek() == Some(b'\\') {
                self.at += 1;
                self.expect(b'u')?;
                let second = self.hex4()?;
                if (0xdc00..=0xdfff).contains(&second) {
                    let combined =
                        0x10000 + (((first - 0xd800) as u32) << 10) + (second - 0xdc00) as u32;
                    return char::from_u32(combined).ok_or_else(|| self.error("invalid surrogate"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        if (0xdc00..=0xdfff).contains(&first) {
            return Err(self.error("unpaired low surrogate"));
        }
        char::from_u32(first as u32).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut value: u16 = 0;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => byte - b'0',
                b'a'..=b'f' => byte - b'a' + 10,
                b'A'..=b'F' => byte - b'A' + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            value = (value << 4) | digit as u16;
            self.at += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.error("malformed number"))?;
        let value: f64 = text.parse().map_err(|_| self.error("malformed number"))?;
        if !value.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Json::Number(value))
    }
}

/// Quote and escape a string for JSON output.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let parsed = Json::parse(
            r#"{"utterance": "tweet \"hi\"", "candidates": 3, "principal": null, "ok": true}"#,
        )
        .unwrap();
        assert_eq!(
            parsed.get("utterance").unwrap().as_str(),
            Some("tweet \"hi\"")
        );
        assert_eq!(parsed.get("candidates").unwrap().as_f64(), Some(3.0));
        assert_eq!(parsed.get("principal"), Some(&Json::Null));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("missing"), None);

        let batch =
            Json::parse(r#"{"requests": [{"utterance": "a"}, {"utterance": "b"}]}"#).unwrap();
        assert_eq!(batch.get("requests").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn escapes_and_unicode_roundtrip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t caño 猫 \u{0001}";
        let wire = escape(original);
        let back = Json::parse(&wire).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Surrogate pair.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
    }

    #[test]
    fn hostile_inputs_are_typed_errors_not_panics() {
        let cases = [
            "",
            "{",
            "}",
            "{\"a\"",
            "{\"a\": }",
            "[1, 2",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\ud800 unpaired\"",
            "truelike",
            "1e999",
            "--3",
            "{\"a\": 1} trailing",
            "nul",
            "\u{0007}",
            "{\"k\": \u{0001}}",
        ];
        for case in cases {
            assert!(Json::parse(case).is_err(), "`{case}` unexpectedly parsed");
        }
        // Depth bomb: typed error, not a stack overflow.
        let bomb = "[".repeat(10_000);
        let error = Json::parse(&bomb).unwrap_err();
        assert!(error.detail.contains("nesting"));
    }

    #[test]
    fn numbers_parse_with_signs_and_exponents() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(Json::parse("0").unwrap().as_f64(), Some(0.0));
    }
}
