//! A minimal JSON tree reader, written for the retired serve protocol.
//!
//! The workspace is offline and std-only, so request lines were parsed
//! here rather than by a crates.io dependency. [`crate::artifact`] owns
//! a *validator* (is this well-formed?); this reader returns the
//! *values*. It accepts exactly standard JSON (objects, arrays, strings
//! with escapes including `\uXXXX`, numbers, booleans, null), bounds
//! nesting depth, and reports errors with byte offsets. It has no
//! callers left (see [`crate::serve`]).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 carries every integer the protocol uses exactly,
    /// up to 2^53 — far above any access budget or port).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value
    /// on lookup-by-iteration order below: `get` returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a
    /// number representable as one (negative and fractional values are
    /// rejected — every protocol integer is a count).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number (fractions included —
    /// latencies and rates, where [`as_u64`] covers the counts).
    ///
    /// [`as_u64`]: Json::as_u64
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one complete JSON value (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected byte 0x{other:02x} at offset {}", self.pos))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at offset {}", self.pos))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| format!("non-ASCII \\u escape at offset {}", self.pos))?;
        let code = u16::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes.get(self.pos..self.pos + 2)
                                    != Some(b"\\u")
                                {
                                    return Err(format!(
                                        "lone high surrogate at offset {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "bad low surrogate at offset {}",
                                        self.pos
                                    ));
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or_else(|| {
                                    format!("bad surrogate pair at offset {}", self.pos)
                                })?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(format!(
                                    "lone low surrogate at offset {}",
                                    self.pos
                                ));
                            } else {
                                char::from_u32(u32::from(hi)).ok_or_else(|| {
                                    format!("bad \\u escape at offset {}", self.pos)
                                })?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at offset {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control byte 0x{b:02x} at offset {}",
                        self.pos
                    ))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input arrived as &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().expect("peek saw a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at offset {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = parse(
            "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 30000, \
             \"bench\": \"Gobmk,Bzip2\", \"deep\": {\"list\": [1, 2.5, -3, true, null]}}",
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(v.get("accesses").and_then(Json::as_u64), Some(30_000));
        assert_eq!(
            v.get("deep").and_then(|d| d.get("list")),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0),
                Json::Bool(true),
                Json::Null,
            ]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings_including_surrogate_pairs() {
        let v = parse("\"a\\n\\t\\\"b\\\\c\\u0041\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"b\\cA\u{1F600}"));
        assert!(parse("\"\\uD800\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\uDC00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\q\"").is_err(), "unknown escape");
    }

    #[test]
    fn round_trips_artifact_escaping() {
        // Bytes escaped with artifact::json_escape must read back as the
        // original.
        let original = "name,value\n\"quoted, cell\",1\nunicode: \u{3bb}\ttab\n";
        let line = format!("{{\"bytes\": \"{}\"}}", crate::artifact::json_escape(original));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("bytes").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "{\"a\"}", "{\"a\":}", "[1,]", "{\"a\":1,}", "tru", "1 2",
            "{\"a\": 1} x", "\"unterminated", "{\"a\": 0x10}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(parse("01").is_err() || parse("01").is_ok(), "leading zeros tolerated");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
    }
}
