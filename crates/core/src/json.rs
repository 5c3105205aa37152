//! The workspace's one JSON reader and string escaper.
//!
//! Dependency-free and deliberately small: an owned [`Json`] value, a
//! recursive-descent [`parse`] whose nesting is capped at [`MAX_DEPTH`] (a
//! hostile `[[[[…` is an ordinary error, not a stack overflow), and
//! [`write_str`], the only place a Rust string becomes a JSON string.
//! [`crate::diag`] (diagnostics schema) and [`crate::obs`] (Chrome
//! `trace_event` export and validation) keep only their schema code on top.

/// Deepest array/object nesting [`parse`] accepts. Chrome traces,
/// diagnostics and `BENCHMARK.json` nest four levels at most.
pub const MAX_DEPTH: usize = 128;

/// An owned JSON value (numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on a non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        input,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct JsonParser<'a> {
    input: &'a str,
    /// Byte offset; only ever advanced past whole characters, so it always
    /// sits on a char boundary of `input`.
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self
            .input
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word))
        {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            fields.push((key, val));
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

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
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

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both are ASCII, so the run ends on a char boundary and the
            // rest of the input is never re-validated.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            s.push_str(self.input.get(start..self.pos).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape whose backslash has just been consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `XXXX` of a `\uXXXX`; a high surrogate followed by `\u` + low
    /// surrogate is one scalar, any other surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.input.get(self.pos..self.pos + 2) == Some("\\u") {
            let after_hi = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let scalar = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'));
            }
            // Not a pair: the second escape is decoded on its own.
            self.pos = after_hi;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.input
            .get(start..self.pos)
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\nyA"], "b": null, "c": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str().unwrap(),
            "x\nyA"
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "[{]",
            "{} extra",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"open",
            "+1",
            "1e",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "input: {bad}");
        }
    }

    #[test]
    fn every_escape_decodes_and_multibyte_text_survives() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041 ünï·µ😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tA ünï·µ😀"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar_and_lone_ones_to_fffd() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\uD83D\uDE00!""#).unwrap().as_str(), Some("😀!"));
        // Lone high, lone low, high followed by a non-surrogate escape,
        // high at end of string.
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(parse(r#""\ude00""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(
            parse(r#""\ud83d\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        assert_eq!(parse(r#""\ud83d""#).unwrap().as_str(), Some("\u{fffd}"));
        assert!(parse(r#""\ud83d\u00""#).is_err());
        // What the escaper writes reads back as written.
        let mut out = String::new();
        write_str(&mut out, "a😀\u{1}\"\\\n");
        assert_eq!(out, "\"a😀\\u0001\\\"\\\\\\n\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some("a😀\u{1}\"\\\n"));
    }

    #[test]
    fn nesting_is_capped_not_overflowed() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let mixed = format!("{}1{}", "{\"a\":[".repeat(64), "]}".repeat(64));
        assert!(parse(&mixed).is_ok());
        // Siblings do not accumulate depth.
        let wide = format!("[{}[]]", "[[]],".repeat(1_000));
        assert!(parse(&wide).is_ok());
    }
}
