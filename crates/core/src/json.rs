//! The workspace's one JSON reader and string escaper.
//!
//! Dependency-free and deliberately small: an owned [`Json`] value, a
//! [`parse`] that keeps open containers on the heap and caps their nesting
//! at [`MAX_DEPTH`] (a hostile `[[[[…` is an ordinary error, not a stack
//! overflow), and
//! [`write_str`], the only place a Rust string becomes a JSON string.
//! [`crate::diag`] (diagnostics schema) and [`crate::obs`] (Chrome
//! `trace_event` export and validation) keep only their schema code on top.

/// Deepest array/object nesting [`parse`] accepts. Chrome traces,
/// diagnostics and `BENCHMARK.json` nest four levels at most. Parsing does
/// not recurse; dropping a [`Json`] does, a few frames per level: the
/// deepest accepted documents parse and drop on a 40 KiB stack in a debug
/// build (128 nested objects overflow 32 KiB, 128 nested arrays 24 KiB)
/// and on 8 KiB in release, measured with rustc 1.95 on x86-64.
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
    let mut p = JsonParser { input, pos: 0 };
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

    /// One value, containers included, without recursion: each open
    /// container waits on `open` with the key of its pending field (empty
    /// in an array), so the stack a document needs does not grow with its
    /// nesting; only the heap does, up to [`MAX_DEPTH`] entries.
    fn value(&mut self) -> Result<Json, String> {
        let mut open: Vec<(Json, String)> = Vec::new();
        loop {
            self.skip_ws();
            let mut v = match self.peek() {
                Some(b'[') => Json::Arr(Vec::new()),
                Some(b'{') => Json::Obj(Vec::new()),
                Some(b'"') => Json::Str(self.string()?),
                Some(b't') => self.lit("true", Json::Bool(true))?,
                Some(b'f') => self.lit("false", Json::Bool(false))?,
                Some(b'n') => self.lit("null", Json::Null)?,
                Some(b'-' | b'0'..=b'9') => self.number()?,
                Some(_) => return Err(self.err("expected a value")),
                None => return Err(self.err("unexpected end of input")),
            };
            if matches!(v, Json::Arr(_) | Json::Obj(_)) {
                if open.len() == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 128 levels"));
                }
                self.pos += 1;
                if !self.closes(&v) {
                    let key = self.key_of(&v)?;
                    open.push((v, key));
                    continue;
                }
            }
            // Hand `v` to its container; a container that closes is the next `v`.
            loop {
                let Some((mut container, key)) = open.pop() else {
                    return Ok(v);
                };
                match &mut container {
                    Json::Obj(fields) => fields.push((key, v)),
                    Json::Arr(items) => items.push(v),
                    _ => {}
                }
                if self.closes(&container) {
                    v = container;
                    continue;
                }
                if self.peek() != Some(b',') {
                    return Err(self.err("expected ',' or a closing bracket"));
                }
                self.pos += 1;
                let key = self.key_of(&container)?;
                open.push((container, key));
                break;
            }
        }
    }

    /// Skips whitespace; consumes `container`'s closing bracket if it is next.
    fn closes(&mut self, container: &Json) -> bool {
        self.skip_ws();
        let close = match container {
            Json::Arr(_) => b']',
            _ => b'}',
        };
        let hit = self.peek() == Some(close);
        self.pos += usize::from(hit);
        hit
    }

    /// The `"key":` an object's next field starts with (none in an array).
    fn key_of(&mut self, container: &Json) -> Result<String, String> {
        if !matches!(container, Json::Obj(_)) {
            return Ok(String::new());
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(key)
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
