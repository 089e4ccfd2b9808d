//! The workspace's one JSON: a value tree with exact integers and
//! ordered objects, one compact writer (`Display`), one pretty writer
//! ([`Json::pretty`]) and one total parser ([`Json::parse`]). It carries
//! the `Stats` / `MetricsDump` bodies between farmd, fedd and farmctl,
//! and the JSON-lines event log.
//!
//! Integer text parses to [`Json::U64`] / [`Json::I64`], so counters and
//! nanosecond clocks above 2⁵³ survive a parse → merge → render hop; and
//! objects keep document order, so parse → render reproduces a document
//! this module wrote byte for byte.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Input nested
/// deeper is an `Err`, so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer (what the parser yields for any integer
    /// text that fits).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

json_from! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::U64(v),
    u32 => |v| Json::U64(v.into()),
    f64 => |v| Json::F64(v),
    &str => |v| Json::Str(v.into()),
    String => |v| Json::Str(v),
    &String => |v| Json::Str(v.clone()),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// This object with one more member (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object (a bug in the caller).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.into(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// Member of an object by key; `None` for other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The value as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Any number, as a float (integers above 2⁵³ round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline. The
    /// compact form is the `Display` impl.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one writer: `indent` is `None` for compact output, the current
    /// nesting level for pretty output.
    fn write<W: fmt::Write>(&self, out: &mut W, indent: Option<usize>) -> fmt::Result {
        let newline = |out: &mut W, level: usize| -> fmt::Result {
            if indent.is_some() {
                out.write_char('\n')?;
                for _ in 0..level {
                    out.write_str("  ")?;
                }
            }
            Ok(())
        };
        let inner = indent.map(|level| level + 1);
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::U64(n) => write!(out, "{n}"),
            Json::I64(n) => write!(out, "{n}"),
            Json::F64(x) if x.is_finite() => write!(out, "{x}"),
            Json::F64(_) => out.write_str("null"),
            Json::Str(s) => escape(out, s),
            Json::Arr(items) if items.is_empty() => out.write_str("[]"),
            Json::Obj(members) if members.is_empty() => out.write_str("{}"),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline(out, inner.unwrap_or(0))?;
                    item.write(out, inner)?;
                }
                newline(out, indent.unwrap_or(0))?;
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline(out, inner.unwrap_or(0))?;
                    escape(out, key)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    value.write(out, inner)?;
                }
                newline(out, indent.unwrap_or(0))?;
                out.write_char('}')
            }
        }
    }

    /// Parses one JSON document. Total: any input is `Ok` or `Err`, never
    /// a panic, in time linear in the input, with nesting capped at 128
    /// levels. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error with its byte offset.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(p.error("trailing data"));
        }
        Ok(value)
    }
}

/// Compact rendering: no whitespace anywhere.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// Writes `s` as a quoted JSON string; unescaped runs go out as slices.
fn escape<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("bad literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => self.sequence(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => {
                let member = |p: &mut Self| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                self.sequence(b'}', member).map(Json::Obj)
            }
            Some(_) => self.number(),
        }
    }

    /// The comma-separated items between the bracket at `pos` and `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or a closing bracket"));
            }
        }
    }

    /// One pass: unescaped runs are copied as slices (`"` and `\` are
    /// ASCII, so every cut falls on a character boundary).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected string"));
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character named by the escape whose `\` was just consumed.
    fn unescape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                // A surrogate pair names one character outside the BMP.
                let code = if (0xd800..0xdc00).contains(&hi) && self.eat(b'\\') && self.eat(b'u') {
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Integer text becomes an exact integer; everything else (and
    /// integers beyond 64 bits) a finite float. `-0` stays a float: the
    /// integer 0 would lose its sign.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Ok(n) = text.parse() {
            return Ok(Json::U64(n));
        }
        if let Some(n) = text.parse().ok().filter(|n| *n < 0) {
            return Ok(Json::I64(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_parse_exactly_and_escapes_decode() {
        let doc = Json::parse(
            r#"[18446744073709551615, -9223372036854775808, -0, 1e3, 2.50,
                18446744073709551616, "\ud83d\ude00\u00e9\/"]"#,
        )
        .unwrap();
        let head = &doc.as_arr().unwrap()[..3];
        assert_eq!(head[..2], [Json::U64(u64::MAX), Json::I64(i64::MIN)]);
        assert!(matches!(head[2], Json::F64(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(
            doc.to_string(),
            "[18446744073709551615,-9223372036854775808,-0,1000,2.5,18446744073709552000,\"😀é/\"]"
        );
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1, 2,]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"abc",
            "{\"a\":1}x",
            "nan",
            "-",
            "1e",
            "1e999",
            "{'a':1}",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\u12g4\"",
            "\"\\x\"",
            "\"a\nb\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// At the parent both readers recursed once per `[`: a megabyte of
    /// them overflowed the stack and aborted the daemon.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parsed = std::thread::spawn(|| Json::parse(&"[".repeat(1_000_000)))
            .join()
            .expect("parser must not overflow a default-size thread stack");
        assert!(parsed.unwrap_err().contains("nesting too deep"));
        let fits = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&fits).is_ok());
        assert!(Json::parse(&format!("[{fits}]")).is_err());
    }

    /// The reader this one replaced re-validated the rest of the buffer
    /// per character: 400 kB took 2.2 s, 4 MB would take minutes.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é\\n".repeat(1 << 20);
        let doc = format!("{{\"k\":\"{body}\"}}");
        assert!(doc.len() > 4_000_000);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "4 MB string took {:?}",
            started.elapsed()
        );
        assert_eq!(
            parsed.get("k").and_then(Json::as_str).map(str::len),
            Some(3 << 20)
        );
    }
}
