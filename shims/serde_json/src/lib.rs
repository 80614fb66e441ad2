//! Offline stand-in for `serde_json`: a small JSON writer and recursive
//! descent parser over the `serde` shim's [`Value`] model.

pub use serde::Value;
use std::fmt::Write as _;

/// JSON serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write(value, None))
}

/// Serializes `value` to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write(value, Some(2)))
}

/// Writes `value`, reading a [`Value`] in place rather than copying it.
fn write<T: serde::Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::new();
    match value.as_value() {
        Some(v) => write_value(v, &mut out, indent, 0),
        None => write_value(&value.to_value(), &mut out, indent, 0),
    }
    out
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Uint(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                let start = out.len();
                let _ = write!(out, "{f}");
                // Keep a float marker so the value parses back as a float.
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    const SPACES: &str = "                                ";
    if let Some(width) = indent {
        out.push('\n');
        let mut left = width * depth;
        while left > 0 {
            let n = left.min(SPACES.len());
            out.push_str(&SPACES[..n]);
            left -= n;
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole UTF-8 sequences and can be pushed as they stand.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Decode a surrogate pair if present.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.eat_keyword("\\u") {
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| Error::new("bad \\u escape"))?);
                            continue;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::new("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::Uint)
                .map_err(|_| Error::new(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(from_str::<u32>(&to_string(&7u32).unwrap()).unwrap(), 7);
        assert_eq!(from_str::<i64>("-12").unwrap(), -12);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb \\u0041\"").unwrap(), "a\nb A");
    }

    #[test]
    fn round_trips_containers() {
        let v = vec![1u64, 2, 3];
        assert_eq!(from_str::<Vec<u64>>(&to_string(&v).unwrap()).unwrap(), v);
        let opt: Option<String> = Some("hi \"quoted\"".into());
        let s = to_string(&opt).unwrap();
        assert_eq!(from_str::<Option<String>>(&s).unwrap(), opt);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![(1u32, "a".to_string()), (2, "b".to_string())];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Vec<(u32, String)>>(&s).unwrap(), v);
    }

    #[test]
    fn strings_escape_char_by_char() {
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out
        }
        let control: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "a\"b\\c\nd\re\tf",
            control.as_str(),
            "ünïcødé → \u{7f} 😀 \"q\" ü\\",
        ] {
            assert_eq!(to_string(s).unwrap(), reference(s), "{s:?}");
            assert_eq!(from_str::<String>(&to_string(s).unwrap()).unwrap(), s);
        }
    }

    #[test]
    fn a_value_writes_in_place_as_its_copy_would() {
        struct Copied(Value);
        impl serde::Serialize for Copied {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let mut v = Value::Uint(7);
        for depth in 0..24 {
            v = Value::Object(vec![
                (format!("k{depth}"), v),
                ("n".to_string(), Value::Int(-depth)),
                ("f".to_string(), Value::Float(depth as f64 / 4.0)),
            ]);
        }
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, to_string_pretty(&Copied(v.clone())).unwrap());
        assert_eq!(
            to_string(&v).unwrap(),
            to_string(&Copied(v.clone())).unwrap()
        );
        assert!(pretty.contains(&format!("\n{}\"k0\": 7", " ".repeat(2 * 24))));
        assert!(pretty.contains("\"f\": 1.0"));
    }

    #[test]
    fn float_marker_survives() {
        let s = to_string(&3.0f64).unwrap();
        assert_eq!(s, "3.0");
        assert_eq!(from_str::<f64>(&s).unwrap(), 3.0);
    }
}
