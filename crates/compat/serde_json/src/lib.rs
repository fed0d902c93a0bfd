//! Offline stand-in for the `serde_json` crate.
//!
//! Renders and parses JSON text over the vendored `serde::Value` tree.
//! Covers the workspace's call surface: [`to_string`], [`to_string_pretty`],
//! [`from_str`], the [`json!`] macro, and [`Value`]/[`Error`]/[`Result`].
//! Strings escape the JSON control set (with `\uXXXX` for other control
//! characters) and emit non-ASCII text as raw UTF-8, like the real crate;
//! the parser handles `\uXXXX` escapes including surrogate pairs.

pub use serde::Error;
pub use serde::Value;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserializes a `T` from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Converts any serializable value into a [`Value`] tree (the `json!`
/// macro's escape hatch for expression operands).
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] with JSON-literal syntax.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::json_array!([ $($tt)* ]) };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut entries: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_object!(entries, $($tt)*);
        $crate::Value::Object(entries)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal: array form of [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array_items!(items, $($tt)*);
        $crate::Value::Array(items)
    }};
}

/// Internal: array-element muncher for [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_items {
    ($items:ident,) => {};
    ($items:ident) => {};
    ($items:ident, null $(, $($rest:tt)*)?) => {
        $items.push($crate::Value::Null);
        $( $crate::json_array_items!($items, $($rest)*); )?
    };
    ($items:ident, { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $items.push($crate::json!({ $($v)* }));
        $( $crate::json_array_items!($items, $($rest)*); )?
    };
    ($items:ident, [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $items.push($crate::json!([ $($v)* ]));
        $( $crate::json_array_items!($items, $($rest)*); )?
    };
    ($items:ident, $v:expr , $($rest:tt)*) => {
        $items.push($crate::json!($v));
        $crate::json_array_items!($items, $($rest)*);
    };
    ($items:ident, $v:expr) => {
        $items.push($crate::json!($v));
    };
}

/// Internal: object-entry muncher for [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($entries:ident,) => {};
    ($entries:ident) => {};
    ($entries:ident, $key:literal : null $(, $($rest:tt)*)?) => {
        $entries.push(($key.to_string(), $crate::Value::Null));
        $( $crate::json_object!($entries, $($rest)*); )?
    };
    ($entries:ident, $key:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $entries.push(($key.to_string(), $crate::json!({ $($v)* })));
        $( $crate::json_object!($entries, $($rest)*); )?
    };
    ($entries:ident, $key:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $entries.push(($key.to_string(), $crate::json!([ $($v)* ])));
        $( $crate::json_object!($entries, $($rest)*); )?
    };
    ($entries:ident, $key:literal : $v:expr , $($rest:tt)*) => {
        $entries.push(($key.to_string(), $crate::json!($v)));
        $crate::json_object!($entries, $($rest)*);
    };
    ($entries:ident, $key:literal : $v:expr) => {
        $entries.push(($key.to_string(), $crate::json!($v)));
    };
}

// ---- rendering ------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest representation that round-trips
                // (and always includes a decimal point or exponent).
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
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
                write_value(out, item, indent, depth + 1);
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
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parsing --------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (the real crate's
/// default recursion limit). The parser recurses once per level, so
/// without a bound a few hundred kilobytes of `[` would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Parses JSON text into a [`Value`] tree. Nesting deeper than 128
/// arrays/objects is an error.
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

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

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
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
        match self.peek() {
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("expected a JSON value"))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("expected a JSON value"))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("expected a JSON value"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
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
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<()> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect `\uXXXX` low half.
                    self.eat(b'\\')?;
                    self.eat(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = json!({
            "a": 1,
            "b": [1.5, -2, "x"],
            "c": {"nested": true, "n": null},
        });
        let text = to_string(&v).unwrap();
        assert_eq!(parse_value(&text).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote \" backslash \\ newline \n tab \t unicode é 日本 🌊 ctrl \u{01}";
        let text = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v: String = from_str(r#""é 🌊""#).unwrap();
        assert_eq!(v, "é 🌊");
    }

    #[test]
    fn floats_round_trip() {
        for f in [0.1, 1.0, -3.25, 1e-9, 1234.5678] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(parse_value("not json").is_err());
        assert!(parse_value(r#"{"a":}"#).is_err());
        assert!(parse_value("[1,2").is_err());
        assert!(from_str::<u64>("\"x\"").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest(MAX_DEPTH + 1)).is_err());
        // Objects count too: 2k + 1 levels of `[{"a": … [] … }]`.
        let mixed = |k: usize| "[{\"a\":".repeat(k) + "[]" + &"}]".repeat(k);
        assert!(parse_value(&mixed(63)).is_ok());
        assert!(parse_value(&mixed(64)).is_err());
        // 100,000 levels: an error, not a stack overflow.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&nest(100_000)).is_err());
    }

    #[test]
    fn json_macro_accepts_expressions() {
        let n = 3usize;
        let v = json!({"count": n, "rate": n as f64 / 2.0, "flags": [true, false]});
        assert_eq!(v.get("count"), Some(&Value::UInt(3)));
        assert_eq!(v.get("rate"), Some(&Value::Float(1.5)));
    }
}
