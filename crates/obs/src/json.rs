//! Minimal hand-rolled JSON: string escaping for the encoder side and a
//! recursive-descent parser for the reading side. The parser validates
//! journals and bench documents (`aqo trace-check`) and parses every
//! request line the server reads (`aqo_serve::proto::Request::parse`), so
//! it runs in time linear in its input.
//!
//! The parser accepts standard JSON (RFC 8259) minus two conveniences we
//! never emit: no `\uXXXX` surrogate-pair recombination beyond the basic
//! plane is attempted, and numbers parse through `f64` — except a plain
//! run of decimal digits that fits in `u64`, which is kept exactly
//! ([`JsonValue::Uint`]) so ids and counters above 2^53 survive. That is
//! exactly enough for our own documents without pulling in a dependency.

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn escape_into(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written as decimal digits only that fits in `u64`, exact.
    Uint(u64),
    /// Any other number, via `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Uint(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of a number written as decimal digits only that
    /// fits in `u64`; `None` for every other value (negative, fractional,
    /// exponent form, out of range, or not a number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number bytes at byte {start}"))?;
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Uint(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", *other as char)),
                }
            }
            Some(_) => {
                // Copy the whole run up to the next `"` or `\` at once.
                // Both are ASCII, so in text that came in as `&str` the
                // run ends on a character boundary and is valid UTF-8.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .ok_or("unterminated string")?;
                let text = std::str::from_utf8(&bytes[*pos..*pos + run])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_and_parse_round_trip() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\\ unicode: λ control: \u{1}";
        let mut enc = String::new();
        escape_into(&mut enc, nasty);
        assert_eq!(parse(&enc).unwrap(), JsonValue::Str(nasty.to_string()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len), Some(3));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\": }", "tru", "\"unterminated", "1 2", "{\"a\":1} x"] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        assert_eq!(parse(" { } ").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("42").unwrap().as_num(), Some(42.0));
    }

    #[test]
    fn digit_literals_are_exact_u64() {
        let exact = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(exact("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("0"), Some(0));
        for inexact in ["18446744073709551616", "1e30", "1.5", "1.0", "-3", "2E3"] {
            assert_eq!(exact(inexact), None, "{inexact}");
            assert!(parse(inexact).unwrap().as_num().is_some(), "{inexact} is still a number");
        }
        assert_eq!(parse("9007199254740993").unwrap().as_num(), Some(9_007_199_254_740_992.0));
    }
}
