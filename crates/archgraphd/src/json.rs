//! Minimal JSON for the wire protocol. Hand-rolled on purpose: the
//! workspace's `serde` is an offline no-op shim (derive markers only),
//! and the protocol's values are small single-line objects, so a
//! ~150-line recursive-descent parser plus a writer that mirrors the
//! bench driver's rendering conventions covers everything.
//!
//! The grammar is RFC 8259's, strictly: a number is `-? (0 | [1-9][0-9]*)
//! (. [0-9]+)? ([eE] [+-]? [0-9]+)?` and finite, a string holds no raw
//! control character, and an object names each member once — a request
//! line means one thing to every reader. Parse cost is linear in the line.
//!
//! Numbers parse into [`Json::Num`] as `f64` — exact for every integer
//! the simulators emit (cycle counts stay under 2^53 by orders of
//! magnitude; the watchdog default is 2^36) — and [`Json::as_u64`]
//! round-trips them back to integers only when exact.
//!
//! Reached by: every `archgraphd` op (each request line is JSON).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap: protocol objects are tiny and deterministic
    /// iteration keeps rendered output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Parse one JSON value from `s` (the whole string must be consumed,
    /// modulo trailing whitespace). Arrays and objects may nest 64 deep
    /// (`MAX_DEPTH`); deeper input is an ordinary parse error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut pos = 0;
        let v = parse_value(s, &mut pos, 0)?;
        skip_ws(s.as_bytes(), &mut pos);
        if pos != s.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

/// The deepest nesting `Json::parse` follows. The parser recurses once
/// per open bracket and its input comes off a socket, so without a bound
/// a line of brackets overflows the handler thread's stack and aborts the
/// daemon. The protocol nests 3 deep (request → `cells` → spec).
const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(parse_value(s, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(out));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut out = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key_at = *pos;
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(s, pos, depth + 1)?;
                if out.insert(key, val).is_some() {
                    return Err(format!("duplicate member name at offset {key_at}"));
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(out));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

/// The end of the unescaped run starting at `from`: the next `"`, `\` or
/// control byte, or the end of the input. The stop bytes are ASCII, so a
/// run ends on a `char` boundary.
fn run_end(b: &[u8], from: usize) -> usize {
    from + b[from..]
        .iter()
        .position(|&c| matches!(c, b'"' | b'\\' | 0..=0x1F))
        .unwrap_or(b.len() - from)
}

/// A string, in runs: each unescaped run is copied whole, so the cost is
/// linear in the string. A string with no escape (every key and value of
/// a protocol line) is one run and one allocation of its exact length.
fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    let start = *pos + 1;
    *pos = run_end(b, start);
    if b.get(*pos) == Some(&b'"') {
        *pos += 1;
        return Ok(s[start..*pos - 1].to_owned());
    }
    let mut out = String::with_capacity(*pos - start + 8);
    out.push_str(&s[start..*pos]);
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
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
                        let cp = parse_hex4(b, pos)?;
                        let ch = match cp {
                            // A high surrogate must pair with a low one
                            // in an immediately following \u escape —
                            // that is how standard encoders write any
                            // non-BMP character (emoji included).
                            0xD800..=0xDBFF => {
                                if b.get(*pos..*pos + 2) != Some(br"\u") {
                                    return Err(format!(
                                        "lone high surrogate \\u{cp:04X} (expected a \\uDC00-\\uDFFF continuation)"
                                    ));
                                }
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!(
                                        "high surrogate \\u{cp:04X} followed by \\u{lo:04X}, not a low surrogate"
                                    ));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined).ok_or_else(|| {
                                    format!("bad surrogate pair \\u{cp:04X}\\u{lo:04X}")
                                })?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                "lone low surrogate \\u{cp:04X} (not preceded by a high surrogate)"
                            ))
                            }
                            _ => char::from_u32(cp)
                                .ok_or_else(|| format!("invalid code point \\u{cp:04X}"))?,
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            // RFC 8259 §7: U+0000–U+001F must be escaped.
            _ => {
                return Err(format!(
                    "unescaped control character U+{c:04X} in string at offset {}",
                    *pos - 1
                ))
            }
        }
        let start = *pos;
        *pos = run_end(b, start);
        out.push_str(&s[start..*pos]);
    }
    Err("unterminated string".into())
}

/// Read the four hex digits of a `\u` escape (cursor already past the
/// `\u`), advancing the cursor.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b
        .get(*pos..*pos + 4)
        .ok_or("truncated \\u escape")
        .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
    let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
    *pos += 4;
    Ok(cp)
}

/// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`,
/// finite. `+1`, `01`, `.5`, `1.` and `1e400` are errors. An integer of at
/// most 15 digits (below 2^53, so exact in an `f64`) is read directly;
/// anything else goes through `f64`'s own parser.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let no_digit = |at: usize| format!("invalid number at offset {start}: no digit at offset {at}");
    let negative = b.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    let int_at = *pos;
    match b.get(*pos) {
        Some(b'0') if b.get(*pos + 1).is_some_and(u8::is_ascii_digit) => {
            return Err(format!("invalid number at offset {start}: leading zero"))
        }
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(no_digit(*pos)),
    }
    if *pos - int_at <= 15 && !matches!(b.get(*pos), Some(b'.' | b'e' | b'E')) {
        let int = b[int_at..*pos]
            .iter()
            .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
        let n = int as f64;
        return Ok(Json::Num(if negative { -n } else { n }));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(no_digit(*pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(no_digit(*pos));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(format!("number `{text}` at offset {start} is out of range")),
    }
}

/// The parser as it was before `parse_string` copied escape-free strings
/// in one allocation and `parse_number` read integers directly, kept as the
/// reference the live one is driven against (`tests::parsers_agree_*`).
#[cfg(test)]
mod reference {
    use super::{Json, MAX_DEPTH};
    use std::collections::BTreeMap;

    pub(super) fn parse(s: &str) -> Result<Json, String> {
        let mut pos = 0;
        let v = parse_value(s, &mut pos, 0)?;
        skip_ws(s.as_bytes(), &mut pos);
        if pos != s.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {pos}"))
        }
    }

    fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
        let b = s.as_bytes();
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
            }
            Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
            Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
            Some(b'"') => parse_string(s, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut out = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(out));
                }
                loop {
                    out.push(parse_value(s, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(out));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut out = BTreeMap::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(out));
                }
                loop {
                    skip_ws(b, pos);
                    let key_at = *pos;
                    let key = parse_string(s, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    let val = parse_value(s, pos, depth + 1)?;
                    if out.insert(key, val).is_some() {
                        return Err(format!("duplicate member name at offset {key_at}"));
                    }
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(out));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                    }
                }
            }
            Some(_) => parse_number(b, pos),
        }
    }

    /// A string, in runs: each unescaped run up to the next `"`, `\` or
    /// control byte is copied whole, so the cost is linear in the string. The
    /// stop bytes are ASCII, so a run ends on a `char` boundary of `s`.
    fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
        let b = s.as_bytes();
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at offset {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            let start = *pos;
            *pos += b[start..]
                .iter()
                .position(|&c| matches!(c, b'"' | b'\\' | 0..=0x1F))
                .unwrap_or(b.len() - start);
            out.push_str(&s[start..*pos]);
            let Some(&c) = b.get(*pos) else { break };
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
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
                            let cp = parse_hex4(b, pos)?;
                            let ch = match cp {
                                // A high surrogate must pair with a low one
                                // in an immediately following \u escape —
                                // that is how standard encoders write any
                                // non-BMP character (emoji included).
                                0xD800..=0xDBFF => {
                                    if b.get(*pos..*pos + 2) != Some(br"\u") {
                                        return Err(format!(
                                            "lone high surrogate \\u{cp:04X} (expected a \\uDC00-\\uDFFF continuation)"
                                        ));
                                    }
                                    *pos += 2;
                                    let lo = parse_hex4(b, pos)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate \\u{cp:04X} followed by \\u{lo:04X}, not a low surrogate"
                                        ));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined).ok_or_else(|| {
                                        format!("bad surrogate pair \\u{cp:04X}\\u{lo:04X}")
                                    })?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                    "lone low surrogate \\u{cp:04X} (not preceded by a high surrogate)"
                                ))
                                }
                                _ => char::from_u32(cp)
                                    .ok_or_else(|| format!("invalid code point \\u{cp:04X}"))?,
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                // RFC 8259 §7: U+0000–U+001F must be escaped.
                _ => {
                    return Err(format!(
                        "unescaped control character U+{c:04X} in string at offset {}",
                        *pos - 1
                    ))
                }
            }
        }
        Err("unterminated string".into())
    }

    /// Read the four hex digits of a `\u` escape (cursor already past the
    /// `\u`), advancing the cursor.
    fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
        let hex = b
            .get(*pos..*pos + 4)
            .ok_or("truncated \\u escape")
            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
        *pos += 4;
        Ok(cp)
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`,
    /// finite. `+1`, `01`, `.5`, `1.` and `1e400` are errors.
    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        let digits = |pos: &mut usize| {
            let from = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > from
        };
        let no_digit =
            |at: usize| format!("invalid number at offset {start}: no digit at offset {at}");
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match b.get(*pos) {
            Some(b'0') if b.get(*pos + 1).is_some_and(u8::is_ascii_digit) => {
                return Err(format!("invalid number at offset {start}: leading zero"))
            }
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => {
                digits(pos);
            }
            _ => return Err(no_digit(*pos)),
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(pos) {
                return Err(no_digit(*pos));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(pos) {
                return Err(no_digit(*pos));
            }
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("number `{text}` at offset {start} is out of range")),
        }
    }
}

/// The functions `--bin bench` writes its JSON with, so the daemon's result
/// lines match it byte for byte by construction.
pub use archgraph_bench::cells::{json_escape as escape, push_sim, push_uint, render_sim};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"op":"submit","cells":[{"cell":"fig1/mta/random/p8"},{"kernel":"color","p":2,"n":128}],"flag":true,"x":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        let cells = v.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("n").and_then(Json::as_u64), Some(128));
        assert_eq!(v.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "{'single':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_so_a_line_of_brackets_cannot_overflow_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err("nesting deeper than 64 at offset 64".to_string())
        );
        let objects = r#"{"a":"#.repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        // Unclosed and 100 000 deep, on a spawned thread's stack as in the
        // daemon's handler: before the bound this aborted the process.
        for open in ["[", r#"{"a":"#] {
            let err = std::thread::spawn(move || Json::parse(&open.repeat(100_000)))
                .join()
                .expect("the parser returns instead of overflowing")
                .expect_err("too deep");
            assert!(
                err.starts_with("nesting deeper than 64 at offset "),
                "{err}"
            );
        }
    }

    #[test]
    fn strings_round_trip_escapes_and_utf8() {
        let v = Json::parse(r#""a\"b\\c\ndA ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA ünïcode"));
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_characters() {
        // A standard encoder writes U+1F600 😀 as "\ud83d\ude00".
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Mixed with BMP escapes and raw text on both sides.
        let v = Json::parse(r#""cell \u0041\uD83D\uDE80 done""#).unwrap();
        assert_eq!(v.as_str(), Some("cell A🚀 done"));
        // Raw (unescaped) UTF-8 emoji still pass straight through.
        assert_eq!(Json::parse(r#""🚀""#).unwrap().as_str(), Some("🚀"));
        // An emoji survives an escape → parse round trip.
        let escaped = escape("graph 😀 🚀");
        let quoted = format!("\"{escaped}\"");
        assert_eq!(Json::parse(&quoted).unwrap().as_str(), Some("graph 😀 🚀"));
    }

    #[test]
    fn lone_surrogates_are_structured_errors_not_replacement_chars() {
        for (bad, why) in [
            (r#""\ud83d""#, "lone high surrogate"),
            (r#""\ud83d tail""#, "high surrogate then raw text"),
            (r#""\ud83dA""#, "high surrogate then a BMP escape"),
            (r#""\ude00""#, "lone low surrogate"),
            (r#""\ud83d\ud83d""#, "two high surrogates"),
        ] {
            let err = Json::parse(bad).expect_err(why);
            assert!(err.contains("surrogate"), "{why}: {err}");
            assert!(!err.contains('\u{fffd}'), "no silent corruption: {err}");
        }
    }

    #[test]
    fn numbers_are_exact_for_simulator_magnitudes() {
        let v = Json::parse("68719476736").unwrap(); // 2^36, the watchdog default
        assert_eq!(v.as_u64(), Some(1 << 36));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for ok in [
            "0", "-0", "1", "-1", "10", "1.5", "0.25", "1e3", "1E3", "1.5e+3", "2e-2",
        ] {
            let want: f64 = ok.parse().unwrap();
            assert_eq!(Json::parse(ok), Ok(Json::Num(want)), "{ok}");
        }
        assert_eq!(Json::parse("-0"), Ok(Json::Num(-0.0)));
        assert_eq!(Json::parse("1.5e+3"), Ok(Json::Num(1500.0)));
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        assert_eq!(
            Json::parse("[0,-0.5]"),
            Ok(Json::Arr(vec![Json::Num(0.0), Json::Num(-0.5)]))
        );
        for (bad, err) in [
            ("+1", "invalid number at offset 0: no digit at offset 0"),
            ("01", "invalid number at offset 0: leading zero"),
            ("-01", "invalid number at offset 0: leading zero"),
            (".5", "invalid number at offset 0: no digit at offset 0"),
            ("1.", "invalid number at offset 0: no digit at offset 2"),
            ("1.e3", "invalid number at offset 0: no digit at offset 2"),
            ("-", "invalid number at offset 0: no digit at offset 1"),
            ("-x", "invalid number at offset 0: no digit at offset 1"),
            ("1e", "invalid number at offset 0: no digit at offset 2"),
            ("1e+", "invalid number at offset 0: no digit at offset 3"),
            ("[1,+2]", "invalid number at offset 3: no digit at offset 3"),
            ("1e400", "number `1e400` at offset 0 is out of range"),
            ("-1e400", "number `-1e400` at offset 0 is out of range"),
        ] {
            assert_eq!(Json::parse(bad), Err(err.to_string()), "{bad}");
        }
        // A number ends where its grammar does; what follows is not part of it.
        assert!(Json::parse("1-2").is_err());
        assert!(Json::parse("0x10").is_err());
    }

    #[test]
    fn raw_control_characters_in_strings_are_an_error() {
        for c in (0u8..0x20).map(char::from) {
            let line = format!("\"ab{c}cd\"");
            assert_eq!(
                Json::parse(&line),
                Err(format!(
                    "unescaped control character U+{:04X} in string at offset 3",
                    c as u32
                )),
                "{c:?}"
            );
            // Escaped, the same character parses.
            let escaped = format!("\"ab{}cd\"", escape(&c.to_string()));
            assert_eq!(Json::parse(&escaped), Ok(Json::Str(format!("ab{c}cd"))));
        }
        // DEL and everything above U+001F pass through raw.
        assert_eq!(
            Json::parse("\"\u{7f}\u{80}\""),
            Ok(Json::Str("\u{7f}\u{80}".into()))
        );
        // Whitespace between tokens is not inside a string.
        assert!(Json::parse("[\n1,\t2\r]").is_ok());
    }

    /// One character from each class the run scanner treats differently:
    /// ASCII, 2-, 3- and 4-byte UTF-8, and the stop bytes `"`, `\` and
    /// every control character.
    fn any_char() -> impl Strategy<Value = char> {
        let at = |r: std::ops::Range<u32>| r.prop_map(|c| char::from_u32(c).expect("scalar"));
        prop_oneof![
            at(0x20..0x80),
            at(0x80..0x800),
            at(0x800..0xD800),
            at(0xE000..0x1_0000),
            at(0x1_0000..0x11_0000),
            at(0..0x20),
            Just('"'),
            Just('\\'),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every class lands at run starts and run ends: a stop character
        /// ends a run and the next character starts one.
        #[test]
        fn escaped_strings_parse_back_to_themselves(chars in proptest::collection::vec(any_char(), 0..24)) {
            let s: String = chars.into_iter().collect();
            prop_assert_eq!(Json::parse(&format!("\"{}\"", escape(&s))), Ok(Json::Str(s.clone())));
            let member = format!("{{\"{0}\":\"{0}\"}}", escape(&s));
            prop_assert_eq!(Json::parse(&member).unwrap().get(&s), Some(&Json::Str(s.clone())));
        }
    }

    /// The choices of one generated case, drawn from its seed (SplitMix64).
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Numbers of every shape the grammar and the two readers tell apart.
    const NUMBERS: [&str; 18] = [
        "0",
        "-0",
        "7",
        "128",
        "2048",
        "-4",
        "999999999999999",
        "1000000000000000",
        "9007199254740992",
        "9007199254740993",
        "18446744073709551616",
        "1.5",
        "0.25",
        "1e3",
        "2E-2",
        "-1.5e+3",
        "1e308",
        "123456789012345678901234567890",
    ];

    /// Strings with and without escapes: every key and value of a real
    /// line is escape-free, so both paths of the string reader are drawn.
    const STRINGS: [&str; 10] = [
        "",
        "op",
        "fig2/mta/p8",
        "mem-latency=30,rate=1:9",
        r#"a\"b"#,
        r#"tab\there"#,
        r#"\u00e9t\u00E9"#,
        r#"\ud83d\ude00"#,
        "ünïcode 🚀",
        r#"\/\b\f\n\r\\"#,
    ];

    /// Any JSON value, nesting at most `depth` more levels.
    fn any_value(d: &mut Draw, depth: usize) -> String {
        match d.below(if depth == 0 { 5 } else { 7 }) {
            0 => d.pick(&["null", "true", "false"]).to_string(),
            1 | 2 => d.pick(&NUMBERS).to_string(),
            3 | 4 => format!("\"{}\"", d.pick(&STRINGS)),
            5 => {
                let items: Vec<String> = (0..d.below(4)).map(|_| any_value(d, depth - 1)).collect();
                format!("[{}]", items.join(d.pick(&[",", " , ", ",\n"])))
            }
            _ => {
                let members: Vec<String> = (0..d.below(4))
                    .map(|i| format!("\"k{i}{}\":{}", d.pick(&STRINGS), any_value(d, depth - 1)))
                    .collect();
                format!("{{{}}}", members.join(","))
            }
        }
    }

    /// A request line as a client could send one: each op, and submits with
    /// cells in both spec forms, overrides and budgets.
    fn protocol_line(d: &mut Draw) -> String {
        match d.below(6) {
            0 => format!(
                r#"{{"op":"{}"}}"#,
                d.pick(&["ping", "status", "list", "shutdown"])
            ),
            1 => format!(r#"{{"op":"cancel","job":"{}"}}"#, d.pick(&STRINGS)),
            2 => any_value(d, 3),
            _ => {
                let cells: Vec<String> = (0..1 + d.below(24))
                    .map(|_| {
                        let mut members = if d.below(3) == 0 {
                            vec![format!(
                                r#""cell":"{}""#,
                                d.pick(&["fig2/mta/p8", "msf/native"])
                            )]
                        } else {
                            vec![
                                format!(
                                    r#""kernel":"{}""#,
                                    d.pick(&["fig1-random", "fig2", "color"])
                                ),
                                format!(r#""machine":"{}""#, d.pick(&["mta", "smp"])),
                            ]
                        };
                        for key in ["p", "n", "m", "max_cycles", "workers"] {
                            if d.below(2) == 0 {
                                members.push(format!(r#""{key}":{}"#, d.pick(&NUMBERS)));
                            }
                        }
                        if d.below(4) == 0 {
                            members.push(format!(r#""faults":"{}""#, d.pick(&STRINGS)));
                        }
                        format!("{{{}}}", members.join(","))
                    })
                    .collect();
                let budget = match d.below(3) {
                    0 => format!(r#","budget_cycles":{}"#, d.pick(&NUMBERS)),
                    1 => format!(r#","budget_host_ms":{}"#, d.pick(&NUMBERS)),
                    _ => String::new(),
                };
                format!(r#"{{"op":"submit","cells":[{}]{budget}}}"#, cells.join(","))
            }
        }
    }

    /// A random `char` boundary of `s`, its end included.
    fn boundary(d: &mut Draw, s: &str) -> usize {
        let mut at = d.below(s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// `line` with one damage of the kinds that reach the parser's error
    /// paths: truncation, stray control bytes, lone surrogates, deep
    /// nesting, repeated members, huge numbers, and single edits.
    fn mutate(d: &mut Draw, mut line: String) -> String {
        match d.below(9) {
            0 => line.truncate(boundary(d, &line)),
            1 => {
                let at = boundary(d, &line);
                line.insert(at, char::from(d.below(0x20) as u8));
            }
            2 => {
                // Just inside a random string, or where no string is.
                let quotes: Vec<usize> = line.match_indices('"').map(|(i, _)| i + 1).collect();
                let at = if quotes.is_empty() {
                    0
                } else {
                    quotes[d.below(quotes.len())]
                };
                let lone = [
                    r"\ud83d",
                    r"\ude00",
                    r"\ud83d\ud83d",
                    r"\ud83dA",
                    r"\ud83dA",
                    r"\uZZZZ",
                    r"\u12",
                ];
                line.insert_str(at, d.pick(&lone));
            }
            3 => {
                let levels = 60 + d.below(10);
                let (open, close) = if d.below(2) == 0 {
                    ("[", "]")
                } else {
                    (r#"{"a":"#, "}")
                };
                line = open.repeat(levels) + &line + &close.repeat(levels);
            }
            4 => {
                let braces: Vec<usize> = line.match_indices('{').map(|(i, _)| i + 1).collect();
                if let Some(&at) = braces.get(d.below(braces.len().max(1))) {
                    let key = d.pick(&["op", "p", "cell", "n", "k0"]);
                    line.insert_str(at, &format!(r#""{key}":1,"{key}":2,"#));
                }
            }
            5 => {
                let digits: Vec<usize> = line
                    .match_indices(|c: char| c.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&at) = digits.get(d.below(digits.len().max(1))) {
                    let ones = "1".repeat(400);
                    let huge = ["1e400", "-1e400", "1e-400", &ones, "01", "1.", "-"];
                    let huge = d.pick(&huge).to_string();
                    line.insert_str(at, &huge);
                }
            }
            6 => {
                let at = boundary(d, &line);
                if let Some(c) = line[at..].chars().next() {
                    line.replace_range(at..at + c.len_utf8(), "");
                }
            }
            _ => {
                let at = boundary(d, &line);
                line.insert_str(
                    at,
                    d.pick(&[
                        "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "-", "e", "0", "\\u",
                    ]),
                );
            }
        }
        line
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The live parser and the reference read every generated line, and
        /// its damaged forms, the same: one value (the sign of a zero
        /// included), or one error with one message.
        #[test]
        fn parsers_agree_on_generated_protocol_lines(seed in any::<u64>()) {
            let mut d = Draw(seed);
            let mut line = protocol_line(&mut d);
            for _ in 0..d.below(4) {
                line = mutate(&mut d, line);
            }
            let live = format!("{:?}", Json::parse(&line));
            prop_assert_eq!(live, format!("{:?}", reference::parse(&line)), "{:?}", line);
        }
    }

    #[test]
    fn render_sim_matches_bench_json_layout() {
        let pairs = vec![("cycles".to_string(), 100u64), ("issued".to_string(), 42)];
        assert_eq!(render_sim(&pairs), r#"{ "cycles": 100, "issued": 42 }"#);
        // Degenerate but bench-identical: no pairs leaves both pads.
        assert_eq!(render_sim::<String>(&[]), "{  }");
    }
}
