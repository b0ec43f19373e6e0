//! Minimal JSON for the wire protocol. Hand-rolled on purpose: the
//! workspace's `serde` is an offline no-op shim (derive markers only),
//! and the protocol's values are small single-line objects, so a
//! ~150-line recursive-descent parser plus a writer that mirrors the
//! bench driver's rendering conventions covers everything.
//!
//! Numbers parse into [`Json::Num`] as `f64` — exact for every integer
//! the simulators emit (cycle counts stay under 2^53 by orders of
//! magnitude; the watchdog default is 2^36) — and [`Json::as_u64`]
//! round-trips them back to integers only when exact.

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
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
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

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(parse_value(b, pos, depth + 1)?);
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
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                out.insert(key, val);
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

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
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
            // Raw UTF-8 passes through; collect the full code point. The
            // input arrived as `&str`, so the bytes are valid UTF-8 and
            // `*pos - 1` sits on a character boundary.
            _ => {
                *pos -= 1;
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8 in string")?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
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

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at offset {start}"))
}

/// The functions `--bin bench` writes its JSON with, so the daemon's result
/// lines match it byte for byte by construction.
pub use archgraph_bench::cells::{json_escape as escape, render_sim};

#[cfg(test)]
mod tests {
    use super::*;

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
    fn render_sim_matches_bench_json_layout() {
        let pairs = vec![("cycles".to_string(), 100u64), ("issued".to_string(), 42)];
        assert_eq!(render_sim(&pairs), r#"{ "cycles": 100, "issued": 42 }"#);
        // Degenerate but bench-identical: no pairs leaves both pads.
        assert_eq!(render_sim::<String>(&[]), "{  }");
    }
}
