//! A minimal JSON reader/writer, the workspace's one JSON subset.
//!
//! The workspace has no serialization dependency. The service wire
//! protocol and the result cache's on-disk entries read with
//! [`Json::parse`]; they and the security certificate quote strings with
//! [`escape`]. The subset is deliberate: objects, arrays, strings (with
//! `\" \\ \/ \n \t \r` escapes), unsigned integers, booleans and
//! `null`. That subset is closed under what the workspace emits, and
//! anything outside it in a *request* is exactly what the protocol wants
//! to reject as malformed.
//!
//! The parser is hardened for adversarial input: recursion is depth-
//! capped, so a file or frame of nested brackets is `None`, not a stack
//! overflow. The wire bounds input length by reading at most one framed
//! line.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`]. The deepest real
/// document is a `put` request, whose entry's assignment rows sit four
/// levels down, so anything past the cap is hostile.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value (protocol subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the protocol has no floats or negatives).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value with nothing but whitespace
    /// after it. Returns `None` on any deviation from the subset.
    #[must_use]
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value back to compact wire JSON, preserving object
    /// field order — the inverse of [`Json::parse`] on the subset, which
    /// is what lets the cluster router annotate a relayed worker
    /// response (worker id, failover codes, cluster stats) without
    /// re-deriving it.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(key));
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, token: &[u8]) -> Option<()> {
    if bytes[*pos..].starts_with(token) {
        *pos += token.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => eat(bytes, pos, b"null").map(|()| Json::Null),
        b't' => eat(bytes, pos, b"true").map(|()| Json::Bool(true)),
        b'f' => eat(bytes, pos, b"false").map(|()| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'0'..=b'9' => parse_number(bytes, pos).map(Json::Num),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                eat(bytes, pos, b":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        _ => None,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    // A fraction or exponent is outside the subset: fail rather than
    // silently truncate.
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos]).ok()?.parse().ok()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    _ => return None,
                }
                *pos += 1;
            }
            // A raw control byte inside a string is malformed; anything
            // else (including multi-byte UTF-8) passes through.
            b if *b < 0x20 => return None,
            b => {
                out.push(*b);
                *pos += 1;
            }
        }
    }
}

/// Renders `s` as a quoted JSON string with the subset's escapes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // Other control characters cannot round-trip through the
            // subset; replace rather than emit an unparsable frame.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
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
    fn parses_protocol_shaped_objects() {
        let j = Json::parse(
            r#"{"id":"r1","cmd":"synth","benchmark":"polynom","deadline_ms":500,"no_degrade":false,"codes":["TS001"],"extra":null}"#,
        )
        .expect("well-formed");
        assert_eq!(j.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(j.get("deadline_ms").and_then(Json::as_u64), Some(500));
        assert_eq!(j.get("no_degrade").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("extra"), Some(&Json::Null));
        assert_eq!(
            j.get("codes"),
            Some(&Json::Arr(vec![Json::Str("TS001".into())]))
        );
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash";
        let rendered = escape(original);
        let back = Json::parse(&rendered).expect("escape output parses");
        assert_eq!(back.as_str(), Some(original));
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn rejects_out_of_subset_and_hostile_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "1.5",
            "1e9",
            "-3",
            "\"unterminated",
            "\"bad\\qescape\"",
            "{\"a\":1} trailing",
            "nulll",
            "\"raw\u{1}control\"",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
        // Depth bomb: 64 nested arrays.
        let bomb = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert_eq!(Json::parse(&bomb), None);
        // At the cap it still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_some());
    }

    #[test]
    fn render_is_the_inverse_of_parse_on_the_subset() {
        for line in [
            r#"{"id":"r1","status":"ok","cost":4160,"proven":true,"cached":false,"codes":["TS001","TR002"],"extra":null}"#,
            r#"{"nested":{"a":[1,2,{"b":"x"}]},"s":"quote \" slash \\ nl \n"}"#,
            "[]",
            "{}",
            r#""just a string""#,
            "42",
        ] {
            let parsed = Json::parse(line).expect("fixture parses");
            let rendered = parsed.render();
            assert_eq!(
                Json::parse(&rendered).expect("render parses"),
                parsed,
                "{line}"
            );
            // Compact input with the subset's escapes round-trips byte
            // for byte (field order is preserved).
            assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
        }
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : true } ").expect("ok");
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![Json::Num(1), Json::Num(2)]))
        );
    }
}
