//! A small, dependency-free JSON layer for the serving API.
//!
//! The workspace has no serialisation framework, so — like
//! `sweep_report.rs` on the benchmark side — request and response bodies are
//! parsed and rendered by hand. Unlike the benchmark's flat row parser this
//! one is recursive (the `/sweep` endpoint carries an array of scenario
//! objects), with a depth cap so a hostile body cannot overflow the stack.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`]. Every legitimate
/// request body is at most three levels deep (`{"scenarios": [{...}]}`).
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document. Returns `None` on malformed input,
    /// trailing garbage or nesting deeper than the cap.
    pub fn parse(text: &str) -> Option<Json> {
        let (value, rest) = parse_value(text.trim_start(), 0)?;
        rest.trim_start().is_empty().then_some(value)
    }

    /// Object field lookup (first occurrence). `None` for non-objects and
    /// missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_value(text: &str, depth: usize) -> Option<(Json, &str)> {
    if depth > MAX_DEPTH {
        return None;
    }
    let text = text.trim_start();
    if let Some(rest) = text.strip_prefix("null") {
        return Some((Json::Null, rest));
    }
    if let Some(rest) = text.strip_prefix("true") {
        return Some((Json::Bool(true), rest));
    }
    if let Some(rest) = text.strip_prefix("false") {
        return Some((Json::Bool(false), rest));
    }
    if text.starts_with('"') {
        let (s, rest) = parse_string(text)?;
        return Some((Json::String(s), rest));
    }
    if let Some(rest) = text.strip_prefix('[') {
        return parse_array(rest, depth);
    }
    if let Some(rest) = text.strip_prefix('{') {
        return parse_object(rest, depth);
    }
    parse_number(text)
}

fn parse_array(mut rest: &str, depth: usize) -> Option<(Json, &str)> {
    let mut items = Vec::new();
    rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix(']') {
        return Some((Json::Array(items), after));
    }
    loop {
        let (value, after_value) = parse_value(rest, depth + 1)?;
        items.push(value);
        rest = after_value.trim_start();
        if let Some(next) = rest.strip_prefix(',') {
            rest = next.trim_start();
        } else {
            return rest
                .strip_prefix(']')
                .map(|after| (Json::Array(items), after));
        }
    }
}

fn parse_object(mut rest: &str, depth: usize) -> Option<(Json, &str)> {
    let mut fields = Vec::new();
    rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix('}') {
        return Some((Json::Object(fields), after));
    }
    loop {
        let (key, after_key) = parse_string(rest.trim_start())?;
        let after_colon = after_key.trim_start().strip_prefix(':')?;
        let (value, after_value) = parse_value(after_colon, depth + 1)?;
        fields.push((key, value));
        rest = after_value.trim_start();
        if let Some(next) = rest.strip_prefix(',') {
            rest = next.trim_start();
        } else {
            return rest
                .strip_prefix('}')
                .map(|after| (Json::Object(fields), after));
        }
    }
}

fn parse_string(text: &str) -> Option<(String, &str)> {
    let mut chars = text.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &text[i + 2..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let mut code = hex4(&mut chars)?;
                    if (0xD800..=0xDBFF).contains(&code) {
                        // A high surrogate must be followed by a low one,
                        // the pair encoding a single non-BMP character;
                        // serializers that escape non-ASCII (Python's
                        // default `ensure_ascii`) emit these routinely.
                        if chars.next()?.1 != '\\' || chars.next()?.1 != 'u' {
                            return None;
                        }
                        let low = hex4(&mut chars)?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return None;
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Reads four hex digits of a `\uXXXX` escape.
fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.1.to_digit(16)?;
    }
    Some(code)
}

fn parse_number(text: &str) -> Option<(Json, &str)> {
    let end = text
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(text.len());
    let number = text[..end].parse::<f64>().ok()?;
    Some((Json::Number(number), &text[end..]))
}

/// Escapes a string as a JSON string literal (same escaping policy as the
/// benchmark harness's `BENCH_sweep.json` writer).
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` JSON field value. JSON has no representation for
/// non-finite numbers, so infinities and NaN serialise as `null` — the same
/// policy `BENCH_sweep.json` uses.
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders an optional `f64` field value (absent or non-finite → `null`).
pub fn json_opt_f64(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), json_f64)
}

/// Renders an optional `u64` field value (absent → `null`).
pub fn json_opt_u64(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Some(Json::Null));
        assert_eq!(Json::parse(" true "), Some(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Some(Json::Bool(false)));
        assert_eq!(Json::parse("-1.5e3"), Some(Json::Number(-1500.0)));
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\nd\\u0041\""),
            Some(Json::String("a\"b\\c\ndA".to_string()))
        );
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_surrogates_are_rejected() {
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\""),
            Some(Json::String("😀".to_string()))
        );
        assert_eq!(Json::parse("\"\\uD83Dx\""), None, "lone high surrogate");
        assert_eq!(Json::parse("\"\\uD83D\""), None, "truncated pair");
        assert_eq!(Json::parse("\"\\uDE00\""), None, "lone low surrogate");
        assert_eq!(
            Json::parse("\"\\uD83D\\u0041\""),
            None,
            "high surrogate followed by a non-surrogate escape"
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            "{\"scenarios\": [{\"dataset\": \"cora\", \"scale\": 0.05}, {\"seed\": 7}], \
             \"tag\": null, \"deep\": {\"a\": [1, 2, 3]}}",
        )
        .unwrap();
        let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].get("dataset").unwrap().as_str(), Some("cora"));
        assert_eq!(scenarios[0].get("scale").unwrap().as_f64(), Some(0.05));
        assert_eq!(scenarios[1].get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("tag"), Some(&Json::Null));
        let deep = doc
            .get("deep")
            .unwrap()
            .get("a")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(deep.len(), 3);
        assert_eq!(Json::parse("[]"), Some(Json::Array(vec![])));
        assert_eq!(Json::parse("{}"), Some(Json::Object(vec![])));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "nul",
            "1 2",
            "{\"a\": 1} junk",
            "\"unterminated",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(Json::parse(&deep), None);
        // The cap is generous enough for every real request body.
        let fine = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse(&fine).is_some());
    }

    #[test]
    fn typed_accessors_are_strict() {
        let n = Json::Number(1.5);
        assert_eq!(n.as_u64(), None, "fractional numbers are not integers");
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(3.0).as_u64(), Some(3));
        assert_eq!(Json::String("x".into()).as_f64(), None);
        assert_eq!(Json::Null.as_str(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Array(vec![]).get("k"), None);
    }

    #[test]
    fn renderers_match_bench_sweep_policy() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_u64(Some(7)), "7");
        assert_eq!(json_opt_u64(None), "null");
    }
}
