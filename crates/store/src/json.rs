//! Hand-rolled JSON value model: rendering **and parsing**.
//!
//! The workspace builds offline with no serialization framework, so every
//! JSON document the workspace reads or writes — cache entries, serialized
//! scenario specs, `repro --json` reports, matrix documents — goes through
//! this small, dependency-free value model. It lives in `pnoc-store` because the
//! result store is the lowest layer that needs both directions; `pnoc-bench`
//! re-exports it unchanged.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as pretty-printed JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_inner = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_inner);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad_inner);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// Accepts standard JSON: `null`, booleans, finite numbers, strings with
    /// the usual escapes (including `\uXXXX`), arrays and objects. Duplicate
    /// object keys are kept in order (the value model stores objects as
    /// insertion-ordered pairs).
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input, trailing garbage
    /// or arrays/objects nested deeper than 128 levels (`MAX_DEPTH`).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonParseError {
                offset: pos,
                message: "trailing characters after the JSON value".to_string(),
            });
        }
        Ok(value)
    }

    /// The value of a field when this is an object, by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest in a parsed document. The parser
/// recurses once per level and documents arrive from outside the process
/// (request bodies, `--from-scenarios` files, cache entries), so the bound is
/// what keeps a `[[[[…` body from overflowing the stack. The deepest document
/// the workspace itself writes nests under 10 levels.
const MAX_DEPTH: usize = 128;

/// A JSON parse failure: where it happened and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

fn error(offset: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.into(),
    }
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(error(*pos, format!("expected '{literal}'")))
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(error(*pos, "unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(error(
            *pos,
            format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(error(*pos, format!("unexpected character '{}'", c as char))),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| error(start, format!("invalid number '{text}'")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(error(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| error(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| error(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| error(*pos, "bad \\u escape"))?;
                        // Surrogates never appear in our own output (we only
                        // escape control characters); map them to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(error(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| error(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(error(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_whitespace(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(error(*pos, "expected a string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(error(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(error(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_escapes_and_nests() {
        let value = Json::obj(vec![
            ("name", Json::str("say \"hi\"\n")),
            ("count", Json::Num(3.0)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = value.render();
        assert!(text.contains("\"say \\\"hi\\\"\\n\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"items\": [\n"));
        assert!(text.contains("\"empty\": []"));
    }

    #[test]
    fn parse_inverts_render() {
        let value = Json::obj(vec![
            ("name", Json::str("say \"hi\"\n\t\\ done")),
            ("count", Json::Num(3.25)),
            ("negative", Json::Num(-0.5e-3)),
            ("flag", Json::Bool(true)),
            ("off", Json::Bool(false)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::str("two"), Json::Null]),
            ),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            (
                "nested",
                Json::obj(vec![("k", Json::Arr(vec![Json::Bool(false)]))]),
            ),
            ("unicode", Json::str("héllo \u{1} wörld")),
        ]);
        let parsed = Json::parse(&value.render()).expect("own output must parse");
        assert_eq!(parsed, value);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "12 34",
            "\"unterminated",
            "{\"a\":1} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "'{bad}' should fail to parse");
        }
        // Nesting is bounded (the parser recurses per level): MAX_DEPTH
        // levels parse, one more is a typed error — also when it is 100 000
        // levels of unclosed '[' that would otherwise overflow the stack.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let mixed = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed).is_ok());
        let error = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(error.offset, MAX_DEPTH);
        assert!(error.message.contains("deeper than 128"), "{error}");
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse("{\"a\": [1, 2.5], \"b\": \"x\"}").unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        let items = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("missing"), None);
    }
}
