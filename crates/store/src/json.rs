//! Hand-rolled JSON value model: rendering **and parsing**.
//!
//! The workspace builds offline with no serialization framework, so every
//! JSON document the workspace reads or writes — cache entries, serialized
//! scenario specs, `repro --json` reports, matrix documents — goes through
//! this small, dependency-free value model. It lives in `pnoc-store` because the
//! result store is the lowest layer that needs both directions; `pnoc-bench`
//! re-exports it unchanged.
//!
//! The parser reads one grammar two ways: into a [`Json`] tree
//! ([`Json::parse`]), or field by field with no tree, for a decoder that
//! knows what it wants (`FieldReader`, which the store's cache hit uses).
//! Both accept and reject the same documents.
//!
//! **Complexity contract:** [`Json::parse`] and [`Json::render`] are linear
//! in document bytes — each byte is read a constant number of times, whether
//! it sits in one long string or in many short ones. Documents arrive from
//! outside the process (request bodies up to the server's body limit, cache
//! entries, `--from-scenarios` files), so a size limit on the input is also a
//! limit on the CPU it can buy; `parse_and_render_are_linear_in_document_bytes`
//! pins it. Reading field by field is linear too: a value read again after a
//! failed `FieldReader::attempt` is remembered as checked, so no byte is
//! read more than twice however failures nest.

use std::borrow::Cow;
use std::collections::BTreeMap;
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
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
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
                    write_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    write_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// Accepts standard JSON: `null`, booleans, finite numbers, strings with
    /// the usual escapes, arrays and objects. A `\uXXXX` escape takes exactly
    /// four hex digits; a high surrogate followed by a `\uDC00`–`\uDFFF`
    /// escape decodes to the one scalar the pair encodes, and a surrogate
    /// without its partner decodes to U+FFFD. Duplicate object keys are kept
    /// in order (the value model stores objects as insertion-ordered pairs).
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input, trailing garbage
    /// or arrays/objects nested deeper than 128 levels (`MAX_DEPTH`).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut cursor = Cursor::new(text);
        let value = cursor.value()?;
        cursor.finish()?;
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

/// The parser: a position in the source text. Every method leaves `pos` on
/// a char boundary — it only ever steps over ASCII bytes or over whole runs
/// that end at an ASCII delimiter — so slicing `text` at `pos` never splits
/// a scalar and nothing is re-validated.
///
/// One grammar, read two ways: [`Cursor::value`] builds the tree
/// [`Json::parse`] returns, and the [`FieldReader`] methods hand a decoder
/// one value at a time straight off the text, building nothing
/// ([`read_document`]).
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Whether the value at `pos` is still to be read: set before a
    /// [`FieldReader`] caller is handed a value, cleared by whatever reads
    /// it. A value its caller leaves unread is skipped, and so still checked.
    unread: bool,
    /// Start → end of each value [`FieldReader::attempt`] has read a second
    /// time, which is known to be well formed: a skip that starts on one
    /// steps over it, so failing attempts nested in failing attempts read no
    /// byte more than twice.
    checked: BTreeMap<usize, usize>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            unread: true,
            checked: BTreeMap::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, after whitespace.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.peek()
    }

    /// Requires that nothing but whitespace is left.
    fn finish(&mut self) -> Result<(), JsonParseError> {
        if self.next_byte().is_some() {
            return Err(error(self.pos, "trailing characters after the JSON value"));
        }
        Ok(())
    }

    fn literal(&mut self, literal: &str) -> Result<(), JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(error(self.pos, format!("expected '{literal}'")))
        }
    }

    /// Parses one value into a tree.
    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.next_byte() {
            None => Err(error(self.pos, "unexpected end of input")),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.scan_string().map(|text| Json::Str(text.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|cursor| {
                    items.push(cursor.value()?);
                    Ok::<_, JsonParseError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|cursor, key| {
                    fields.push((key.into_owned(), cursor.value()?));
                    Ok::<_, JsonParseError>(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.scan_number().map(Json::Num),
            Some(c) => Err(error(
                self.pos,
                format!("unexpected character '{}'", c as char),
            )),
        }
    }

    /// Steps over one value, checking it exactly as [`Cursor::value`] does,
    /// without building anything.
    fn skip(&mut self) -> Result<(), JsonParseError> {
        let next = self.next_byte();
        if let Some(&end) = self.checked.get(&self.pos) {
            self.pos = end;
            return Ok(());
        }
        match next {
            Some(b'"') => self.scan_string().map(drop),
            Some(b'[') => self.elements(Self::skip),
            Some(b'{') => self.members(|cursor, _| cursor.skip()),
            _ => self.value().map(drop),
        }
    }

    fn scan_number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| error(start, format!("invalid number '{text}'")))
    }

    /// Parses a string — a value or an object key — as runs: everything up
    /// to the next `"` or `\` is appended by slicing the source (both
    /// delimiters are ASCII, so every cut is a char boundary), then the
    /// escape is decoded and the scan resumes behind it. A string without
    /// escapes is borrowed from the source.
    fn scan_string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .map_or(rest, |end| &rest[..end]);
            self.pos += run.len();
            match self.peek() {
                None => return Err(error(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // No escape so far (each decodes to at least one char):
                    // the run is the whole string.
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape whose backslash was just stepped over.
    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(error(self.pos, "invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes `uXXXX` (`pos` is on the `u`), together with the
    /// `\uDC00`–`\uDFFF` escape behind it when `XXXX` is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let bytes = self.text.as_bytes();
        let digits = bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| error(self.pos, "truncated \\u escape"))?;
        let mut code = hex4(digits).ok_or_else(|| error(self.pos, "bad \\u escape"))?;
        self.pos += 5;
        if (0xD800..0xDC00).contains(&code) {
            let low = bytes
                .get(self.pos..self.pos + 6)
                .filter(|next| next.starts_with(b"\\u"))
                .and_then(|next| hex4(&next[2..]))
                .filter(|low| (0xDC00..0xE000).contains(low));
            if let Some(low) = low {
                self.pos += 6;
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // What is left outside the scalar range is a surrogate without its
        // partner.
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    /// Steps over the `[` or `{` at `pos` into the array or object it opens.
    fn enter(&mut self) -> Result<(), JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(error(
                self.pos,
                format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Steps over the `]` or `}` at `pos`.
    fn leave(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// Reads the array whose `[` is at `pos`, handing the cursor to `item`
    /// once per element; `item` must read the element.
    fn elements<E: From<JsonParseError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.enter()?;
        if self.next_byte() == Some(b']') {
            self.leave();
            return Ok(());
        }
        loop {
            item(self)?;
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.leave();
                    return Ok(());
                }
                _ => return Err(error(self.pos, "expected ',' or ']' in array").into()),
            }
        }
    }

    /// Reads the object whose `{` is at `pos`, handing the cursor to
    /// `member` once per member with its key; `member` must read the value.
    fn members<E: From<JsonParseError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.enter()?;
        if self.next_byte() == Some(b'}') {
            self.leave();
            return Ok(());
        }
        loop {
            if self.next_byte() != Some(b'"') {
                return Err(error(self.pos, "expected a string key").into());
            }
            let key = self.scan_string()?;
            if self.next_byte() != Some(b':') {
                return Err(error(self.pos, "expected ':' after object key").into());
            }
            self.pos += 1;
            member(self, key)?;
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.leave();
                    return Ok(());
                }
                _ => return Err(error(self.pos, "expected ',' or '}' in object").into()),
            }
        }
    }

    /// Skips the value at `pos` unless its reader read it.
    fn finish_value(&mut self) -> Result<(), JsonParseError> {
        if std::mem::take(&mut self.unread) {
            self.skip()?;
        }
        Ok(())
    }
}

/// Reads the document `text` in one pass, with no tree: `read` gets the
/// cursor on the top-level value, whatever it leaves unread is skipped (and
/// so checked), and only whitespace may follow. A document [`Json::parse`]
/// rejects is rejected here too, before or after `read` has seen the part
/// that is well formed.
pub(crate) fn read_document<'a, T, E: From<JsonParseError>>(
    text: &'a str,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut cursor = Cursor::new(text);
    let value = read(&mut cursor)?;
    cursor.finish_value()?;
    cursor.finish()?;
    Ok(value)
}

/// A JSON value read once, front to back, by a decoder that wants its
/// fields rather than a tree. [`Cursor`] reads straight off the document
/// text; `&Json` reads a parsed tree. A decoder written once over this trait
/// therefore decodes both, with the same rules.
///
/// A decoder reads each value it is handed at most once, and may leave it
/// unread: an unknown key or a duplicate costs no allocation, but the cursor
/// still reads past it, so a malformed one is still an error.
pub(crate) trait FieldReader<'a> {
    /// When the value is an object, calls `member` with each key and a
    /// reader on its value, in document order, and returns `true`; returns
    /// `false`, reading nothing, for any other value.
    fn object<E: From<JsonParseError>>(
        &mut self,
        member: impl FnMut(&str, &mut Self) -> Result<(), E>,
    ) -> Result<bool, E>;

    /// When the value is an array, calls `item` with a reader on each
    /// element, in order, and returns `true`; `false`, reading nothing,
    /// otherwise.
    fn array<E: From<JsonParseError>>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<bool, E>;

    /// The string, or `None`, reading nothing, for any other value.
    fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError>;

    /// The number, or `None`, reading nothing, for any other value.
    fn number(&mut self) -> Result<Option<f64>, JsonParseError>;

    /// Whether the value is `null`. Reads nothing.
    fn is_null(&mut self) -> bool;

    /// Runs `read` on the value. When `read` fails, the value is read past
    /// as if `read` had never run, and its error comes back inside `Ok`:
    /// the caller may still choose another value. A malformed value stays
    /// the outer error.
    fn attempt<T, E: From<JsonParseError>>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Result<T, E>, E>;
}

impl<'a> FieldReader<'a> for Cursor<'a> {
    fn object<E: From<JsonParseError>>(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), E>,
    ) -> Result<bool, E> {
        if self.next_byte() != Some(b'{') {
            return Ok(false);
        }
        self.unread = false;
        self.members(|cursor, key| {
            cursor.unread = true;
            member(&key, cursor)?;
            Ok::<(), E>(cursor.finish_value()?)
        })?;
        Ok(true)
    }

    fn array<E: From<JsonParseError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<bool, E> {
        if self.next_byte() != Some(b'[') {
            return Ok(false);
        }
        self.unread = false;
        self.elements(|cursor| {
            cursor.unread = true;
            item(cursor)?;
            Ok::<(), E>(cursor.finish_value()?)
        })?;
        Ok(true)
    }

    fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if self.next_byte() != Some(b'"') {
            return Ok(None);
        }
        self.unread = false;
        self.scan_string().map(Some)
    }

    fn number(&mut self) -> Result<Option<f64>, JsonParseError> {
        if !matches!(self.next_byte(), Some(b'-' | b'0'..=b'9')) {
            return Ok(None);
        }
        self.unread = false;
        self.scan_number().map(Some)
    }

    fn is_null(&mut self) -> bool {
        self.next_byte() == Some(b'n')
    }

    fn attempt<T, E: From<JsonParseError>>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Result<T, E>, E> {
        self.skip_whitespace();
        let (start, depth) = (self.pos, self.depth);
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(failure) => {
                (self.pos, self.depth, self.unread) = (start, depth, false);
                self.skip()?;
                self.checked.insert(start, self.pos);
                Ok(Err(failure))
            }
        }
    }
}

impl<'a> FieldReader<'a> for &'a Json {
    fn object<E: From<JsonParseError>>(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), E>,
    ) -> Result<bool, E> {
        let Json::Obj(fields) = *self else {
            return Ok(false);
        };
        for (key, mut value) in fields.iter().map(|(key, value)| (key, value)) {
            member(key, &mut value)?;
        }
        Ok(true)
    }

    fn array<E: From<JsonParseError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<bool, E> {
        let Json::Arr(items) = *self else {
            return Ok(false);
        };
        for mut value in items {
            item(&mut value)?;
        }
        Ok(true)
    }

    fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        let value: &'a Json = self;
        Ok(value.as_str().map(Cow::Borrowed))
    }

    fn number(&mut self) -> Result<Option<f64>, JsonParseError> {
        Ok(self.as_f64())
    }

    fn is_null(&mut self) -> bool {
        matches!(self, Json::Null)
    }

    fn attempt<T, E: From<JsonParseError>>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Result<T, E>, E> {
        Ok(read(self))
    }
}

/// The value of exactly four hex digits; a sign, a space or any other byte
/// makes it `None`.
fn hex4(digits: &[u8]) -> Option<u32> {
    debug_assert_eq!(digits.len(), 4);
    digits.iter().try_fold(0, |code, &digit| {
        Some(code << 4 | char::from(digit).to_digit(16)?)
    })
}

fn write_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Writes `s` quoted. Every character that needs an escape is ASCII, so the
/// runs between them are copied as slices.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
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

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_pair_surrogates() {
        let parse_str =
            |text: &str| Json::parse(text).map(|value| value.as_str().map(String::from));
        // What `json.dumps("\u{1F600}")` sends: one scalar, not two U+FFFD.
        assert_eq!(parse_str(r#""\ud83d\ude00""#), Ok(Some("\u{1F600}".into())));
        assert_eq!(
            parse_str(r#""a\uD83D\uDE00\u00e9\uDBFF\uDFFFz""#),
            Ok(Some("a\u{1F600}\u{e9}\u{10FFFF}z".into()))
        );
        // A surrogate without its partner is U+FFFD, and what follows a
        // lone high surrogate is decoded on its own.
        assert_eq!(parse_str(r#""\ud83d""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(parse_str(r#""\ud83dx""#), Ok(Some("\u{FFFD}x".into())));
        assert_eq!(parse_str(r#""\ud83d\u0041""#), Ok(Some("\u{FFFD}A".into())));
        assert_eq!(parse_str(r#""\ud83d\n""#), Ok(Some("\u{FFFD}\n".into())));
        assert_eq!(parse_str(r#""\ude00""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(
            parse_str(r#""\ude00\ud83d""#),
            Ok(Some("\u{FFFD}\u{FFFD}".into()))
        );
        assert_eq!(
            parse_str(r#""\ud83d\ud83d\ude00""#),
            Ok(Some("\u{FFFD}\u{1F600}".into()))
        );

        // Exactly four hex digits: no sign, no space. The offset is the
        // escape's (the byte behind the backslash), as for any bad escape.
        for (bad, offset, message) in [
            (r#""\u+041""#, 2, "bad \\u escape"),
            (r#""\u 041""#, 2, "bad \\u escape"),
            (r#""\u-041""#, 2, "bad \\u escape"),
            (r#""ab\u00g1""#, 4, "bad \\u escape"),
            (r#""\u00é""#, 2, "bad \\u escape"),
            (r#""\ud83d\u+e00""#, 8, "bad \\u escape"),
            (r#""\u004""#, 2, "bad \\u escape"),
            // Cut off by the end of the input, with and without the quote.
            (r#""\u00"#, 2, "truncated \\u escape"),
            (r#""\u00""#, 2, "truncated \\u escape"),
            (r#""\u"#, 2, "truncated \\u escape"),
            (r#""\ud83d\ude0"#, 8, "truncated \\u escape"),
            (r#""\"#, 2, "invalid escape"),
            (r#""\x41""#, 2, "invalid escape"),
            (r#""\u0041"#, 7, "unterminated string"),
        ] {
            assert_eq!(
                Json::parse(bad),
                Err(error(offset, message)),
                "parsing {bad}"
            );
        }
    }

    /// The module's complexity contract. A parser that does work per string
    /// byte in proportion to the rest of the document is as quadratic on many
    /// short strings as on one long one (these took minutes, 12 s and 22 s in
    /// a release build before strings were consumed as runs), hence the
    /// three shapes.
    #[test]
    fn parse_and_render_are_linear_in_document_bytes() {
        let one_string = Json::Str("a€".repeat(1 << 20));
        let short_strings = Json::Arr((0..200_000).map(|_| Json::str("ab")).collect());
        let many_keys = Json::Obj(
            (0..100_000)
                .map(|i| (format!("k{i:05}"), Json::Null))
                .collect(),
        );
        for (name, value) in [
            ("one 4 MiB string", one_string),
            ("200 000 two-character strings", short_strings),
            ("100 000 six-character keys", many_keys),
        ] {
            let started = std::time::Instant::now();
            let text = value.render();
            let parsed = Json::parse(&text).expect("own output must parse");
            let elapsed = started.elapsed();
            assert_eq!(parsed, value, "{name}");
            assert!(
                elapsed < std::time::Duration::from_secs(5),
                "{name}: render + parse of {} bytes took {elapsed:?}",
                text.len()
            );
        }
    }
}
