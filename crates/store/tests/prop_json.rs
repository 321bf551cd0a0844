//! Fuzz of the workspace's one JSON module: random trees survive
//! `render` → `parse` and render the bytes the per-node renderer wrote
//! before it, byte-level damage to a rendered document is a typed
//! error (never a panic, never an offset outside the text), and the string
//! routine — the part that consumes text as runs instead of characters —
//! agrees with the per-character loop it replaced on every result and every
//! error offset.
//!
//! The vendored `proptest` has no recursive strategies and no shrinking, so
//! each property draws one `seed`, grows its case from a `StdRng` and names
//! the seed and the document in the failure message.

use pnoc_store::{Json, JsonParseError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters a string is drawn from: the three the renderer must escape or
/// the parser must unescape, C0 controls, DEL, and scalars of every UTF-8
/// length including the ones next to the surrogate gap.
const CHARS: &[char] = &[
    '"',
    '\\',
    '/',
    '\0',
    '\u{1}',
    '\u{8}',
    '\t',
    '\n',
    '\u{c}',
    '\r',
    '\u{1f}',
    '\u{7f}',
    'a',
    'u',
    'Z',
    '0',
    ' ',
    '{',
    ']',
    ':',
    ',',
    'é',
    '\u{7ff}',
    '€',
    '\u{d7ff}',
    '\u{e000}',
    '\u{fffd}',
    '😀',
    '\u{10ffff}',
];

fn random_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0usize..12))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => f64::from(rng.gen_range(0u32..1000)) - 500.0,
        1 => rng.gen_range(-1e-3f64..1e-3),
        2 => rng.gen_range(-1e300f64..1e300),
        // Any finite bit pattern (subnormals, -0.0, f64::MAX, ...).
        _ => Some(f64::from_bits(rng.gen_range(0u64..=u64::MAX)))
            .filter(|n| n.is_finite())
            .unwrap_or(0.0),
    }
}

/// A random value nesting at most `depth` arrays/objects; object keys repeat.
fn random_tree(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0u32..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|_| {
                    let key = if rng.gen_bool(0.3) {
                        "dup".to_string()
                    } else {
                        random_string(rng)
                    };
                    (key, random_tree(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// One byte-level mutation: overwrite, delete, insert or truncate. Damage
/// is biased towards bytes the grammar reacts to.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    const BYTES: &[u8] = b"\"\\u{}[]:,0aF+-.eE \n\x00\x7f\x80\xc3\xe2\xf0\xff";
    let byte = if rng.gen_bool(0.7) {
        BYTES[rng.gen_range(0..BYTES.len())]
    } else {
        rng.gen_range(0u8..=u8::MAX)
    };
    let at = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0u32..4) {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        2 => bytes.truncate(at),
        _ => bytes.insert(at, byte),
    }
}

/// The renderer `Json::render` had before it wrote indentation in place and
/// copied strings as runs: two padding `String`s per node, one `push` per
/// character. Its bytes are the format of every cache entry and every
/// `cmp`-compared document, so the replacement must reproduce them exactly.
fn reference_render(value: &Json, out: &mut String, indent: usize) {
    use std::fmt::Write as _;
    let escaped = |out: &mut String, s: &str| {
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
    };
    let pad = "  ".repeat(indent);
    let pad_inner = "  ".repeat(indent + 1);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => escaped(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_inner);
                reference_render(item, out, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Json::Obj(fields) => {
            out.push_str("{\n");
            for (i, (key, item)) in fields.iter().enumerate() {
                out.push_str(&pad_inner);
                escaped(out, key);
                out.push_str(": ");
                reference_render(item, out, indent + 1);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn error(offset: usize, message: &str) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.to_string(),
    }
}

/// The string routine `Json::parse` had before it consumed runs: one
/// character per iteration. (Verbatim, except that the original found each
/// ordinary character with `from_utf8(&bytes[pos..])` — a validation of the
/// whole rest of the document, which is what made it quadratic — where this
/// copy slices the `&str`.) `text` is a document that starts with `"`; what
/// follows the closing quote is the "trailing characters" error of `parse`.
fn reference_string_document(text: &str) -> Result<String, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 1usize;
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            None => return Err(error(pos, "unterminated string")),
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
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
                            .get(pos + 1..pos + 5)
                            .ok_or_else(|| error(pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| error(pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| error(pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        pos += 4;
                    }
                    _ => return Err(error(pos, "invalid escape")),
                }
                pos += 1;
            }
            Some(_) => {
                let c = text[pos..].chars().next().expect("non-empty");
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    if pos != bytes.len() {
        return Err(error(pos, "trailing characters after the JSON value"));
    }
    Ok(out)
}

/// A string document assembled from whole lexical units — runs of ordinary
/// characters, valid escapes, malformed escapes — and ended by a quote, by
/// nothing, or by an escape the end of the input cuts off.
///
/// The two places where the parser deliberately left the reference are kept
/// out by construction (the unit tests in `json.rs` pin them): no `+` is
/// ever written, so no `\u+XXX`; a `\uDC00`–`\uDFFF` escape never directly
/// follows a high-surrogate one; and an escape that is cut short ends the
/// document, so no later unit can complete it into either.
fn random_string_document(rng: &mut StdRng) -> String {
    const ORDINARY: &[char] = &[
        'a', 'u', 'b', 'D', '8', '0', ' ', '/', '\n', '\u{1}', '\u{7f}', 'é', '€', '😀', '{', ',',
    ];
    const NOT_HEX: &[char] = &['g', ' ', '-', 'é', '€', '"', '\\', 'x'];
    let mut text = String::from("\"");
    let mut after_high_surrogate = false;
    for _ in 0..rng.gen_range(0usize..10) {
        let high_before = std::mem::take(&mut after_high_surrogate);
        match rng.gen_range(0u32..10) {
            0..=3 => {
                for _ in 0..rng.gen_range(1usize..9) {
                    text.push(ORDINARY[rng.gen_range(0..ORDINARY.len())]);
                }
            }
            4 | 5 => {
                text.push('\\');
                text.push(['"', '\\', '/', 'n', 'r', 't', 'b', 'f'][rng.gen_range(0usize..8)]);
            }
            6 | 7 => {
                let mut code = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(0xD800u32..0xE000),
                    1 => rng.gen_range(0u32..0x80),
                    _ => rng.gen_range(0u32..0x1_0000),
                };
                if high_before && (0xDC00..0xE000).contains(&code) {
                    code -= 0x400;
                }
                after_high_surrogate = (0xD800..0xDC00).contains(&code);
                let hex = if rng.gen_bool(0.5) {
                    format!("\\u{code:04x}")
                } else {
                    format!("\\u{code:04X}")
                };
                text.push_str(&hex);
            }
            8 => {
                // Not an escape at all, or four "digits" that are not hex.
                text.push('\\');
                if rng.gen_bool(0.5) {
                    text.push(['q', 'x', 'U', 'é', ' ', '0', '\n'][rng.gen_range(0usize..7)]);
                } else {
                    text.push('u');
                    let bad = rng.gen_range(0usize..4);
                    for digit in 0..4 {
                        text.push(if digit == bad {
                            NOT_HEX[rng.gen_range(0..NOT_HEX.len())]
                        } else {
                            ['0', '9', 'a', 'F'][rng.gen_range(0usize..4)]
                        });
                    }
                }
            }
            _ => {
                // Cut off: `\`, `\u`, `\u0`, `\u00`, `\u000`, with or
                // without a quote behind it, then the end of the input.
                text.push('\\');
                if rng.gen_bool(0.8) {
                    text.push('u');
                    for _ in 0..rng.gen_range(0usize..4) {
                        text.push(['0', 'd', '8', 'C'][rng.gen_range(0usize..4)]);
                    }
                }
                if rng.gen_bool(0.5) {
                    text.push('"');
                }
                return text;
            }
        }
    }
    match rng.gen_range(0u32..8) {
        0 => {}
        1 => text.push_str("\"x"),
        _ => text.push('"'),
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_trees_round_trip(seed in 0u64..=u64::MAX) {
        let tree = random_tree(&mut StdRng::seed_from_u64(seed), 6);
        let text = tree.render();
        let mut reference = String::new();
        reference_render(&tree, &mut reference, 0);
        prop_assert!(text == reference, "seed {seed}: rendered\n{text}\nthe reference renders\n{reference}");
        let parsed = Json::parse(&text)
            .map_err(|e| format!("seed {seed}: own output failed to parse: {e}\n{text}"))?;
        prop_assert!(parsed == tree, "seed {seed}: parse(render(v)) != v for\n{text}");
        // What `==` cannot see (the sign of a zero) shows in the bytes.
        prop_assert!(parsed.render() == text, "seed {seed}: render is not stable for\n{text}");
    }

    #[test]
    fn damaged_documents_are_typed_errors(seed in 0u64..=u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = random_tree(&mut rng, 6).render().into_bytes();
        for _ in 0..rng.gen_range(1usize..5) {
            mutate(&mut rng, &mut bytes);
        }
        // `parse` takes `&str`: damage that is not UTF-8 reaches it as U+FFFD.
        let text = String::from_utf8_lossy(&bytes);
        // Reaching the end of this body at all is the "never panics" half.
        if let Err(error) = Json::parse(&text) {
            prop_assert!(
                error.offset <= text.len(),
                "seed {seed}: error offset {} outside the {}-byte document: {error}\n{text}",
                error.offset,
                text.len()
            );
            prop_assert!(!error.message.is_empty(), "seed {seed}: empty message");
        }
    }

    #[test]
    fn strings_parse_as_the_per_character_loop_did(seed in 0u64..=u64::MAX) {
        let text = random_string_document(&mut StdRng::seed_from_u64(seed));
        let expected = reference_string_document(&text).map(Json::Str);
        let actual = Json::parse(&text);
        prop_assert!(
            actual == expected,
            "seed {seed}: {text:?} parsed to {actual:?}, the reference says {expected:?}"
        );
    }
}
