//! Trace replay: loading a [`Workload`] from JSONL.
//!
//! One flow per line, as a flat JSON object:
//!
//! ```text
//! {"src":0,"dst":4,"bytes":4096}
//! {"src":4,"dst":0,"bytes":4096,"deps":[0],"release":100,"collective":"reply"}
//! ```
//!
//! `src`, `dst` and `bytes` are required; `deps` (array of earlier line
//! numbers, 0-based), `release` (earliest start cycle) and `collective`
//! (phase label, defaults to `"trace"`) are optional. Blank lines and lines
//! starting with `#` are skipped. The workspace builds offline with no
//! serialization framework, so the parser here is a small hand-rolled one
//! restricted to exactly this schema; errors carry the 1-based line number.

use crate::dag::Workload;
use crate::flow::{Flow, FlowId};
use pnoc_noc::ids::CoreId;

/// Why a trace file could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line (0 for whole-file errors).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "trace: {}", self.message)
        } else {
            write!(f, "trace line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed flow line before assembly into the workload.
#[derive(Debug, Default)]
struct TraceLine {
    src: Option<u64>,
    dst: Option<u64>,
    bytes: Option<u64>,
    deps: Vec<u64>,
    release: u64,
    collective: Option<String>,
}

/// Character-level cursor over one line.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn eat(&mut self, expected: char) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == expected => {
                self.rest = &self.rest[expected.len_utf8()..];
                Ok(())
            }
            Some(c) => Err(format!("expected '{expected}', found '{c}'")),
            None => Err(format!("expected '{expected}', found end of line")),
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let digits: usize = self.rest.chars().take_while(char::is_ascii_digit).count();
        if digits == 0 {
            return Err("expected a non-negative integer".to_string());
        }
        let (number, rest) = self.rest.split_at(digits);
        self.rest = rest;
        number
            .parse::<u64>()
            .map_err(|_| format!("integer '{number}' overflows u64"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let Some((index, c)) = chars.next() else {
                return Err("unterminated string".to_string());
            };
            match c {
                '"' => {
                    self.rest = &self.rest[index + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, escaped)) = chars.next() else {
                        return Err("unterminated escape".to_string());
                    };
                    match escaped {
                        '"' | '\\' | '/' => out.push(escaped),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        other => return Err(format!("unsupported escape '\\{other}'")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

fn parse_line(text: &str) -> Result<TraceLine, String> {
    let mut cursor = Cursor::new(text);
    let mut line = TraceLine::default();
    cursor.eat('{')?;
    if cursor.peek() == Some('}') {
        return Err("flow object is empty".to_string());
    }
    loop {
        let key = cursor.parse_string()?;
        cursor.eat(':')?;
        match key.as_str() {
            "src" => line.src = Some(cursor.parse_u64()?),
            "dst" => line.dst = Some(cursor.parse_u64()?),
            "bytes" => line.bytes = Some(cursor.parse_u64()?),
            "release" => line.release = cursor.parse_u64()?,
            "collective" => line.collective = Some(cursor.parse_string()?),
            "deps" => {
                cursor.eat('[')?;
                if cursor.peek() != Some(']') {
                    loop {
                        line.deps.push(cursor.parse_u64()?);
                        if cursor.peek() == Some(',') {
                            cursor.eat(',')?;
                        } else {
                            break;
                        }
                    }
                }
                cursor.eat(']')?;
            }
            other => return Err(format!("unknown field '{other}'")),
        }
        match cursor.peek() {
            Some(',') => cursor.eat(',')?,
            _ => break,
        }
    }
    cursor.eat('}')?;
    if cursor.peek().is_some() {
        return Err("trailing characters after the flow object".to_string());
    }
    Ok(line)
}

/// Parses a JSONL trace into a validated [`Workload`] named `name`.
///
/// # Errors
///
/// Returns a line-numbered [`TraceError`] on syntax errors, missing
/// required fields, or a workload that fails
/// [`Workload::validate`](crate::dag::Workload::validate) (dangling
/// dependencies, cycles, self-loops, empty flows).
pub fn parse_trace(name: &str, text: &str) -> Result<Workload, TraceError> {
    let mut workload = Workload::new(name);
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let at = |message: String| TraceError {
            line: line_no,
            message,
        };
        let parsed = parse_line(trimmed).map_err(at)?;
        let require = |field: &str, value: Option<u64>| {
            value.ok_or_else(|| at(format!("missing required field '{field}'")))
        };
        let src = require("src", parsed.src)?;
        let dst = require("dst", parsed.dst)?;
        let bytes = require("bytes", parsed.bytes)?;
        let mut flow = Flow::new(FlowId(0), CoreId(src as usize), CoreId(dst as usize), bytes)
            .released_at(parsed.release)
            .in_collective(parsed.collective.unwrap_or_else(|| "trace".to_string()));
        for dep in parsed.deps {
            flow = flow.after(FlowId(dep as usize));
        }
        workload.add_flow(flow);
    }
    if workload.is_empty() {
        return Err(TraceError {
            line: 0,
            message: "trace contains no flows".to_string(),
        });
    }
    workload.validate().map_err(|error| TraceError {
        line: 0,
        message: error.to_string(),
    })?;
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_trace_round_trips_into_a_workload() {
        let text = r#"
# a two-phase request/reply exchange
{"src":0,"dst":4,"bytes":4096,"collective":"request"}
{"src":1,"dst":4,"bytes":2048,"collective":"request"}
{"src":4,"dst":0,"bytes":512,"deps":[0,1],"release":100,"collective":"reply"}
"#;
        let workload = parse_trace("req-reply", text).expect("valid trace");
        assert_eq!(workload.len(), 3);
        assert_eq!(workload.total_bytes(), 4096 + 2048 + 512);
        assert_eq!(workload.name(), "req-reply");
        let reply = &workload.flows()[2];
        assert_eq!(reply.deps, vec![FlowId(0), FlowId(1)]);
        assert_eq!(reply.release_cycle, 100);
        assert_eq!(
            workload.collectives(),
            vec!["reply".to_string(), "request".to_string()]
        );
    }

    #[test]
    fn defaults_apply_when_optional_fields_are_absent() {
        let workload = parse_trace("minimal", r#"{"src":1,"dst":2,"bytes":64}"#).unwrap();
        let flow = &workload.flows()[0];
        assert!(flow.deps.is_empty());
        assert_eq!(flow.release_cycle, 0);
        assert_eq!(flow.collective, "trace");
    }

    #[test]
    fn errors_carry_line_numbers_and_reasons() {
        let missing = parse_trace("t", "{\"src\":0,\"dst\":1}\n").expect_err("no bytes");
        assert_eq!(missing.line, 1);
        assert!(missing.to_string().contains("'bytes'"), "{missing}");

        let syntax =
            parse_trace("t", "{\"src\":0,\"dst\":1,\"bytes\":8}\nnot json\n").expect_err("syntax");
        assert_eq!(syntax.line, 2);

        let unknown =
            parse_trace("t", r#"{"src":0,"dst":1,"bytes":8,"qos":3}"#).expect_err("unknown field");
        assert!(unknown.to_string().contains("unknown field 'qos'"));

        let empty = parse_trace("t", "# only a comment\n").expect_err("no flows");
        assert_eq!(empty.line, 0);
    }

    #[test]
    fn invalid_dags_are_rejected_after_parsing() {
        // Forward-referencing cycle: 0 depends on 1, 1 depends on 0.
        let text = "{\"src\":0,\"dst\":1,\"bytes\":8,\"deps\":[1]}\n\
                    {\"src\":1,\"dst\":2,\"bytes\":8,\"deps\":[0]}\n";
        let error = parse_trace("cyclic", text).expect_err("cycle");
        assert!(error.to_string().contains("cycle"), "{error}");

        let dangling = parse_trace("t", r#"{"src":0,"dst":1,"bytes":8,"deps":[9]}"#)
            .expect_err("dangling dep");
        assert!(dangling.to_string().contains("only 1 flows"), "{dangling}");
    }

    #[test]
    fn whitespace_and_field_order_are_flexible() {
        let workload = parse_trace("ws", "  { \"bytes\" : 8 , \"dst\" : 1 , \"src\" : 0 }  ")
            .expect("whitespace tolerated");
        assert_eq!(workload.len(), 1);
    }
}
