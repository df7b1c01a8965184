//! The wire protocol: line-delimited JSON frames, structured error
//! codes, and the bounded frame reader.
//!
//! Every frame is one JSON object on one `\n`-terminated line, at most
//! [`MAX_LINE_BYTES`] long. The reader never buffers an oversized line:
//! it drains it chunk by chunk through the `BufRead` internals and
//! reports [`Frame::Oversized`], so a misbehaving peer costs bounded
//! memory and still gets a structured error back instead of a dropped
//! connection. A frame nested deeper than [`treequery_obs::MAX_DEPTH`]
//! is refused the same way, with its own code, before the recursive
//! parser can exhaust the session thread's stack.

use std::io::{self, BufRead};

use treequery_obs::{parse_json, Json, JsonErrorKind};

/// The protocol version this build speaks. A hello carrying any other
/// version is answered with `version_mismatch` and the connection is
/// closed.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame line (newline included): 1 MiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Structured error codes, the machine-readable half of every
/// `{"ok":false,...}` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object.
    MalformedFrame,
    /// The line exceeded [`MAX_LINE_BYTES`].
    OversizedFrame,
    /// The `verb` field names no known verb.
    UnknownVerb,
    /// A required field is absent.
    MissingField,
    /// A field is present but has the wrong type or an invalid value.
    BadField,
    /// The first frame on a connection must be a `hello`.
    ExpectedHello,
    /// The hello's `version` is not [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The named document is not in the catalog.
    NoSuchDocument,
    /// `load` would overwrite an existing document.
    DuplicateDocument,
    /// The query failed to parse or evaluate (parse errors, no query
    /// predicate, ...).
    QueryError,
    /// The query was cancelled by an explicit `cancel` request.
    Cancelled,
    /// The query's `deadline_ms` passed before it finished.
    DeadlineExceeded,
    /// Admission control timed out waiting for a heavy-lane slot.
    AdmissionRejected,
    /// `cancel` named an `id`/`tag` with no running query behind it.
    NoSuchQuery,
    /// The edit script failed to parse, or no op took effect.
    EditRejected,
    /// The server is shutting down.
    ShuttingDown,
    /// The frame nests arrays/objects deeper than
    /// [`treequery_obs::MAX_DEPTH`].
    TooDeep,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::BadField => "bad_field",
            ErrorCode::ExpectedHello => "expected_hello",
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::NoSuchDocument => "no_such_document",
            ErrorCode::DuplicateDocument => "duplicate_document",
            ErrorCode::QueryError => "query_error",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::AdmissionRejected => "admission_rejected",
            ErrorCode::NoSuchQuery => "no_such_query",
            ErrorCode::EditRejected => "edit_rejected",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::TooDeep => "too_deep",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Builds the standard success envelope.
pub fn ok() -> Json {
    Json::obj().set("ok", true)
}

/// Builds the standard error envelope.
pub fn error(code: ErrorCode, message: impl Into<String>) -> Json {
    Json::obj()
        .set("ok", false)
        .set("code", code.as_str())
        .set("error", message.into())
}

/// One read attempt's outcome.
#[derive(Debug)]
pub enum Frame {
    /// A parsed JSON value (not yet checked to be an object).
    Value(Json),
    /// The peer closed the connection (EOF on a line boundary).
    Eof,
    /// The line was longer than [`MAX_LINE_BYTES`]; it has been drained.
    Oversized,
    /// The line was refused — [`ErrorCode::MalformedFrame`] when it is
    /// not valid JSON, [`ErrorCode::TooDeep`] when it nests too deep —
    /// with a message saying why.
    Malformed(ErrorCode, String),
}

/// Reads one frame. Empty lines are skipped (friendly to `nc` users
/// tapping return). An oversized line is consumed to its newline in
/// buffer-sized chunks — never materialized — before reporting.
pub fn read_frame(reader: &mut impl BufRead) -> io::Result<Frame> {
    loop {
        let mut line: Vec<u8> = Vec::new();
        let mut oversized = false;
        // Manual bounded read_until: pull from fill_buf so an attacker's
        // 100 MiB line occupies only the BufReader's fixed buffer.
        let complete = loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                break false; // EOF
            }
            let (chunk, found_newline) = match buf.iter().position(|&b| b == b'\n') {
                Some(i) => (&buf[..i], true),
                None => (buf, false),
            };
            if !oversized {
                if line.len() + chunk.len() + 1 > MAX_LINE_BYTES {
                    oversized = true;
                    line.clear();
                } else {
                    line.extend_from_slice(chunk);
                }
            }
            let consumed = chunk.len() + usize::from(found_newline);
            reader.consume(consumed);
            if found_newline {
                break true;
            }
        };
        if oversized {
            return Ok(Frame::Oversized);
        }
        if line.is_empty() {
            if complete {
                continue; // blank line
            }
            return Ok(Frame::Eof);
        }
        let text = match std::str::from_utf8(&line) {
            Ok(t) => t.trim(),
            Err(_) => {
                return Ok(Frame::Malformed(
                    ErrorCode::MalformedFrame,
                    "frame is not UTF-8".to_owned(),
                ))
            }
        };
        if text.is_empty() {
            if complete {
                continue;
            }
            return Ok(Frame::Eof);
        }
        return Ok(match parse_json(text) {
            Ok(v) => Frame::Value(v),
            Err(e) => {
                let code = match e.kind {
                    JsonErrorKind::Syntax => ErrorCode::MalformedFrame,
                    JsonErrorKind::TooDeep => ErrorCode::TooDeep,
                };
                Frame::Malformed(code, e.to_string())
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frames(input: &[u8]) -> Vec<String> {
        let mut r = BufReader::with_capacity(64, input);
        let mut out = Vec::new();
        loop {
            match read_frame(&mut r).unwrap() {
                Frame::Eof => break,
                Frame::Value(v) => out.push(format!("value:{}", v.render())),
                Frame::Oversized => out.push("oversized".to_owned()),
                Frame::Malformed(code, _) => out.push(code.as_str().to_owned()),
            }
        }
        out
    }

    #[test]
    fn frames_split_on_newlines_and_skip_blanks() {
        let got = frames(b"{\"a\":1}\n\n  \n{\"b\":2}\n");
        assert_eq!(got, vec!["value:{\"a\":1}", "value:{\"b\":2}"]);
    }

    #[test]
    fn a_final_unterminated_line_still_parses() {
        let got = frames(b"{\"a\":1}");
        assert_eq!(got, vec!["value:{\"a\":1}"]);
    }

    #[test]
    fn oversized_lines_are_drained_not_buffered() {
        // 2 MiB of junk, then a healthy frame: the reader must survive
        // with its 64-byte buffer and resynchronize on the newline.
        let mut input = vec![b'x'; 2 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"{\"ok\":1}\n");
        let got = frames(&input);
        assert_eq!(got, vec!["oversized", "value:{\"ok\":1}"]);
    }

    #[test]
    fn junk_is_malformed_not_fatal() {
        let got = frames(b"not json\n{\"a\":1}\n");
        assert_eq!(got, vec!["malformed_frame", "value:{\"a\":1}"]);
    }

    #[test]
    fn deep_nesting_is_too_deep_not_fatal() {
        // Half a million `[` would overflow the recursive parser's stack;
        // the reader refuses the frame and resynchronizes on the newline.
        let mut input = vec![b'['; 500_000];
        input.push(b'\n');
        input.extend_from_slice(b"{\"a\":[[1]]}\n");
        let got = frames(&input);
        assert_eq!(got, vec!["too_deep", "value:{\"a\":[[1]]}"]);
    }
}
