//! Wire-format parsing of SIP messages.
//!
//! The parser is strict about the framing the IDS depends on (start line,
//! header/body split, `Content-Length` consistency) and lenient about
//! header *values*, which are stored raw and interpreted on demand. That
//! mirrors how the paper's Distiller distinguishes "not SIP at all" from
//! "SIP with a bad format" — the latter is a footprint the billing-fraud
//! rule wants to see, not a parse failure.
//!
//! Two implementations share the contract:
//!
//! * the fast line scan — SWAR terminator scanning (see [`crate::scan`]),
//!   length + first-byte dispatch for method and header-name matching —
//!   which hands each header to a sink. [`SipView::parse`] is the IDS's
//!   path: its sink decides the message's [`SipView`] from each header
//!   value as it passes and builds no owned value — no header, no
//!   extension name, no request URI and no reason phrase.
//!   [`SipView::format_violations`] renders an unclean message's
//!   violation text with a sink that keeps only the first value of each
//!   mandatory header. [`SipMessage::parse_bytes`] is the same scan with
//!   the owned [`Headers`] sink, for the testbed and for rendering.
//! * [`SipMessage::parse_bytes_reference`] — the retained naive
//!   per-byte tokenizer. It is the *specification*: the fast path must
//!   agree with it byte-for-byte on every input, which the differential
//!   property tests enforce.

use crate::header::{HeaderName, Headers};
use crate::method::Method;
use crate::msg::{
    declared_length, format_violations, SipMessage, SipView, StartLine, ViewScan, MANDATORY,
};
use crate::scan;
use crate::status::StatusCode;
use crate::uri::SipUri;
use bytes::Bytes;
use std::fmt;
use std::ops::Range;

/// Error parsing bytes as a SIP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SipParseError {
    /// Input is empty.
    Empty,
    /// Input is not UTF-8 text where headers must be.
    NotText,
    /// The first line is neither a valid request line nor status line.
    BadStartLine(String),
    /// A header line has no `:` separator.
    BadHeaderLine(String),
    /// No blank line terminates the header section.
    MissingHeaderTerminator,
    /// `Content-Length` disagrees with the actual body size.
    BodyLengthMismatch {
        /// Declared `Content-Length`.
        declared: usize,
        /// Bytes actually present after the header terminator.
        actual: usize,
    },
}

impl fmt::Display for SipParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SipParseError::Empty => write!(f, "empty input"),
            SipParseError::NotText => write!(f, "header section is not utf-8 text"),
            SipParseError::BadStartLine(l) => write!(f, "bad start line: `{l}`"),
            SipParseError::BadHeaderLine(l) => write!(f, "header line without colon: `{l}`"),
            SipParseError::MissingHeaderTerminator => {
                write!(f, "no blank line terminating headers")
            }
            SipParseError::BodyLengthMismatch { declared, actual } => write!(
                f,
                "content-length {declared} disagrees with body of {actual} bytes"
            ),
        }
    }
}

impl std::error::Error for SipParseError {}

impl SipMessage {
    /// Parses a SIP message from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SipParseError`] when the input is not framed as a SIP
    /// message. Messages that frame correctly but violate SIP's
    /// mandatory-header rules parse successfully; use
    /// [`SipMessage::format_violations`] to detect those.
    ///
    /// # Examples
    ///
    /// ```
    /// use scidive_sip::msg::SipMessage;
    ///
    /// let raw = b"OPTIONS sip:b@10.0.0.2 SIP/2.0\r\n\
    ///             Call-ID: x\r\n\
    ///             Content-Length: 0\r\n\r\n";
    /// let msg = SipMessage::parse(raw)?;
    /// assert!(msg.is_request());
    /// # Ok::<(), scidive_sip::parse::SipParseError>(())
    /// ```
    pub fn parse(input: &[u8]) -> Result<SipMessage, SipParseError> {
        SipMessage::parse_bytes(Bytes::copy_from_slice(input))
    }

    /// Parses a SIP message from a shared wire buffer. Header values
    /// are owned copies; the body is a slice of `input`.
    ///
    /// This is the fast implementation: the header/body separator is
    /// found by a SWAR scan and method/header names match by length +
    /// first-byte dispatch. Its observable behavior is byte-identical
    /// to [`SipMessage::parse_bytes_reference`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SipMessage::parse`].
    pub fn parse_bytes(input: Bytes) -> Result<SipMessage, SipParseError> {
        let mut headers = Headers::new();
        let (start, body) = parse_fast(&input, &mut headers)?;
        Ok(SipMessage {
            start: start.owned()?,
            headers,
            body: input.slice(body),
        })
    }

    /// The retained naive tokenizer: per-byte window search for the
    /// header terminator, linear scans for method and header-name
    /// matching. Kept as the behavioral specification the fast path is
    /// differentially tested against.
    ///
    /// # Errors
    ///
    /// Same contract as [`SipMessage::parse`].
    pub fn parse_bytes_reference(input: Bytes) -> Result<SipMessage, SipParseError> {
        if input.is_empty() {
            return Err(SipParseError::Empty);
        }
        let sep = find_header_end_reference(&input).ok_or(SipParseError::MissingHeaderTerminator)?;
        let head =
            std::str::from_utf8(&input[..sep.header_end]).map_err(|_| SipParseError::NotText)?;

        let mut lines = head
            .split('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .filter(|l| !l.is_empty())
            .peekable();
        let start = parse_start_line_reference(lines.next().ok_or(SipParseError::Empty)?)?;

        let mut headers = Headers::new();
        while let Some(line) = lines.next() {
            let mut folded: Option<String> = None;
            while lines
                .peek()
                .is_some_and(|next| next.starts_with([' ', '\t']))
            {
                let cont = lines.next().expect("peeked");
                let joined = folded.get_or_insert_with(|| line.to_string());
                joined.push(' ');
                joined.push_str(cont.trim_start());
            }
            let line = folded.as_deref().unwrap_or(line);
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| SipParseError::BadHeaderLine(line.to_string()))?;
            headers.push(HeaderName::parse_reference(name.trim()), value.trim());
        }

        let body = slice_body(
            input.len(),
            sep.body_start,
            headers_declared_length(&headers),
        )?;
        Ok(SipMessage {
            start,
            headers,
            body: input.slice(body),
        })
    }
}

impl SipView {
    /// Reads a SIP message's [`SipView`] off its wire text in the line
    /// scan of [`SipMessage::parse_bytes`], storing no header. Returns
    /// the text the view's spans index with the view: `input` itself,
    /// or — when a header line was folded, so a value is not contiguous
    /// in the wire — the unfolded rendering, `input` with each fold
    /// replaced by the one space the parse joins it with. Both texts
    /// parse to the same message.
    ///
    /// # Errors
    ///
    /// Exactly when [`SipMessage::parse_bytes`] fails, with its error.
    pub fn parse(input: Bytes) -> Result<(Bytes, SipView), SipParseError> {
        let mut scan = ViewScan::default();
        let (start, body) = parse_fast(&input, &mut scan)?;
        if scan.folds.is_empty() {
            let view = scan.finish(start.method(), start.status(), &input[body]);
            return Ok((input, view));
        }
        let text = unfold(&input, &scan.folds);
        let mut scan = ViewScan::default();
        let (start, body) = parse_fast(&text, &mut scan)?;
        debug_assert!(scan.folds.is_empty(), "an unfolded rendering has no fold");
        let view = scan.finish(start.method(), start.status(), &text[body]);
        Ok((text, view))
    }

    /// [`SipMessage::format_violations`] of the message `input` frames,
    /// read off its text without building the message: only the first
    /// value of each mandatory header is kept, as a range of `input`.
    ///
    /// # Errors
    ///
    /// Exactly when [`SipMessage::parse_bytes`] fails, with its error.
    pub fn format_violations(input: &[u8]) -> Result<Vec<String>, SipParseError> {
        let mut first = FirstValues::default();
        let (start, body) = parse_fast(input, &mut first)?;
        // `parse_fast` validated the head as UTF-8 and the blank line
        // after it is ASCII, so this holds, and each kept range lies on
        // char boundaries: a trimmed value starts and ends at one.
        let head = std::str::from_utf8(&input[..body.start]).map_err(|_| SipParseError::NotText)?;
        let value = |name: &HeaderName| {
            let slot = MANDATORY.iter().position(|(n, _)| n == name)?;
            match first.values[slot].as_ref()? {
                FirstValue::At(range) => Some(&head[range.clone()]),
                FirstValue::Folded(value) => Some(value.as_str()),
            }
        };
        Ok(format_violations(start.method(), value, true))
    }
}

/// `input` with every fold range replaced by one space. A fold spans at
/// least the line break and the continuation's leading SP or HT, so the
/// rendering is shorter than the input.
fn unfold(input: &[u8], folds: &[Range<usize>]) -> Bytes {
    let mut text = Vec::with_capacity(input.len());
    let mut at = 0;
    for fold in folds {
        text.extend_from_slice(&input[at..fold.start]);
        text.push(b' ');
        at = fold.end;
    }
    text.extend_from_slice(&input[at..]);
    Bytes::from(text)
}

/// Where the line scan hands each header: a header list for
/// [`SipMessage::parse_bytes`], the view's decisions for
/// [`SipView::parse`].
trait HeaderSink {
    /// One header, in message order: its name and value trimmed, and
    /// the value's offset in the input — `None` for a folded value,
    /// which is its joined text.
    fn header(&mut self, name: &str, value: &str, at: Option<usize>);

    /// A fold: the `input` range from the end of one line's text to the
    /// start of its continuation's, which the joined value reads as one
    /// space.
    fn fold(&mut self, _range: Range<usize>) {}

    /// The first `Content-Length` value, parsed: `None` without one,
    /// `Some(None)` when it is not a number.
    fn declared_length(&self) -> Option<Option<usize>>;
}

impl HeaderSink for Headers {
    fn header(&mut self, name: &str, value: &str, _at: Option<usize>) {
        self.push(HeaderName::parse(name), value);
    }

    fn declared_length(&self) -> Option<Option<usize>> {
        headers_declared_length(self)
    }
}

impl HeaderSink for ViewScan {
    /// Extension names are skipped unbuilt: the view reads none.
    fn header(&mut self, name: &str, value: &str, at: Option<usize>) {
        if let Some(name) = HeaderName::known(name) {
            ViewScan::header(self, &name, value, at);
        }
    }

    fn fold(&mut self, range: Range<usize>) {
        self.folds.push(range);
    }

    fn declared_length(&self) -> Option<Option<usize>> {
        self.declared_length
    }
}

/// The first value of each [`MANDATORY`] header, in its order, for
/// [`SipView::format_violations`].
#[derive(Default)]
struct FirstValues {
    values: [Option<FirstValue>; MANDATORY.len()],
    declared_length: Option<Option<usize>>,
}

enum FirstValue {
    /// The value's range of the input.
    At(Range<usize>),
    /// A folded value's joined text, which is not contiguous in it.
    Folded(String),
}

impl HeaderSink for FirstValues {
    fn header(&mut self, name: &str, value: &str, at: Option<usize>) {
        let Some(name) = HeaderName::known(name) else {
            return;
        };
        if name == HeaderName::ContentLength && self.declared_length.is_none() {
            self.declared_length = Some(declared_length(value));
        }
        if let Some(slot) = MANDATORY.iter().position(|(n, _)| *n == name) {
            self.values[slot].get_or_insert_with(|| match at {
                Some(at) => FirstValue::At(at..at + value.len()),
                None => FirstValue::Folded(value.to_owned()),
            });
        }
    }

    fn declared_length(&self) -> Option<Option<usize>> {
        self.declared_length
    }
}

fn headers_declared_length(headers: &Headers) -> Option<Option<usize>> {
    headers.get(&HeaderName::ContentLength).map(declared_length)
}

/// The production parse: frames `input`, hands each header to `sink`
/// in message order, and returns the start line and the body's range.
fn parse_fast<'a>(
    input: &'a [u8],
    sink: &mut impl HeaderSink,
) -> Result<(StartText<'a>, Range<usize>), SipParseError> {
    if input.is_empty() {
        return Err(SipParseError::Empty);
    }
    // Find the header/body separator: SWAR scan for `\r\n\r\n`
    // first, over the whole input, then the bare-LF fallback —
    // exactly the reference's search order.
    let sep = find_header_end(input).ok_or(SipParseError::MissingHeaderTerminator)?;
    let head = std::str::from_utf8(&input[..sep.header_end]).map_err(|_| SipParseError::NotText)?;
    // The head starts the input, so an offset in one is one in the other.
    let base = head.as_ptr() as usize;
    let offset = |s: &str| s.as_ptr() as usize - base;

    // Tolerate bare-LF line endings alongside canonical CRLF: a
    // cursor walks LF-delimited lines, trimming a trailing CR and
    // skipping empties — the same view the reference's
    // split/strip/filter chain produces, but the line breaks are
    // located by one SWAR pass over the whole head up front
    // (per-line scanning pays loop setup on every ~40-byte line).
    let mut cursor = LineCursor::new(head);
    let start = parse_start_line(cursor.next().ok_or(SipParseError::Empty)?)?;

    let mut pending = cursor.next();
    while let Some(line) = pending.take() {
        // Header folding: continuation lines start with SP/HT. Only
        // a folded header pays for an owned joined line. The
        // lookahead line is either consumed as a continuation or
        // carried into the next loop turn as `pending`.
        let mut folded: Option<String> = None;
        let mut text_end = offset(line) + line.len();
        loop {
            match cursor.next() {
                Some(cont) if matches!(cont.as_bytes().first(), Some(b' ' | b'\t')) => {
                    let cont = cont.trim_start();
                    sink.fold(text_end..offset(cont));
                    text_end = offset(cont) + cont.len();
                    let joined = folded.get_or_insert_with(|| line.to_string());
                    joined.push(' ');
                    joined.push_str(cont);
                }
                other => {
                    pending = other;
                    break;
                }
            }
        }
        match &folded {
            None => {
                let colon = scan::memchr(b':', line.as_bytes())
                    .ok_or_else(|| SipParseError::BadHeaderLine(line.to_string()))?;
                let value = scan::trim_ws(&line[colon + 1..]);
                let name = scan::trim_ws(&line[..colon]);
                sink.header(name, value, Some(offset(value)));
            }
            Some(joined) => {
                let (name, value) = joined
                    .split_once(':')
                    .ok_or_else(|| SipParseError::BadHeaderLine(joined.clone()))?;
                sink.header(name.trim(), value.trim(), None);
            }
        }
    }

    let body = slice_body(input.len(), sep.body_start, sink.declared_length())?;
    Ok((start, body))
}

/// The body's range: the rest of the input, cut to the declared
/// `Content-Length` when it is a number. Common to both
/// implementations — the rule is framing policy, not scanning.
fn slice_body(
    len: usize,
    body_start: usize,
    declared: Option<Option<usize>>,
) -> Result<Range<usize>, SipParseError> {
    let body_len = len - body_start;
    match declared {
        Some(Some(declared)) if declared <= body_len => {
            // Extra trailing bytes beyond the declared body are
            // truncated, as a UDP stack would.
            Ok(body_start..body_start + declared)
        }
        Some(Some(declared)) => Err(SipParseError::BodyLengthMismatch {
            declared,
            actual: body_len,
        }),
        _ => Ok(body_start..len),
    }
}

/// Quick sniff: does this payload look like SIP at all? Used by the
/// Distiller's classifier before committing to a full parse. Dispatches
/// on the first byte instead of trying every method token.
pub fn looks_like_sip(payload: &[u8]) -> bool {
    if payload.starts_with(b"SIP/2.0 ") {
        return true;
    }
    let Some(&first) = payload.first() else {
        return false;
    };
    Method::by_first_byte(first).iter().any(|m| {
        let token = m.as_str().as_bytes();
        payload.starts_with(token) && payload.get(token.len()) == Some(&b' ')
    })
}

/// The retained linear-scan sniff, for differential testing.
pub fn looks_like_sip_reference(payload: &[u8]) -> bool {
    if payload.starts_with(b"SIP/2.0 ") {
        return true;
    }
    Method::ALL
        .iter()
        .any(|m| payload.starts_with(m.as_str().as_bytes()) && {
            let rest = &payload[m.as_str().len()..];
            rest.first() == Some(&b' ')
        })
}

/// Cursor over the non-empty, CR-stripped lines of a header section —
/// the same view the reference's
/// `split('\n') → strip_suffix('\r') → filter(non-empty)` chain
/// produces.
///
/// Construction locates every LF in one SWAR pass
/// ([`scan::memchr_all`]) so iteration is just table lookups; a head
/// with more line breaks than the table holds (hostile input — no real
/// message has 96+ lines) falls back to per-line [`next_line`]
/// scanning.
// The LF table makes `Indexed` large, but the cursor lives on the
// stack for the duration of one parse; boxing the table (clippy's
// suggestion) would put an allocation back on the per-message path.
#[allow(clippy::large_enum_variant)]
enum LineCursor<'a> {
    /// Line breaks pre-located; `i` indexes the next LF, `pos` is the
    /// current line start.
    Indexed {
        /// The header section.
        head: &'a str,
        /// LF positions within `head`, ascending.
        lf: [u32; scan::HIT_CAP],
        /// Number of valid entries in `lf`.
        n: usize,
        /// Index of the next unconsumed LF.
        i: usize,
        /// Byte offset of the next line start.
        pos: usize,
    },
    /// Fallback: scan for each LF as lines are consumed.
    Scan {
        /// The header section.
        head: &'a str,
        /// Byte offset of the next line start.
        pos: usize,
    },
}

impl<'a> LineCursor<'a> {
    fn new(head: &'a str) -> LineCursor<'a> {
        let mut lf = [0u32; scan::HIT_CAP];
        match scan::memchr_all(b'\n', head.as_bytes(), &mut lf) {
            Some(n) => LineCursor::Indexed {
                head,
                lf,
                n,
                i: 0,
                pos: 0,
            },
            None => LineCursor::Scan { head, pos: 0 },
        }
    }

    /// Next non-empty line, stripped of its trailing CR. LF and CR are
    /// ASCII, so the byte positions are `char` boundaries.
    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        match self {
            LineCursor::Indexed {
                head,
                lf,
                n,
                i,
                pos,
                ..
            } => {
                let bytes = head.as_bytes();
                while *pos < bytes.len() {
                    let start = *pos;
                    let end_of_line = if *i < *n {
                        let p = lf[*i] as usize;
                        *i += 1;
                        p
                    } else {
                        bytes.len()
                    };
                    *pos = end_of_line + 1;
                    let mut end = end_of_line;
                    if end > start && bytes[end - 1] == b'\r' {
                        end -= 1;
                    }
                    if end > start {
                        return Some(&head[start..end]);
                    }
                }
                None
            }
            LineCursor::Scan { head, pos } => next_line(head, pos),
        }
    }
}

/// Next non-empty line of `head` starting at `*pos`, stripped of its
/// trailing CR; advances `*pos` past the line's terminating LF. Yields
/// exactly the lines of the reference's
/// `split('\n') → strip_suffix('\r') → filter(non-empty)` chain. LF and
/// CR are ASCII, so the byte positions are `char` boundaries.
#[inline]
fn next_line<'a>(head: &'a str, pos: &mut usize) -> Option<&'a str> {
    let bytes = head.as_bytes();
    while *pos < bytes.len() {
        let start = *pos;
        let end_of_line = match scan::memchr(b'\n', &bytes[start..]) {
            Some(i) => start + i,
            None => bytes.len(),
        };
        *pos = end_of_line + 1;
        let mut end = end_of_line;
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        if end > start {
            return Some(&head[start..end]);
        }
    }
    None
}

struct HeaderEnd {
    header_end: usize,
    body_start: usize,
}

fn find_header_end(input: &[u8]) -> Option<HeaderEnd> {
    if let Some(pos) = scan::find_crlf_crlf(input) {
        return Some(HeaderEnd {
            header_end: pos,
            body_start: pos + 4,
        });
    }
    if let Some(pos) = scan::find_lf_lf(input) {
        return Some(HeaderEnd {
            header_end: pos,
            body_start: pos + 2,
        });
    }
    None
}

fn find_header_end_reference(input: &[u8]) -> Option<HeaderEnd> {
    if let Some(pos) = window_find(input, b"\r\n\r\n") {
        return Some(HeaderEnd {
            header_end: pos,
            body_start: pos + 4,
        });
    }
    if let Some(pos) = window_find(input, b"\n\n") {
        return Some(HeaderEnd {
            header_end: pos,
            body_start: pos + 2,
        });
    }
    None
}

fn window_find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
}

/// A start line as the line scan accepts it, borrowing its text: the
/// view reads the method or status, and [`SipMessage::parse_bytes`]
/// builds the owned [`StartLine`].
enum StartText<'a> {
    /// A request line; [`SipUri::aor_of`] accepted its URI.
    Request {
        /// The whole line, for the error text.
        line: &'a str,
        method: Method,
        uri: &'a str,
    },
    /// A status line.
    Response { code: StatusCode, reason: &'a str },
}

impl StartText<'_> {
    fn method(&self) -> Option<Method> {
        match self {
            StartText::Request { method, .. } => Some(*method),
            StartText::Response { .. } => None,
        }
    }

    fn status(&self) -> Option<StatusCode> {
        match self {
            StartText::Request { .. } => None,
            StartText::Response { code, .. } => Some(*code),
        }
    }

    /// The owned start line. `aor_of` accepts exactly what `from_str`
    /// does, so the URI parses; were they ever to disagree, the line
    /// would still be refused as the bad start line it is.
    fn owned(&self) -> Result<StartLine, SipParseError> {
        Ok(match *self {
            StartText::Request { line, method, uri } => StartLine::Request {
                method,
                uri: uri
                    .parse()
                    .map_err(|_| SipParseError::BadStartLine(line.to_string()))?,
            },
            StartText::Response { code, reason } => StartLine::Response {
                code,
                reason: reason.to_owned(),
            },
        })
    }
}

fn parse_start_line(line: &str) -> Result<StartText<'_>, SipParseError> {
    let bad = || SipParseError::BadStartLine(line.to_string());
    if let Some(rest) = line.strip_prefix("SIP/2.0 ") {
        // Status line.
        let (code_str, reason) = rest.split_once(' ').unwrap_or((rest, ""));
        let code_num: u16 = code_str.parse().map_err(|_| bad())?;
        let code = StatusCode::try_from(code_num).map_err(|_| bad())?;
        return Ok(StartText::Response { code, reason });
    }
    // Request line: METHOD SP uri SP SIP/2.0, split at the first two
    // spaces. Equivalent to the reference's `split(' ')` walk: a
    // doubled separator yields an empty URI (parse error), and any
    // trailing fields leave the tail != "SIP/2.0".
    let sp1 = scan::memchr(b' ', line.as_bytes()).ok_or_else(bad)?;
    let method = Method::parse_token(&line[..sp1]).ok_or_else(bad)?;
    let rest = &line[sp1 + 1..];
    let sp2 = scan::memchr(b' ', rest.as_bytes()).ok_or_else(bad)?;
    let uri = &rest[..sp2];
    if SipUri::aor_of(uri).is_none() || &rest[sp2 + 1..] != "SIP/2.0" {
        return Err(bad());
    }
    Ok(StartText::Request { line, method, uri })
}

/// The retained start-line parser: linear method scan and the naive URI
/// parser.
fn parse_start_line_reference(line: &str) -> Result<StartLine, SipParseError> {
    let bad = || SipParseError::BadStartLine(line.to_string());
    if let Some(rest) = line.strip_prefix("SIP/2.0 ") {
        let (code_str, reason) = rest.split_once(' ').unwrap_or((rest, ""));
        let code_num: u16 = code_str.parse().map_err(|_| bad())?;
        let code = StatusCode::try_from(code_num).map_err(|_| bad())?;
        return Ok(StartLine::Response {
            code,
            reason: reason.to_string(),
        });
    }
    let mut parts = line.split(' ');
    let method: Method = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let uri = SipUri::parse_reference(parts.next().ok_or_else(bad)?).map_err(|_| bad())?;
    let version = parts.next().ok_or_else(bad)?;
    if version != "SIP/2.0" || parts.next().is_some() {
        return Err(bad());
    }
    Ok(StartLine::Request { method, uri })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{CSeq, NameAddr, Via};
    use crate::msg::{response_to, RequestBuilder};

    fn sample_request_bytes() -> Bytes {
        RequestBuilder::new(Method::Invite, "sip:bob@10.0.0.2".parse().unwrap())
            .from(NameAddr::new("sip:alice@10.0.0.1".parse().unwrap()).with_tag("a1"))
            .to(NameAddr::new("sip:bob@10.0.0.2".parse().unwrap()))
            .call_id("c1@10.0.0.1")
            .cseq(CSeq::new(7, Method::Invite))
            .via(Via::udp("10.0.0.1:5060", "z9hG4bKx"))
            .body("application/sdp", "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\n")
            .build()
            .to_bytes()
    }

    #[test]
    fn roundtrip_request() {
        let bytes = sample_request_bytes();
        let msg = SipMessage::parse(&bytes).unwrap();
        assert_eq!(msg.method(), Some(Method::Invite));
        assert_eq!(msg.call_id().unwrap(), "c1@10.0.0.1");
        assert_eq!(msg.cseq().unwrap().seq, 7);
        assert_eq!(msg.body.len(), 30);
        // Re-serialize and re-parse: stable.
        let again = SipMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(again, msg);
    }

    #[test]
    fn roundtrip_response() {
        let req = SipMessage::parse(&sample_request_bytes()).unwrap();
        let resp = response_to(&req, StatusCode::UNAUTHORIZED, Some("srv"));
        let parsed = SipMessage::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status(), Some(StatusCode::UNAUTHORIZED));
        assert_eq!(parsed.to().unwrap().tag(), Some("srv"));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(SipMessage::parse(b""), Err(SipParseError::Empty));
        assert_eq!(
            SipMessage::parse(b"INVITE sip:b@h SIP/2.0\r\nCall-ID: x\r\n"),
            Err(SipParseError::MissingHeaderTerminator)
        );
        assert!(matches!(
            SipMessage::parse(b"NOTAMETHOD sip:b@h SIP/2.0\r\n\r\n"),
            Err(SipParseError::BadStartLine(_))
        ));
        assert!(matches!(
            SipMessage::parse(b"INVITE sip:b@h SIP/1.0\r\n\r\n"),
            Err(SipParseError::BadStartLine(_))
        ));
        assert!(matches!(
            SipMessage::parse(b"INVITE sip:b@h SIP/2.0\r\nbadline\r\n\r\n"),
            Err(SipParseError::BadHeaderLine(_))
        ));
        assert!(matches!(
            SipMessage::parse(b"SIP/2.0 999999 Huh\r\n\r\n"),
            Err(SipParseError::BadStartLine(_))
        ));
    }

    #[test]
    fn content_length_too_large_is_error() {
        let raw = b"INVITE sip:b@h SIP/2.0\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(
            SipMessage::parse(raw),
            Err(SipParseError::BodyLengthMismatch {
                declared: 10,
                actual: 3
            })
        );
    }

    #[test]
    fn content_length_smaller_truncates() {
        let raw = b"INVITE sip:b@h SIP/2.0\r\nContent-Length: 3\r\n\r\nabcdef";
        let msg = SipMessage::parse(raw).unwrap();
        assert_eq!(&msg.body[..], b"abc");
    }

    #[test]
    fn missing_content_length_takes_rest() {
        let raw = b"INVITE sip:b@h SIP/2.0\r\nCall-ID: x\r\n\r\nbody!";
        let msg = SipMessage::parse(raw).unwrap();
        assert_eq!(&msg.body[..], b"body!");
    }

    #[test]
    fn bare_lf_tolerated() {
        let raw = b"BYE sip:b@h SIP/2.0\nCall-ID: x\nCSeq: 2 BYE\n\n";
        let msg = SipMessage::parse(raw).unwrap();
        assert_eq!(msg.method(), Some(Method::Bye));
        assert_eq!(msg.cseq().unwrap(), CSeq::new(2, Method::Bye));
    }

    #[test]
    fn folded_header_joined() {
        let raw = b"INVITE sip:b@h SIP/2.0\r\nSubject: first\r\n second\r\nCall-ID: x\r\n\r\n";
        let msg = SipMessage::parse(raw).unwrap();
        assert_eq!(
            msg.headers.get(&HeaderName::Subject).unwrap(),
            "first second"
        );
        assert_eq!(msg.call_id().unwrap(), "x");
    }

    #[test]
    fn compact_header_forms_fold() {
        let raw = b"INVITE sip:b@h SIP/2.0\r\ni: compact-id\r\nv: SIP/2.0/UDP h;branch=z9\r\n\r\n";
        let msg = SipMessage::parse(raw).unwrap();
        assert_eq!(msg.call_id().unwrap(), "compact-id");
        assert_eq!(msg.via_top().unwrap().branch(), Some("z9"));
    }

    #[test]
    fn sniffer_accepts_sip_rejects_rtp() {
        for sniff in [looks_like_sip, looks_like_sip_reference] {
            assert!(sniff(b"INVITE sip:b@h SIP/2.0\r\n"));
            assert!(sniff(b"SIP/2.0 200 OK\r\n"));
            assert!(!sniff(b"INVITEX sip:b@h"));
            assert!(!sniff(&[0x80, 0x00, 0x01, 0x02]));
            assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        }
    }

    #[test]
    fn binary_garbage_rejected() {
        let garbage: Vec<u8> = (0..64).map(|i| (i * 37 % 251) as u8).collect();
        assert!(SipMessage::parse(&garbage).is_err());
    }

    /// The fast parser and the retained reference must agree — result
    /// or error — on a corpus of well-formed, hostile, and truncated
    /// inputs. (The randomized version lives in the core crate's
    /// property tests.)
    #[test]
    fn fast_parser_matches_reference_on_corpus() {
        let mut corpus: Vec<Vec<u8>> = vec![
            sample_request_bytes().to_vec(),
            b"SIP/2.0 200 OK\r\nCall-ID: x\r\n\r\n".to_vec(),
            b"SIP/2.0 180\r\n\r\n".to_vec(),
            b"BYE sip:b@h SIP/2.0\nCall-ID: x\nCSeq: 2 BYE\n\n".to_vec(),
            b"INVITE sip:b@h SIP/2.0\r\nSubject: a\r\n b\r\n\tc\r\nCall-ID: x\r\n\r\n".to_vec(),
            b"INVITE sip:b@h SIP/2.0\r\nContent-Length: 99\r\n\r\nshort".to_vec(),
            b"INVITE sip:b@h SIP/2.0\r\nContent-Length: bogus\r\n\r\nrest".to_vec(),
            b"OPTIONS sip:b@h SIP/2.0\r\nX-Long: ".to_vec(),
            vec![0xff, 0x00, b'\r', b'\n', b'\r', b'\n'],
            b"\r\n\r\n".to_vec(),
            b"INVITE  sip:b@h  SIP/2.0\r\n\r\n".to_vec(),
        ];
        // LF then VT, at every alignment in a word: a VT is not a line
        // break, so it cannot start a continuation line either.
        for pad in 0..8 {
            let mut raw = b"INVITE sip:bob@lab SIP/2.0\r\nSubject: h".to_vec();
            raw.extend(std::iter::repeat_n(b'i', pad));
            raw.extend(b"\n\x0B there\r\nCall-ID: x\n\x0BX: y\r\n\r\n");
            corpus.push(raw);
        }
        // A value longer than any the corpus above holds.
        let mut long = b"REGISTER sip:h SIP/2.0\r\nX-Pad: ".to_vec();
        long.extend(std::iter::repeat_n(b'y', 200));
        long.extend(b"\r\n\r\ntrailing");
        corpus.push(long);
        // Hostile line count: overflows the one-pass line table, so the
        // fast path takes the incremental-scan fallback.
        let mut many = b"OPTIONS sip:h SIP/2.0\r\n".to_vec();
        for k in 0..120 {
            many.extend(format!("X-{k}: v\r\n").into_bytes());
        }
        many.extend(b"\r\n");
        corpus.push(many);
        for raw in &corpus {
            // Truncation at every offset: framing decisions must agree
            // even on torn CRLFs.
            for cut in 0..=raw.len() {
                let input = Bytes::copy_from_slice(&raw[..cut]);
                let fast = SipMessage::parse_bytes(input.clone());
                let reference = SipMessage::parse_bytes_reference(input.clone());
                assert_eq!(fast, reference, "diverged at cut {cut} of {raw:?}");
                check_view(input);
            }
        }
    }

    /// [`SipView::parse`] fails exactly as `parse_bytes` does, and
    /// otherwise returns a text that parses to the same message and a
    /// view equal to that message's accessors; the violation text read
    /// off the input is the parsed message's.
    fn check_view(input: Bytes) {
        assert_eq!(
            SipView::format_violations(&input),
            SipMessage::parse_bytes(input.clone()).map(|msg| msg.format_violations()),
            "{input:?}"
        );
        let (text, view) = match (
            SipMessage::parse_bytes(input.clone()),
            SipView::parse(input.clone()),
        ) {
            (Err(parsed), Err(viewed)) => return assert_eq!(parsed, viewed),
            (Ok(msg), Ok((text, view))) => {
                assert_eq!(
                    SipMessage::parse_bytes(text.clone()).as_ref(),
                    Ok(&msg),
                    "{input:?}"
                );
                (text, view)
            }
            (parsed, viewed) => panic!("{parsed:?} against {viewed:?} on {input:?}"),
        };
        let msg = SipMessage::parse_bytes(text.clone()).unwrap();
        let slice = |span: Option<crate::msg::Span>| {
            span.map(|s| std::str::from_utf8(&text[s.start..s.end]).unwrap())
        };
        assert_eq!(view.method, msg.method(), "{input:?}");
        assert_eq!(view.status, msg.status(), "{input:?}");
        assert_eq!(view.clean, msg.format_violations().is_empty(), "{input:?}");
        assert_eq!(view.cseq, msg.cseq().ok(), "{input:?}");
        assert_eq!(slice(view.call_id), msg.call_id().ok(), "{input:?}");
        assert_eq!(
            slice(view.authorization),
            msg.headers.get(&HeaderName::Authorization),
            "{input:?}"
        );
        let from = msg.from_().ok().map(|f| f.uri.aor());
        assert_eq!(slice(view.from_aor), from.as_deref(), "{input:?}");
        let to = msg.to().ok().map(|t| t.uri.aor());
        assert_eq!(slice(view.to_aor), to.as_deref(), "{input:?}");
    }

    /// Folded, compact and repeated dialog headers: the view's spans
    /// index the unfolded rendering, and the first value wins.
    #[test]
    fn view_spans_survive_folding_and_compact_forms() {
        for raw in [
            &b"INVITE sip:b@h SIP/2.0\r\nf: <sip:a@h>\r\n ;tag=1\r\nt:\r\n\t<sip:b@h>\r\ni: x\r\n\x0B\r\n\r\n"[..],
            b"BYE sip:b@h SIP/2.0\ni:  first \ni: second\nf: \xC2\xA0<sip:a@h>\nCall-ID: third\n\n",
            b"REGISTER sip:h SIP/2.0\r\nAuthorization: Digest\r\n   username=\"u\"\r\nAuthorization: Digest x\r\n\r\n",
            b"INVITE sip:b@h SIP/2.0\r\nSubject: a\r\n\r\n b\r\nCall-ID:\r\n \xC2\xA0 c\r\n\r\nbody",
            b"SIP/2.0 200 OK\r\nFrom: <sip:a@h>\n \n  \r\nTo: <sip:b@h>\r\nContent-Length: 2\r\n\r\nxyz",
        ] {
            for cut in 0..=raw.len() {
                check_view(Bytes::copy_from_slice(&raw[..cut]));
            }
        }
        let raw = b"INVITE sip:b@h SIP/2.0\r\nCall-ID: x\r\n y\r\n\r\n";
        let (text, view) = SipView::parse(Bytes::from_static(raw)).unwrap();
        assert_eq!(&text[..], b"INVITE sip:b@h SIP/2.0\r\nCall-ID: x y\r\n\r\n");
        let span = view.call_id.unwrap();
        assert_eq!(&text[span.start..span.end], b"x y");
    }
}
