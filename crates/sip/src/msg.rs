//! SIP messages: start lines, the message type, builders and serialization.

use crate::header::{CSeq, HeaderName, Headers, NameAddr, ParseHeaderError, Via};
use crate::method::Method;
use crate::sdp;
use crate::status::StatusCode;
use crate::uri::SipUri;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// The first line of a SIP message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartLine {
    /// `METHOD uri SIP/2.0`
    Request {
        /// The request method.
        method: Method,
        /// The request URI.
        uri: SipUri,
    },
    /// `SIP/2.0 code reason`
    Response {
        /// The status code.
        code: StatusCode,
        /// The reason phrase as transmitted.
        reason: String,
    },
}

/// A parsed SIP message.
///
/// Headers are stored as raw text and interpreted on demand through the
/// typed accessors ([`SipMessage::cseq`], [`SipMessage::from_`], ...), so
/// a message re-serializes byte-faithfully even when it carries values we
/// do not model.
///
/// # Examples
///
/// ```
/// use scidive_sip::prelude::*;
///
/// let msg = RequestBuilder::new(Method::Invite, "sip:bob@10.0.0.2".parse()?)
///     .from(NameAddr::new("sip:alice@10.0.0.1".parse()?).with_tag("a1"))
///     .to(NameAddr::new("sip:bob@10.0.0.2".parse()?))
///     .call_id("call-1@10.0.0.1")
///     .cseq(CSeq::new(1, Method::Invite))
///     .via(Via::udp("10.0.0.1:5060", "z9hG4bK1"))
///     .build();
/// assert!(msg.is_request());
/// assert_eq!(msg.cseq()?.seq, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SipMessage {
    /// The start line.
    pub start: StartLine,
    /// All header fields in order.
    pub headers: Headers,
    /// The message body (e.g. SDP), possibly empty.
    pub body: Bytes,
}

impl SipMessage {
    /// Whether this is a request.
    pub fn is_request(&self) -> bool {
        matches!(self.start, StartLine::Request { .. })
    }

    /// Whether this is a response.
    pub fn is_response(&self) -> bool {
        !self.is_request()
    }

    /// The request method, if a request.
    pub fn method(&self) -> Option<Method> {
        match &self.start {
            StartLine::Request { method, .. } => Some(*method),
            StartLine::Response { .. } => None,
        }
    }

    /// The request URI, if a request.
    pub fn request_uri(&self) -> Option<&SipUri> {
        match &self.start {
            StartLine::Request { uri, .. } => Some(uri),
            StartLine::Response { .. } => None,
        }
    }

    /// The status code, if a response.
    pub fn status(&self) -> Option<StatusCode> {
        match &self.start {
            StartLine::Response { code, .. } => Some(*code),
            StartLine::Request { .. } => None,
        }
    }

    /// The `From` header, parsed.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing or malformed.
    pub fn from_(&self) -> Result<NameAddr, ParseHeaderError> {
        self.name_addr(&HeaderName::From, "From")
    }

    /// The `To` header, parsed.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing or malformed.
    pub fn to(&self) -> Result<NameAddr, ParseHeaderError> {
        self.name_addr(&HeaderName::To, "To")
    }

    /// The first `Contact` header, parsed.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing or malformed.
    pub fn contact(&self) -> Result<NameAddr, ParseHeaderError> {
        self.name_addr(&HeaderName::Contact, "Contact")
    }

    fn name_addr(
        &self,
        name: &HeaderName,
        label: &'static str,
    ) -> Result<NameAddr, ParseHeaderError> {
        self.headers
            .get(name)
            .ok_or_else(|| ParseHeaderError::new(label, "header missing"))?
            .parse()
    }

    /// The `Call-ID` header value.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing.
    pub fn call_id(&self) -> Result<&str, ParseHeaderError> {
        self.headers
            .get(&HeaderName::CallId)
            .ok_or_else(|| ParseHeaderError::new("Call-ID", "header missing"))
    }

    /// The `CSeq` header, parsed.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing or malformed.
    pub fn cseq(&self) -> Result<CSeq, ParseHeaderError> {
        self.headers
            .get(&HeaderName::CSeq)
            .ok_or_else(|| ParseHeaderError::new("CSeq", "header missing"))?
            .parse()
    }

    /// The topmost `Via` header, parsed.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing or malformed.
    pub fn via_top(&self) -> Result<Via, ParseHeaderError> {
        self.headers
            .get(&HeaderName::Via)
            .ok_or_else(|| ParseHeaderError::new("Via", "header missing"))?
            .parse()
    }

    /// The `Expires` value in seconds, if present and numeric.
    pub fn expires(&self) -> Option<u32> {
        self.headers
            .get(&HeaderName::Expires)
            .and_then(|v| v.trim().parse().ok())
    }

    /// The `Content-Type` value, if present.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get(&HeaderName::ContentType)
    }

    /// Checks the mandatory-header discipline of RFC 3261 §8.1.1: every
    /// request must carry `To`, `From`, `CSeq`, `Call-ID`, `Max-Forwards`
    /// and `Via`; responses all but `Max-Forwards`. Returns each missing
    /// or malformed item — the billing-fraud rule (paper §3.2, condition
    /// 1: "the SIP message should follow the correct format") keys on a
    /// non-empty result.
    ///
    /// This is the oracle for [`SipView::clean`]. The IDS renders the
    /// same text off the wire with [`SipView::format_violations`], and
    /// only for a message its view found unclean.
    pub fn format_violations(&self) -> Vec<String> {
        format_violations(self.method(), |name| self.headers.get(name), false)
    }

    /// A one-line summary for ladder diagrams, e.g. `INVITE` or `200 OK`.
    pub fn summary(&self) -> String {
        match &self.start {
            StartLine::Request { method, .. } => method.to_string(),
            StartLine::Response { code, reason } => format!("{} {}", code.code(), reason),
        }
    }

    /// Serializes to wire bytes, setting `Content-Length` from the body.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from(self.to_string().into_bytes())
    }
}

impl fmt::Display for SipMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.start {
            StartLine::Request { method, uri } => writeln!(f, "{method} {uri} SIP/2.0\r")?,
            StartLine::Response { code, reason } => {
                writeln!(f, "SIP/2.0 {} {reason}\r", code.code())?
            }
        }
        for h in self.headers.iter() {
            if h.name == HeaderName::ContentLength {
                continue; // always recomputed below
            }
            writeln!(f, "{}: {}\r", h.name, h.value)?;
        }
        writeln!(f, "Content-Length: {}\r", self.body.len())?;
        writeln!(f, "\r")?;
        if !self.body.is_empty() {
            f.write_str(&String::from_utf8_lossy(&self.body))?;
        }
        Ok(())
    }
}

/// A byte range of a message's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Offset of the first byte.
    pub start: usize,
    /// Offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// The range `part` occupies in `whole`, shifted by `at`; `part`
    /// must be a subslice of `whole`.
    fn within(whole: &str, part: &str, at: usize) -> Span {
        let start = at + (part.as_ptr() as usize - whole.as_ptr() as usize);
        Span {
            start,
            end: start + part.len(),
        }
    }
}

/// What the IDS reads from a SIP message, decided in one line scan of
/// its text ([`SipView::parse`]) with the accept/reject decisions of the
/// typed parsers, and without building a header list:
///
/// - the request method or the response status;
/// - whether the message is *clean*, i.e. exactly
///   `format_violations().is_empty()`;
/// - the parsed `CSeq`, equal to `cseq().ok()`;
/// - the SDP RTP target: for a body of `Content-Type: application/sdp`,
///   the parsed description's `rtp_target()`;
/// - spans of the text: the first `Call-ID` and `Authorization` values
///   (`call_id().ok()`, `headers.get(&HeaderName::Authorization)`), and
///   the From and To addresses-of-record, equal to
///   `from_().ok().map(|f| f.uri.aor())` and likewise for `to()` (an AOR
///   `user@host` is contiguous in the URI text).
///
/// An optional field is `None` when the message lacks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipView {
    /// The request method, if a request.
    pub method: Option<Method>,
    /// The status code, if a response.
    pub status: Option<StatusCode>,
    /// Whether the message has no format violation.
    pub clean: bool,
    /// The CSeq, if present and well-formed.
    pub cseq: Option<CSeq>,
    /// Where the SDP body asks for RTP, if the message carries one.
    pub rtp_target: Option<(Ipv4Addr, u16)>,
    /// The first Call-ID value.
    pub call_id: Option<Span>,
    /// The From header's AOR, if the header parses.
    pub from_aor: Option<Span>,
    /// The To header's AOR, if the header parses.
    pub to_aor: Option<Span>,
    /// The first Authorization value.
    pub authorization: Option<Span>,
}

/// The decisions behind a [`SipView`], fed one header at a time as the
/// parse's line scan validates it. A header's value is read when it is
/// fed, so nothing borrows past the call.
#[derive(Default)]
pub(crate) struct ViewScan {
    // Outer `None`: the header has not been seen. The first value of
    // each header counts, as for `Headers::get`. An inner span is
    // `None` for a folded value, which is not contiguous in the text.
    from_aor: Option<Option<Span>>,
    to_aor: Option<Option<Span>>,
    call_id: Option<Option<Span>>,
    authorization: Option<Option<Span>>,
    cseq: Option<Option<CSeq>>,
    via_valid: Option<bool>,
    sdp_body: Option<bool>,
    max_forwards: bool,
    /// The first `Content-Length` value, parsed (`Some(None)`: present
    /// but not a number).
    pub(crate) declared_length: Option<Option<usize>>,
    /// Text ranges that header folding replaced by one space, in order.
    pub(crate) folds: Vec<std::ops::Range<usize>>,
}

impl ViewScan {
    /// Reads one header, in message order; `at` is the value's offset in
    /// the text, `None` for a folded value.
    #[inline]
    pub(crate) fn header(&mut self, name: &HeaderName, value: &str, at: Option<usize>) {
        let whole = |value: &str| at.map(|at| Span::within(value, value, at));
        let aor = |value: &str| match (at, NameAddr::aor_of(value)) {
            (Some(at), Some(aor)) => Some(Span::within(value, aor, at)),
            _ => None,
        };
        match name {
            HeaderName::From if self.from_aor.is_none() => self.from_aor = Some(aor(value)),
            HeaderName::To if self.to_aor.is_none() => self.to_aor = Some(aor(value)),
            HeaderName::CallId if self.call_id.is_none() => self.call_id = Some(whole(value)),
            HeaderName::Authorization if self.authorization.is_none() => {
                self.authorization = Some(whole(value));
            }
            HeaderName::CSeq if self.cseq.is_none() => self.cseq = Some(value.parse().ok()),
            HeaderName::Via if self.via_valid.is_none() => {
                self.via_valid = Some(Via::is_valid(value));
            }
            HeaderName::ContentType if self.sdp_body.is_none() => {
                self.sdp_body = Some(value == "application/sdp");
            }
            HeaderName::ContentLength if self.declared_length.is_none() => {
                self.declared_length = Some(declared_length(value));
            }
            HeaderName::MaxForwards => self.max_forwards = true,
            _ => {}
        }
    }

    /// The view, once every header has been read. Only a scan that met
    /// no fold decides alike with the parsers: a folded value has no
    /// span, so its AOR would read as absent.
    pub(crate) fn finish(
        self,
        method: Option<Method>,
        status: Option<StatusCode>,
        body: &[u8],
    ) -> SipView {
        let cseq = self.cseq.flatten();
        let method_agrees = match (method, cseq) {
            (Some(method), Some(cseq)) => {
                cseq.method == method || method == Method::Ack || method == Method::Cancel
            }
            _ => true,
        };
        let (from_aor, to_aor) = (self.from_aor.flatten(), self.to_aor.flatten());
        let clean = from_aor.is_some()
            && to_aor.is_some()
            && cseq.is_some()
            && self.call_id.is_some()
            && self.via_valid == Some(true)
            && (self.max_forwards || method.is_none())
            && method_agrees;
        let rtp_target = match self.sdp_body {
            Some(true) => sdp::rtp_target_of_body(body),
            _ => None,
        };
        SipView {
            method,
            status,
            clean,
            cseq,
            rtp_target,
            call_id: self.call_id.flatten(),
            from_aor,
            to_aor,
            authorization: self.authorization.flatten(),
        }
    }
}

/// The headers every request must carry (RFC 3261 §8.1.1) and their
/// names in violation text; a response needs all but Max-Forwards.
pub(crate) const MANDATORY: [(HeaderName, &str); 6] = [
    (HeaderName::To, "To"),
    (HeaderName::From, "From"),
    (HeaderName::CSeq, "CSeq"),
    (HeaderName::CallId, "Call-ID"),
    (HeaderName::Via, "Via"),
    (HeaderName::MaxForwards, "Max-Forwards"),
];

/// [`SipMessage::format_violations`] of a message with request method
/// `method` (`None` for a response) whose first value of each header is
/// `first(name)`. With `twins`, a From, To or Via value is checked by
/// its parser's non-allocating twin and parsed only when that rejects
/// it, for the error text. Without, every value is parsed: the owned
/// message's check stays an oracle for the twins.
pub(crate) fn format_violations<'v>(
    method: Option<Method>,
    first: impl Fn(&HeaderName) -> Option<&'v str>,
    twins: bool,
) -> Vec<String> {
    let need = match method {
        Some(_) => &MANDATORY[..],
        None => &MANDATORY[..MANDATORY.len() - 1],
    };
    let mut violations = Vec::new();
    for (name, label) in need {
        if first(name).is_none() {
            violations.push(format!("missing mandatory header {label}"));
        }
    }
    for name in [HeaderName::From, HeaderName::To] {
        match first(&name) {
            Some(value) if !twins || NameAddr::aor_of(value).is_none() => {
                if let Err(e) = value.parse::<NameAddr>() {
                    violations.push(e.to_string());
                }
            }
            _ => {}
        }
    }
    let cseq = first(&HeaderName::CSeq).map(str::parse::<CSeq>);
    if let Some(Err(e)) = &cseq {
        violations.push(e.to_string());
    }
    match first(&HeaderName::Via) {
        Some(value) if !twins || !Via::is_valid(value) => {
            if let Err(e) = value.parse::<Via>() {
                violations.push(e.to_string());
            }
        }
        _ => {}
    }
    if let (Some(method), Some(Ok(cseq))) = (method, cseq) {
        if cseq.method != method && method != Method::Ack && method != Method::Cancel {
            violations.push(format!(
                "CSeq method {} disagrees with request method {method}",
                cseq.method
            ));
        }
    }
    violations
}

/// A `Content-Length` value as the framing reads it: `None` when it is
/// not a number.
pub(crate) fn declared_length(value: &str) -> Option<usize> {
    value.trim().parse().ok()
}

/// Builder for SIP requests.
///
/// The builder is non-consuming so call flows can conditionally add
/// headers before [`RequestBuilder::build`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: Method,
    uri: SipUri,
    headers: Headers,
    body: Bytes,
}

impl RequestBuilder {
    /// Starts a request for `method` on `uri`.
    pub fn new(method: Method, uri: SipUri) -> RequestBuilder {
        let mut headers = Headers::new();
        headers.push(HeaderName::MaxForwards, "70");
        RequestBuilder {
            method,
            uri,
            headers,
            body: Bytes::new(),
        }
    }

    /// Sets the `From` header.
    pub fn from(&mut self, from: NameAddr) -> &mut RequestBuilder {
        self.headers.set(HeaderName::From, from.to_string());
        self
    }

    /// Sets the `To` header.
    pub fn to(&mut self, to: NameAddr) -> &mut RequestBuilder {
        self.headers.set(HeaderName::To, to.to_string());
        self
    }

    /// Sets the `Call-ID` header.
    pub fn call_id(&mut self, call_id: impl Into<String>) -> &mut RequestBuilder {
        self.headers.set(HeaderName::CallId, call_id.into());
        self
    }

    /// Sets the `CSeq` header.
    pub fn cseq(&mut self, cseq: CSeq) -> &mut RequestBuilder {
        self.headers.set(HeaderName::CSeq, cseq.to_string());
        self
    }

    /// Pushes a `Via` header on top.
    pub fn via(&mut self, via: Via) -> &mut RequestBuilder {
        self.headers.push_front(HeaderName::Via, via.to_string());
        self
    }

    /// Sets the `Contact` header.
    pub fn contact(&mut self, contact: NameAddr) -> &mut RequestBuilder {
        self.headers.set(HeaderName::Contact, contact.to_string());
        self
    }

    /// Sets the `Expires` header.
    pub fn expires(&mut self, seconds: u32) -> &mut RequestBuilder {
        self.headers.set(HeaderName::Expires, seconds.to_string());
        self
    }

    /// Adds an arbitrary header.
    pub fn header(&mut self, name: HeaderName, value: impl Into<String>) -> &mut RequestBuilder {
        self.headers.push(name, value);
        self
    }

    /// Removes a header set by default or earlier (used to craft the
    /// malformed messages of the billing-fraud attack).
    pub fn without(&mut self, name: &HeaderName) -> &mut RequestBuilder {
        self.headers.remove(name);
        self
    }

    /// Sets the body and its `Content-Type`.
    pub fn body(&mut self, content_type: &str, body: impl Into<Bytes>) -> &mut RequestBuilder {
        self.headers.set(HeaderName::ContentType, content_type);
        self.body = body.into();
        self
    }

    /// Builds the message.
    pub fn build(&self) -> SipMessage {
        SipMessage {
            start: StartLine::Request {
                method: self.method,
                uri: self.uri.clone(),
            },
            headers: self.headers.clone(),
            body: self.body.clone(),
        }
    }
}

/// Builds a response to `req`, copying the dialog-identifying headers
/// (`Via` stack, `From`, `To`, `Call-ID`, `CSeq`) per RFC 3261 §8.2.6.
///
/// `to_tag`, when given, is appended to the `To` header if it has no tag
/// yet (the UAS contributes its dialog tag this way).
pub fn response_to(req: &SipMessage, code: StatusCode, to_tag: Option<&str>) -> SipMessage {
    let mut headers = Headers::new();
    for via in req.headers.get_all(&HeaderName::Via) {
        headers.push(HeaderName::Via, via);
    }
    if let Some(from) = req.headers.get(&HeaderName::From) {
        headers.push(HeaderName::From, from);
    }
    if let Some(to) = req.headers.get(&HeaderName::To) {
        let to_value = match (to_tag, to.contains("tag=")) {
            (Some(tag), false) => format!("{to};tag={tag}"),
            _ => to.to_string(),
        };
        headers.push(HeaderName::To, to_value);
    }
    if let Some(call_id) = req.headers.get(&HeaderName::CallId) {
        headers.push(HeaderName::CallId, call_id);
    }
    if let Some(cseq) = req.headers.get(&HeaderName::CSeq) {
        headers.push(HeaderName::CSeq, cseq);
    }
    SipMessage {
        start: StartLine::Response {
            code,
            reason: code.default_reason().to_owned(),
        },
        headers,
        body: Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdp::SessionDescription;

    fn invite() -> SipMessage {
        RequestBuilder::new(Method::Invite, "sip:bob@10.0.0.2".parse().unwrap())
            .from(
                NameAddr::new("sip:alice@10.0.0.1".parse().unwrap())
                    .with_display("Alice")
                    .with_tag("a1"),
            )
            .to(NameAddr::new("sip:bob@10.0.0.2".parse().unwrap()))
            .call_id("call-1@10.0.0.1")
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.1:5060", "z9hG4bK1"))
            .contact(NameAddr::new("sip:alice@10.0.0.1:5060".parse().unwrap()))
            .body("application/sdp", "v=0\r\n")
            .build()
    }

    #[test]
    fn request_accessors() {
        let msg = invite();
        assert!(msg.is_request());
        assert!(!msg.is_response());
        assert_eq!(msg.method(), Some(Method::Invite));
        assert_eq!(msg.request_uri().unwrap().to_string(), "sip:bob@10.0.0.2");
        assert_eq!(msg.status(), None);
        assert_eq!(msg.call_id().unwrap(), "call-1@10.0.0.1");
        assert_eq!(msg.cseq().unwrap(), CSeq::new(1, Method::Invite));
        assert_eq!(msg.from_().unwrap().tag(), Some("a1"));
        assert_eq!(msg.to().unwrap().tag(), None);
        assert_eq!(msg.via_top().unwrap().branch(), Some("z9hG4bK1"));
        assert_eq!(msg.content_type(), Some("application/sdp"));
        assert_eq!(msg.summary(), "INVITE");
    }

    #[test]
    fn wellformed_request_has_no_violations() {
        assert!(invite().format_violations().is_empty());
    }

    #[test]
    fn view_reads_what_the_parsers_read() {
        let sdp = SessionDescription::audio_offer("alice", Ipv4Addr::new(10, 0, 0, 1), 8000);
        let mut msg = invite();
        msg.body = Bytes::from(sdp.to_string());
        let (text, view) = SipView::parse(msg.to_bytes()).unwrap();
        let slice = |span: Option<Span>| span.map(|s| &text[s.start..s.end]);
        assert!(view.clean);
        assert_eq!(view.method, Some(Method::Invite));
        assert_eq!(slice(view.from_aor), Some(&b"alice@10.0.0.1"[..]));
        assert_eq!(slice(view.to_aor), Some(&b"bob@10.0.0.2"[..]));
        assert_eq!(slice(view.call_id), Some(&b"call-1@10.0.0.1"[..]));
        assert_eq!(view.authorization, None);
        assert_eq!(view.cseq, Some(CSeq::new(1, Method::Invite)));
        assert_eq!(view.rtp_target, sdp.rtp_target());
        // "v=0" alone is not a session description.
        let (_, view) = SipView::parse(invite().to_bytes()).unwrap();
        assert_eq!(view.rtp_target, None);
    }

    #[test]
    fn view_of_a_bare_request_is_unclean() {
        let msg = RequestBuilder::new(Method::Invite, "sip:bob@h".parse().unwrap()).build();
        let (_, view) = SipView::parse(msg.to_bytes()).unwrap();
        assert!(!view.clean);
        assert_eq!(view.from_aor, None);
        assert_eq!(view.cseq, None);
    }

    #[test]
    fn missing_headers_are_violations() {
        let msg = RequestBuilder::new(Method::Invite, "sip:bob@h".parse().unwrap())
            .without(&HeaderName::MaxForwards)
            .build();
        let v = msg.format_violations();
        assert!(v.iter().any(|s| s.contains("To")));
        assert!(v.iter().any(|s| s.contains("From")));
        assert!(v.iter().any(|s| s.contains("CSeq")));
        assert!(v.iter().any(|s| s.contains("Call-ID")));
        assert!(v.iter().any(|s| s.contains("Via")));
        assert!(v.iter().any(|s| s.contains("Max-Forwards")));
    }

    #[test]
    fn cseq_method_mismatch_is_violation() {
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@h".parse().unwrap());
        b.from(NameAddr::new("sip:a@h".parse().unwrap()))
            .to(NameAddr::new("sip:b@h".parse().unwrap()))
            .call_id("c1")
            .cseq(CSeq::new(1, Method::Bye))
            .via(Via::udp("h:5060", "z9hG4bK2"));
        let v = b.build().format_violations();
        assert!(v.iter().any(|s| s.contains("disagrees")), "{v:?}");
    }

    #[test]
    fn serialization_sets_content_length() {
        let text = invite().to_string();
        assert!(text.starts_with("INVITE sip:bob@10.0.0.2 SIP/2.0\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\nv=0\r\n"));
    }

    #[test]
    fn response_copies_dialog_headers_and_adds_to_tag() {
        let req = invite();
        let resp = response_to(&req, StatusCode::OK, Some("b1"));
        assert!(resp.is_response());
        assert_eq!(resp.status(), Some(StatusCode::OK));
        assert_eq!(resp.call_id().unwrap(), req.call_id().unwrap());
        assert_eq!(resp.cseq().unwrap(), req.cseq().unwrap());
        assert_eq!(resp.to().unwrap().tag(), Some("b1"));
        assert_eq!(resp.from_().unwrap().tag(), Some("a1"));
        assert_eq!(resp.summary(), "200 OK");
    }

    #[test]
    fn response_keeps_existing_to_tag() {
        let req = invite();
        let r1 = response_to(&req, StatusCode::OK, Some("b1"));
        // Treat r1's To (with tag) as if it were in a new request.
        let mut req2 = req;
        req2.headers
            .set(HeaderName::To, r1.headers.get(&HeaderName::To).unwrap());
        let r2 = response_to(&req2, StatusCode::OK, Some("XXX"));
        assert_eq!(r2.to().unwrap().tag(), Some("b1"));
    }

    #[test]
    fn response_accessors() {
        let resp = response_to(&invite(), StatusCode::RINGING, None);
        assert_eq!(resp.method(), None);
        assert_eq!(resp.request_uri(), None);
        assert!(resp.status().unwrap().is_provisional());
        // Responses don't need Max-Forwards.
        assert!(resp.format_violations().is_empty());
    }
}
