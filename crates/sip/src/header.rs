//! SIP headers: names, the ordered header collection, and typed values.

use crate::method::Method;
use crate::scan;
use crate::uri::SipUri;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A SIP header field name.
///
/// Known names are interned as variants; anything else is carried in
/// `Extension`. Comparison is case-insensitive per RFC 3261 §7.3.1, and
/// the RFC's compact forms (`v`, `f`, `t`, `i`, `m`, `c`, `l`, `s`, `k`)
/// are folded into their canonical names at parse time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeaderName {
    /// `Via` (compact `v`).
    Via,
    /// `From` (compact `f`).
    From,
    /// `To` (compact `t`).
    To,
    /// `Call-ID` (compact `i`).
    CallId,
    /// `CSeq`.
    CSeq,
    /// `Contact` (compact `m`).
    Contact,
    /// `Max-Forwards`.
    MaxForwards,
    /// `Expires`.
    Expires,
    /// `Content-Type` (compact `c`).
    ContentType,
    /// `Content-Length` (compact `l`).
    ContentLength,
    /// `Authorization`.
    Authorization,
    /// `WWW-Authenticate`.
    WwwAuthenticate,
    /// `User-Agent`.
    UserAgent,
    /// `Subject` (compact `s`).
    Subject,
    /// `Route`.
    Route,
    /// `Record-Route`.
    RecordRoute,
    /// Any other header.
    Extension(String),
}

impl HeaderName {
    /// Creates an extension (non-standard) header name.
    pub fn extension(name: impl Into<String>) -> HeaderName {
        HeaderName::Extension(name.into())
    }

    /// The canonical field name.
    pub fn as_str(&self) -> &str {
        match self {
            HeaderName::Via => "Via",
            HeaderName::From => "From",
            HeaderName::To => "To",
            HeaderName::CallId => "Call-ID",
            HeaderName::CSeq => "CSeq",
            HeaderName::Contact => "Contact",
            HeaderName::MaxForwards => "Max-Forwards",
            HeaderName::Expires => "Expires",
            HeaderName::ContentType => "Content-Type",
            HeaderName::ContentLength => "Content-Length",
            HeaderName::Authorization => "Authorization",
            HeaderName::WwwAuthenticate => "WWW-Authenticate",
            HeaderName::UserAgent => "User-Agent",
            HeaderName::Subject => "Subject",
            HeaderName::Route => "Route",
            HeaderName::RecordRoute => "Record-Route",
            HeaderName::Extension(s) => s.as_str(),
        }
    }

    /// Parses a field name, folding compact forms and casing: the
    /// [`HeaderName::known`] name, or an owned `Extension`.
    pub fn parse(s: &str) -> HeaderName {
        HeaderName::known(s).unwrap_or_else(|| HeaderName::Extension(s.to_owned()))
    }

    /// The known name `s` spells, with compact forms and casing folded,
    /// or `None` for an extension name; never allocates.
    ///
    /// This is the branch-lean dispatch: `(length, lowercased first
    /// byte)` selects at most two candidates (only `Call-ID`/`Contact`
    /// collide), each confirmed by one case-insensitive compare. Exactly
    /// equivalent to the linear table scan retained as
    /// [`HeaderName::parse_reference`] — full-name confirmation makes
    /// table order irrelevant.
    pub fn known(s: &str) -> Option<HeaderName> {
        let first = s.as_bytes().first()?.to_ascii_lowercase();
        // Single-letter compact forms need no confirm: length 1 plus a
        // matching lowercased byte pins the string down completely.
        // Confirms a dispatch candidate: an exact compare against the
        // canonical capitalization first (a straight `memcmp` the
        // compiler vectorizes, and what well-formed traffic sends),
        // falling back to the per-byte case-folding compare.
        #[inline]
        fn confirm(s: &str, canonical: &str, lower: &str) -> bool {
            s == canonical || s.eq_ignore_ascii_case(lower)
        }
        match (s.len(), first) {
            (1, b'v') => Some(HeaderName::Via),
            (3, b'v') if confirm(s, "Via", "via") => Some(HeaderName::Via),
            (1, b'f') => Some(HeaderName::From),
            (4, b'f') if confirm(s, "From", "from") => Some(HeaderName::From),
            (1, b't') => Some(HeaderName::To),
            (2, b't') if confirm(s, "To", "to") => Some(HeaderName::To),
            (1, b'i') => Some(HeaderName::CallId),
            (7, b'c') if confirm(s, "Call-ID", "call-id") => Some(HeaderName::CallId),
            (7, b'c') if confirm(s, "Contact", "contact") => Some(HeaderName::Contact),
            (1, b'm') => Some(HeaderName::Contact),
            (4, b'c') if confirm(s, "CSeq", "cseq") => Some(HeaderName::CSeq),
            (12, b'm') if confirm(s, "Max-Forwards", "max-forwards") => {
                Some(HeaderName::MaxForwards)
            }
            (7, b'e') if confirm(s, "Expires", "expires") => Some(HeaderName::Expires),
            (1, b'c') => Some(HeaderName::ContentType),
            (12, b'c') if confirm(s, "Content-Type", "content-type") => {
                Some(HeaderName::ContentType)
            }
            (1, b'l') => Some(HeaderName::ContentLength),
            (14, b'c') if confirm(s, "Content-Length", "content-length") => {
                Some(HeaderName::ContentLength)
            }
            (13, b'a') if confirm(s, "Authorization", "authorization") => {
                Some(HeaderName::Authorization)
            }
            (16, b'w') if confirm(s, "WWW-Authenticate", "www-authenticate") => {
                Some(HeaderName::WwwAuthenticate)
            }
            (10, b'u') if confirm(s, "User-Agent", "user-agent") => Some(HeaderName::UserAgent),
            (1, b's') => Some(HeaderName::Subject),
            (7, b's') if confirm(s, "Subject", "subject") => Some(HeaderName::Subject),
            (5, b'r') if confirm(s, "Route", "route") => Some(HeaderName::Route),
            (12, b'r') if confirm(s, "Record-Route", "record-route") => {
                Some(HeaderName::RecordRoute)
            }
            _ => None,
        }
    }

    /// The retained linear-scan name matcher, for differential testing
    /// against [`HeaderName::parse`].
    pub fn parse_reference(s: &str) -> HeaderName {
        const KNOWN: &[(&str, HeaderName)] = &[
            ("via", HeaderName::Via),
            ("v", HeaderName::Via),
            ("from", HeaderName::From),
            ("f", HeaderName::From),
            ("to", HeaderName::To),
            ("t", HeaderName::To),
            ("call-id", HeaderName::CallId),
            ("i", HeaderName::CallId),
            ("cseq", HeaderName::CSeq),
            ("contact", HeaderName::Contact),
            ("m", HeaderName::Contact),
            ("max-forwards", HeaderName::MaxForwards),
            ("expires", HeaderName::Expires),
            ("content-type", HeaderName::ContentType),
            ("c", HeaderName::ContentType),
            ("content-length", HeaderName::ContentLength),
            ("l", HeaderName::ContentLength),
            ("authorization", HeaderName::Authorization),
            ("www-authenticate", HeaderName::WwwAuthenticate),
            ("user-agent", HeaderName::UserAgent),
            ("subject", HeaderName::Subject),
            ("s", HeaderName::Subject),
            ("route", HeaderName::Route),
            ("record-route", HeaderName::RecordRoute),
        ];
        for (name, variant) in KNOWN {
            if s.eq_ignore_ascii_case(name) {
                return variant.clone();
            }
        }
        HeaderName::Extension(s.to_owned())
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One header field: a name and its raw value text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Field name.
    pub name: HeaderName,
    /// Raw field value (typed values are parsed on demand).
    pub value: String,
}

impl Header {
    /// Creates a header.
    pub fn new(name: HeaderName, value: impl Into<String>) -> Header {
        Header {
            name,
            value: value.into(),
        }
    }
}

/// An ordered collection of headers, preserving duplicates and order
/// (both matter in SIP, e.g. for `Via` stacks).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Headers {
    fields: Vec<Header>,
}

impl Headers {
    /// Creates an empty collection.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Appends a header.
    pub fn push(&mut self, name: HeaderName, value: impl Into<String>) {
        self.fields.push(Header::new(name, value));
    }

    /// Prepends a header (proxies push `Via` on top).
    pub fn push_front(&mut self, name: HeaderName, value: impl Into<String>) {
        self.fields.insert(0, Header::new(name, value));
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &HeaderName) -> Option<&str> {
        self.fields
            .iter()
            .find(|h| &h.name == name)
            .map(|h| h.value.as_str())
    }

    /// All values for `name`, in order, lazily — no `Vec` is built.
    pub fn get_all<'a>(
        &'a self,
        name: &'a HeaderName,
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |h| &h.name == name)
            .map(|h| h.value.as_str())
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: HeaderName, value: impl Into<String>) {
        self.fields.retain(|h| h.name != name);
        self.push(name, value);
    }

    /// Removes all values of `name`, returning whether any were removed.
    pub fn remove(&mut self, name: &HeaderName) -> bool {
        let before = self.fields.len();
        self.fields.retain(|h| &h.name != name);
        self.fields.len() != before
    }

    /// Removes the topmost (first) value of `name`, returning it.
    pub fn remove_front(&mut self, name: &HeaderName) -> Option<String> {
        let idx = self.fields.iter().position(|h| &h.name == name)?;
        Some(self.fields.remove(idx).value)
    }

    /// All fields in order.
    pub fn iter(&self) -> impl Iterator<Item = &Header> {
        self.fields.iter()
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl FromIterator<Header> for Headers {
    fn from_iter<T: IntoIterator<Item = Header>>(iter: T) -> Headers {
        Headers {
            fields: iter.into_iter().collect(),
        }
    }
}

impl Extend<Header> for Headers {
    fn extend<T: IntoIterator<Item = Header>>(&mut self, iter: T) {
        self.fields.extend(iter);
    }
}

/// A `name-addr` value as used in `From`, `To`, and `Contact`:
/// `"Display" <sip:uri>;param=value`.
///
/// # Examples
///
/// ```
/// use scidive_sip::header::NameAddr;
///
/// let na: NameAddr = "\"Alice\" <sip:alice@10.0.0.1>;tag=abc".parse()?;
/// assert_eq!(na.display.as_deref(), Some("Alice"));
/// assert_eq!(na.tag(), Some("abc"));
/// # Ok::<(), scidive_sip::header::ParseHeaderError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NameAddr {
    /// Optional display name (without quotes).
    pub display: Option<String>,
    /// The SIP URI.
    pub uri: SipUri,
    /// Header parameters after the URI, e.g. `tag`.
    pub params: Vec<(String, String)>,
}

impl NameAddr {
    /// Creates a bare `<uri>` value.
    pub fn new(uri: SipUri) -> NameAddr {
        NameAddr {
            display: None,
            uri,
            params: Vec::new(),
        }
    }

    /// Sets the display name (builder-style).
    pub fn with_display(mut self, display: impl Into<String>) -> NameAddr {
        self.display = Some(display.into());
        self
    }

    /// Adds a parameter (builder-style).
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> NameAddr {
        self.params.push((name.into(), value.into()));
        self
    }

    /// Adds/replaces the `tag` parameter (builder-style).
    pub fn with_tag(mut self, tag: impl Into<String>) -> NameAddr {
        self.params.retain(|(n, _)| n != "tag");
        self.params.push(("tag".to_owned(), tag.into()));
        self
    }

    /// The `tag` parameter, if present.
    pub fn tag(&self) -> Option<&str> {
        self.param("tag")
    }

    /// A parameter value by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for NameAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = &self.display {
            write!(f, "\"{d}\" ")?;
        }
        write!(f, "<{}>", self.uri)?;
        for (n, v) in &self.params {
            if v.is_empty() {
                write!(f, ";{n}")?;
            } else {
                write!(f, ";{n}={v}")?;
            }
        }
        Ok(())
    }
}

/// Error parsing a typed header value.
///
/// The detail is a `Cow` so the common fixed messages ("header missing",
/// "missing sent-by", ...) are carried without allocating; only details
/// that genuinely interpolate data pay for a `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHeaderError {
    header: &'static str,
    detail: std::borrow::Cow<'static, str>,
}

impl ParseHeaderError {
    /// Creates an error for the named header kind.
    pub fn new(
        header: &'static str,
        detail: impl Into<std::borrow::Cow<'static, str>>,
    ) -> ParseHeaderError {
        ParseHeaderError {
            header,
            detail: detail.into(),
        }
    }

    /// Which typed value failed to parse.
    pub fn header(&self) -> &str {
        self.header
    }
}

impl fmt::Display for ParseHeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} value: {}", self.header, self.detail)
    }
}

impl std::error::Error for ParseHeaderError {}

impl FromStr for NameAddr {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<NameAddr, ParseHeaderError> {
        let s = s.trim();
        let (display, rest) = if let Some(stripped) = s.strip_prefix('"') {
            let end = stripped
                .find('"')
                .ok_or_else(|| ParseHeaderError::new("name-addr", "unterminated display name"))?;
            (
                Some(stripped[..end].to_owned()),
                stripped[end + 1..].trim_start(),
            )
        } else {
            (None, s)
        };
        if let Some(start) = rest.find('<') {
            let end = rest[start..]
                .find('>')
                .map(|i| start + i)
                .ok_or_else(|| ParseHeaderError::new("name-addr", "missing `>`"))?;
            // An unquoted token display name may precede `<`.
            let display = display.or_else(|| {
                let token = rest[..start].trim();
                (!token.is_empty()).then(|| token.to_owned())
            });
            let uri: SipUri = rest[start + 1..end]
                .parse()
                .map_err(|e| ParseHeaderError::new("name-addr", format!("{e}")))?;
            let params = parse_params(rest[end + 1..].trim_start());
            Ok(NameAddr {
                display,
                uri,
                params,
            })
        } else {
            // addr-spec form: everything up to the first `;` is the URI.
            let (uri_part, params_part) = match rest.split_once(';') {
                Some((u, p)) => (u, p),
                None => (rest, ""),
            };
            let uri: SipUri = uri_part
                .trim()
                .parse()
                .map_err(|e| ParseHeaderError::new("name-addr", format!("{e}")))?;
            let params = parse_params_str(params_part);
            Ok(NameAddr {
                display,
                uri,
                params,
            })
        }
    }
}

impl NameAddr {
    /// The address-of-record of the `name-addr` text `s` as a slice of
    /// `s`, without allocating: `Some` exactly when
    /// `s.parse::<NameAddr>()` succeeds, and then equal to its
    /// `uri.aor()`. Display names and parameters never fail a parse, so
    /// only the URI and the `<`/`>` and quote framing are checked.
    pub fn aor_of(s: &str) -> Option<&str> {
        // Mirrors `from_str` decision for decision. `trim_ws` is
        // `str::trim`, and a `memchr` for an ASCII byte is `str::find`
        // for that char on any text, both decided byte by byte.
        let s = scan::trim_ws(s);
        let rest = match s.strip_prefix('"') {
            Some(stripped) => {
                let end = scan::memchr(b'"', stripped.as_bytes())?;
                stripped[end + 1..].trim_start()
            }
            None => s,
        };
        let bytes = rest.as_bytes();
        match scan::memchr(b'<', bytes) {
            Some(start) => {
                let end = start + scan::memchr(b'>', &bytes[start..])?;
                SipUri::aor_of(&rest[start + 1..end])
            }
            None => {
                let uri_part = scan::memchr(b';', bytes).map_or(rest, |i| &rest[..i]);
                SipUri::aor_of(scan::trim_ws(uri_part))
            }
        }
    }
}

fn parse_params(s: &str) -> Vec<(String, String)> {
    parse_params_str(s.strip_prefix(';').unwrap_or(s))
}

fn parse_params_str(s: &str) -> Vec<(String, String)> {
    if s.trim().is_empty() {
        return Vec::new(); // `Vec::new` never allocates
    }
    s.split(';')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((n, v)) => (n.trim().to_owned(), v.trim().to_owned()),
            None => (p.to_owned(), String::new()),
        })
        .collect()
}

/// A `CSeq` value: sequence number and method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CSeq {
    /// The sequence number.
    pub seq: u32,
    /// The request method this sequence number applies to.
    pub method: Method,
}

impl CSeq {
    /// Creates a CSeq value.
    pub fn new(seq: u32, method: Method) -> CSeq {
        CSeq { seq, method }
    }

    /// The next CSeq for the same method.
    pub fn next(self) -> CSeq {
        CSeq {
            seq: self.seq + 1,
            ..self
        }
    }
}

impl fmt::Display for CSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.seq, self.method)
    }
}

impl FromStr for CSeq {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<CSeq, ParseHeaderError> {
        let mut parts = s.split_whitespace();
        let seq = parts
            .next()
            .ok_or_else(|| ParseHeaderError::new("CSeq", "empty"))?
            .parse::<u32>()
            .map_err(|_| ParseHeaderError::new("CSeq", "sequence number not a u32"))?;
        let method = parts
            .next()
            .ok_or_else(|| ParseHeaderError::new("CSeq", "missing method"))?
            .parse::<Method>()
            .map_err(|e| ParseHeaderError::new("CSeq", e.to_string()))?;
        if parts.next().is_some() {
            return Err(ParseHeaderError::new("CSeq", "trailing tokens"));
        }
        Ok(CSeq { seq, method })
    }
}

/// A `Via` value: `SIP/2.0/UDP host:port;branch=...`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Via {
    /// Transport token, e.g. `UDP`.
    pub transport: String,
    /// The `sent-by` host (and optional `:port`).
    pub sent_by: String,
    /// Via parameters (`branch`, `received`, ...).
    pub params: Vec<(String, String)>,
}

impl Via {
    /// Creates a UDP Via with the RFC 3261 magic-cookie branch.
    pub fn udp(sent_by: impl Into<String>, branch: impl Into<String>) -> Via {
        Via {
            transport: "UDP".to_owned(),
            sent_by: sent_by.into(),
            params: vec![("branch".to_owned(), branch.into())],
        }
    }

    /// The `branch` parameter, if present.
    pub fn branch(&self) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == "branch")
            .map(|(_, v)| v.as_str())
    }

    /// Whether `s.parse::<Via>()` succeeds, decided without allocating.
    pub fn is_valid(s: &str) -> bool {
        // Mirrors `from_str` decision for decision (`trim_ws` is
        // `str::trim`, `memchr` is `split_once` for an ASCII byte).
        let Some(rest) = scan::trim_ws(s).strip_prefix("SIP/2.0/") else {
            return false;
        };
        let Some(space) = scan::memchr(b' ', rest.as_bytes()) else {
            return false;
        };
        let rest = &rest[space + 1..];
        let sent_by = scan::memchr(b';', rest.as_bytes()).map_or(rest, |i| &rest[..i]);
        !scan::trim_ws(sent_by).is_empty()
    }
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIP/2.0/{} {}", self.transport, self.sent_by)?;
        for (n, v) in &self.params {
            if v.is_empty() {
                write!(f, ";{n}")?;
            } else {
                write!(f, ";{n}={v}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for Via {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<Via, ParseHeaderError> {
        let rest = s
            .trim()
            .strip_prefix("SIP/2.0/")
            .ok_or_else(|| ParseHeaderError::new("Via", "missing SIP/2.0/ prefix"))?;
        let (transport, rest) = rest
            .split_once(' ')
            .ok_or_else(|| ParseHeaderError::new("Via", "missing sent-by"))?;
        let (sent_by, params_part) = match rest.split_once(';') {
            Some((sb, p)) => (sb, p),
            None => (rest, ""),
        };
        if sent_by.trim().is_empty() {
            return Err(ParseHeaderError::new("Via", "empty sent-by"));
        }
        Ok(Via {
            transport: transport.to_owned(),
            sent_by: sent_by.trim().to_owned(),
            params: parse_params_str(params_part),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatch matcher must agree with the retained linear scan on
    /// every canonical name, compact form, case mutation, and a pile of
    /// near-misses.
    #[test]
    fn header_name_dispatch_matches_reference() {
        let mut corpus: Vec<String> = Vec::new();
        for name in [
            "Via", "From", "To", "Call-ID", "CSeq", "Contact", "Max-Forwards", "Expires",
            "Content-Type", "Content-Length", "Authorization", "WWW-Authenticate", "User-Agent",
            "Subject", "Route", "Record-Route", "v", "f", "t", "i", "m", "c", "l", "s",
        ] {
            corpus.push(name.to_string());
            corpus.push(name.to_lowercase());
            corpus.push(name.to_uppercase());
            // Swap-case mutation.
            corpus.push(
                name.chars()
                    .map(|ch| {
                        if ch.is_ascii_uppercase() {
                            ch.to_ascii_lowercase()
                        } else {
                            ch.to_ascii_uppercase()
                        }
                    })
                    .collect(),
            );
            // Near-misses: truncated, extended, first-byte collision.
            corpus.push(name[..name.len() - 1].to_string());
            corpus.push(format!("{name}x"));
            corpus.push(format!("C{}", &name[1..]));
        }
        corpus.extend(
            ["", "x", "e", "r", "u", "w", "a", "Callxid", "Contacx", "\u{e9}ia", "I\u{e9}"]
                .map(String::from),
        );
        for s in &corpus {
            assert_eq!(
                HeaderName::parse(s),
                HeaderName::parse_reference(s),
                "diverged on {s:?}"
            );
        }
    }

    #[test]
    fn header_name_folding() {
        assert_eq!(HeaderName::parse("VIA"), HeaderName::Via);
        assert_eq!(HeaderName::parse("v"), HeaderName::Via);
        assert_eq!(HeaderName::parse("call-id"), HeaderName::CallId);
        assert_eq!(HeaderName::parse("i"), HeaderName::CallId);
        assert_eq!(
            HeaderName::parse("X-Custom"),
            HeaderName::extension("X-Custom")
        );
    }

    #[test]
    fn headers_ordering_and_duplicates() {
        let mut h = Headers::new();
        h.push(HeaderName::Via, "SIP/2.0/UDP a;branch=1");
        h.push(HeaderName::Via, "SIP/2.0/UDP b;branch=2");
        h.push_front(HeaderName::Via, "SIP/2.0/UDP top;branch=0");
        assert_eq!(h.get_all(&HeaderName::Via).count(), 3);
        assert_eq!(h.get(&HeaderName::Via).unwrap(), "SIP/2.0/UDP top;branch=0");
        let popped = h.remove_front(&HeaderName::Via).unwrap();
        assert!(popped.contains("top"));
        assert_eq!(h.get_all(&HeaderName::Via).count(), 2);
    }

    #[test]
    fn headers_set_replaces() {
        let mut h = Headers::new();
        h.push(HeaderName::Expires, "3600");
        h.push(HeaderName::Expires, "7200");
        h.set(HeaderName::Expires, "60");
        assert_eq!(h.get_all(&HeaderName::Expires).collect::<Vec<_>>(), vec!["60"]);
        assert!(h.remove(&HeaderName::Expires));
        assert!(!h.remove(&HeaderName::Expires));
        assert!(h.is_empty());
    }

    #[test]
    fn name_addr_quoted_display() {
        let na: NameAddr = "\"Alice W\" <sip:alice@h.com:5060>;tag=99;x".parse().unwrap();
        assert_eq!(na.display.as_deref(), Some("Alice W"));
        assert_eq!(na.uri.to_string(), "sip:alice@h.com:5060");
        assert_eq!(na.tag(), Some("99"));
        assert_eq!(na.param("x"), Some(""));
    }

    #[test]
    fn name_addr_token_display() {
        let na: NameAddr = "Bob <sip:bob@h.com>".parse().unwrap();
        assert_eq!(na.display.as_deref(), Some("Bob"));
    }

    #[test]
    fn name_addr_addr_spec_form() {
        let na: NameAddr = "sip:bob@h.com;tag=7".parse().unwrap();
        assert_eq!(na.display, None);
        assert_eq!(na.uri.to_string(), "sip:bob@h.com");
        assert_eq!(na.tag(), Some("7"));
    }

    #[test]
    fn name_addr_display_roundtrip() {
        let na = NameAddr::new(SipUri::new("a", "h.com"))
            .with_display("A")
            .with_tag("t1");
        let s = na.to_string();
        assert_eq!(s, "\"A\" <sip:a@h.com>;tag=t1");
        assert_eq!(s.parse::<NameAddr>().unwrap(), na);
    }

    #[test]
    fn with_tag_replaces_existing() {
        let na = NameAddr::new(SipUri::new("a", "h")).with_tag("1").with_tag("2");
        assert_eq!(na.tag(), Some("2"));
        assert_eq!(na.params.len(), 1);
    }

    #[test]
    fn name_addr_errors() {
        assert!("\"unterminated <sip:a@h>".parse::<NameAddr>().is_err());
        assert!("<sip:a@h".parse::<NameAddr>().is_err());
        assert!("<http://x>".parse::<NameAddr>().is_err());
    }

    /// The non-allocating scanners agree with the parsers on accepted
    /// and rejected values alike.
    #[test]
    fn scanners_match_the_parsers() {
        for s in [
            "\"Alice W\" <sip:alice@h.com:5060>;tag=99;x",
            "Bob <sip:bob@h.com>",
            "  sip:bob@h.com;tag=7 ",
            "<sip:@h.com>",
            "<sip:h.com:5060;lr>",
            "\"q\"<sip:a@b>",
            "\"unterminated <sip:a@h>",
            "<sip:a@h",
            "<http://x>",
            "<sip:a@h:99999>",
            "<sip:a@h:+5>",
            "sip:a@",
            "\"x\" sip:a@h>;p",
            "",
            // Padding a byte-level trim can get wrong: VT, which
            // `trim_ascii` keeps, and Unicode whitespace.
            "\x0B<sip:a@h>\x0B",
            "\x0Bsip:a@h\x0B;tag=1",
            "\"q\"\x0B<sip:a@h>",
            "\u{A0}<sip:a@h>\u{2003}",
            "\"\u{85}\"\u{A0}sip:a@h",
            "sip:a@h\u{2003};x",
        ] {
            assert_eq!(
                NameAddr::aor_of(s),
                s.parse::<NameAddr>().ok().map(|n| n.uri.aor()).as_deref(),
                "name-addr diverged on {s:?}"
            );
        }
        for s in [
            "SIP/2.0/UDP 10.0.0.1:5060;branch=z9",
            " SIP/2.0/UDP h ",
            "SIP/2.0/UDP ;branch=z9",
            "SIP/2.0/UDP",
            "UDP 10.0.0.1",
            "SIP/2.0/ x",
            "",
            "\x0BSIP/2.0/UDP h\x0B",
            "SIP/2.0/UDP \x0B;branch=z9",
            "\u{A0}SIP/2.0/UDP h",
            "SIP/2.0/UDP \u{2003};branch=z9",
            "SIP/2.0/UDP \u{85}",
        ] {
            assert_eq!(Via::is_valid(s), s.parse::<Via>().is_ok(), "via diverged on {s:?}");
        }
    }

    #[test]
    fn cseq_roundtrip() {
        let c: CSeq = "314159 INVITE".parse().unwrap();
        assert_eq!(c, CSeq::new(314159, Method::Invite));
        assert_eq!(c.to_string(), "314159 INVITE");
        assert_eq!(c.next().seq, 314160);
    }

    #[test]
    fn cseq_errors() {
        assert!("".parse::<CSeq>().is_err());
        assert!("x INVITE".parse::<CSeq>().is_err());
        assert!("1".parse::<CSeq>().is_err());
        assert!("1 NOPE".parse::<CSeq>().is_err());
        assert!("1 INVITE extra".parse::<CSeq>().is_err());
    }

    #[test]
    fn via_roundtrip() {
        let v: Via = "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK77asjd".parse().unwrap();
        assert_eq!(v.transport, "UDP");
        assert_eq!(v.sent_by, "10.0.0.1:5060");
        assert_eq!(v.branch(), Some("z9hG4bK77asjd"));
        assert_eq!(v.to_string(), "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK77asjd");
    }

    #[test]
    fn via_errors() {
        assert!("UDP 10.0.0.1".parse::<Via>().is_err());
        assert!("SIP/2.0/UDP".parse::<Via>().is_err());
    }

    #[test]
    fn via_udp_ctor() {
        let v = Via::udp("10.0.0.1:5060", "z9hG4bK1");
        assert_eq!(v.branch(), Some("z9hG4bK1"));
    }
}
