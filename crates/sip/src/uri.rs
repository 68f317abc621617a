//! SIP URIs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A SIP URI: `sip:user@host[:port][;param[=value]]*`.
///
/// The host may be a domain name or an IPv4 literal; URI parameters are
/// preserved verbatim. This is the subset a VoIP LAN testbed exercises —
/// no `sips:`, telephone-subscriber syntax, or headers-in-URI.
///
/// # Examples
///
/// ```
/// use scidive_sip::uri::SipUri;
///
/// let uri: SipUri = "sip:alice@10.0.0.1:5060".parse()?;
/// assert_eq!(uri.user.as_deref(), Some("alice"));
/// assert_eq!(uri.port, Some(5060));
/// assert_eq!(uri.to_string(), "sip:alice@10.0.0.1:5060");
/// # Ok::<(), scidive_sip::uri::ParseUriError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SipUri {
    /// The user part, if present.
    pub user: Option<String>,
    /// The host part (domain or IPv4 literal).
    pub host: String,
    /// Explicit port, if present.
    pub port: Option<u16>,
    /// URI parameters as `(name, value)` pairs; valueless params have an
    /// empty value.
    pub params: Vec<(String, String)>,
}

impl SipUri {
    /// Builds `sip:user@host`.
    pub fn new(user: impl Into<String>, host: impl Into<String>) -> SipUri {
        SipUri {
            user: Some(user.into()),
            host: host.into(),
            port: None,
            params: Vec::new(),
        }
    }

    /// Builds a host-only URI `sip:host`.
    pub fn host_only(host: impl Into<String>) -> SipUri {
        SipUri {
            user: None,
            host: host.into(),
            port: None,
            params: Vec::new(),
        }
    }

    /// Sets the port (builder-style).
    pub fn with_port(mut self, port: u16) -> SipUri {
        self.port = Some(port);
        self
    }

    /// Adds a URI parameter (builder-style).
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> SipUri {
        self.params.push((name.into(), value.into()));
        self
    }

    /// The host parsed as an IPv4 address, if it is a literal.
    pub fn host_ip(&self) -> Option<Ipv4Addr> {
        self.host.as_str().parse().ok()
    }

    /// The port, defaulting to 5060.
    pub fn port_or_default(&self) -> u16 {
        self.port.unwrap_or(5060)
    }

    /// The address-of-record string `user@host` used as a registrar key
    /// (port and params are not part of an AOR).
    pub fn aor(&self) -> String {
        match &self.user {
            Some(u) => format!("{u}@{}", self.host),
            None => self.host.as_str().to_string(),
        }
    }

    /// The address-of-record of the URI text `s` as a slice of `s`,
    /// without allocating: `Some` exactly when `s.parse::<SipUri>()`
    /// succeeds, and then equal to that URI's [`SipUri::aor`]. The AOR
    /// `user@host` is always contiguous in the URI text (the user part
    /// ends at the first `@`, the host at the first `:` or `;` after it),
    /// so a slice suffices.
    pub fn aor_of(s: &str) -> Option<&str> {
        // Mirrors `from_str` decision for decision; the property tests
        // hold the two equal.
        let rest = s.strip_prefix("sip:")?;
        let core = match crate::scan::memchr(b';', rest.as_bytes()) {
            Some(i) => &rest[..i],
            None => rest,
        };
        let (user_len, hostport) = match crate::scan::memchr(b'@', core.as_bytes()) {
            Some(at) => (at, &core[at + 1..]),
            None => (0, core),
        };
        let host = match crate::scan::memchr(b':', hostport.as_bytes()) {
            Some(colon) => {
                hostport[colon + 1..].parse::<u16>().ok()?;
                &hostport[..colon]
            }
            None => hostport,
        };
        if host.is_empty() {
            return None;
        }
        let host_start = core.len() - hostport.len();
        let start = if user_len == 0 { host_start } else { 0 };
        Some(&rest[start..host_start + host.len()])
    }

    /// The retained naive parser: splits the whole parameter tail with
    /// `str::split` whether or not a `;` is present. Kept for the
    /// reference start-line parser and as a differential oracle for
    /// [`SipUri::from_str`].
    ///
    /// # Errors
    ///
    /// Same contract as `from_str`.
    pub fn parse_reference(s: &str) -> Result<SipUri, ParseUriError> {
        let rest = s.strip_prefix("sip:").ok_or(ParseUriError::BadScheme)?;
        let mut parts = rest.split(';');
        let core = parts.next().unwrap_or("");
        let params: Vec<(String, String)> = parts
            .map(|p| match p.split_once('=') {
                Some((n, v)) => (n.to_string(), v.to_string()),
                None => (p.to_string(), String::new()),
            })
            .collect();
        let (user, hostport) = match core.split_once('@') {
            Some((u, hp)) => (Some(u.to_string()), hp),
            None => (None, core),
        };
        let (host, port) = match hostport.split_once(':') {
            Some((h, p)) => {
                let port = p
                    .parse::<u16>()
                    .map_err(|_| ParseUriError::BadPort(p.to_string()))?;
                (h.to_string(), Some(port))
            }
            None => (hostport.to_string(), None),
        };
        if host.is_empty() {
            return Err(ParseUriError::EmptyHost);
        }
        Ok(SipUri {
            user: user.filter(|u| !u.is_empty()),
            host,
            port,
            params,
        })
    }
}

impl fmt::Display for SipUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sip:")?;
        if let Some(user) = &self.user {
            write!(f, "{user}@")?;
        }
        f.write_str(self.host.as_str())?;
        if let Some(port) = self.port {
            write!(f, ":{port}")?;
        }
        for (name, value) in &self.params {
            if value.is_empty() {
                write!(f, ";{name}")?;
            } else {
                write!(f, ";{name}={value}")?;
            }
        }
        Ok(())
    }
}

/// Error parsing a [`SipUri`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseUriError {
    /// The scheme was not `sip:`.
    BadScheme,
    /// The host part was empty.
    EmptyHost,
    /// The port was not a number in range.
    BadPort(String),
}

impl fmt::Display for ParseUriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUriError::BadScheme => write!(f, "uri scheme is not `sip:`"),
            ParseUriError::EmptyHost => write!(f, "uri host part is empty"),
            ParseUriError::BadPort(p) => write!(f, "invalid uri port `{p}`"),
        }
    }
}

impl std::error::Error for ParseUriError {}

impl FromStr for SipUri {
    type Err = ParseUriError;

    fn from_str(s: &str) -> Result<SipUri, ParseUriError> {
        let rest = s.strip_prefix("sip:").ok_or(ParseUriError::BadScheme)?;
        // Split off URI parameters. Most request URIs carry none, so the
        // split iterator is only set up when a `;` is actually present.
        let (core, params) = match crate::scan::memchr(b';', rest.as_bytes()) {
            None => (rest, Vec::new()),
            Some(i) => (
                &rest[..i],
                rest[i + 1..]
                    .split(';')
                    .map(|p| match p.split_once('=') {
                        Some((n, v)) => (n.to_owned(), v.to_owned()),
                        None => (p.to_owned(), String::new()),
                    })
                    .collect(),
            ),
        };
        let (user, hostport) = match core.split_once('@') {
            Some((u, hp)) => (Some(u), hp),
            None => (None, core),
        };
        let (host, port) = match hostport.split_once(':') {
            Some((h, p)) => {
                let port = p
                    .parse::<u16>()
                    .map_err(|_| ParseUriError::BadPort(p.to_string()))?;
                (h, Some(port))
            }
            None => (hostport, None),
        };
        if host.is_empty() {
            return Err(ParseUriError::EmptyHost);
        }
        Ok(SipUri {
            user: user.filter(|u| !u.is_empty()).map(str::to_owned),
            host: host.to_owned(),
            port,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_uri() {
        let uri: SipUri = "sip:bob@example.com:5070;transport=udp;lr".parse().unwrap();
        assert_eq!(uri.user.as_deref(), Some("bob"));
        assert_eq!(uri.host, "example.com");
        assert_eq!(uri.port, Some(5070));
        assert_eq!(
            uri.params,
            vec![
                ("transport".to_owned(), "udp".to_owned()),
                ("lr".to_owned(), String::new())
            ]
        );
    }

    #[test]
    fn parse_minimal() {
        let uri: SipUri = "sip:example.com".parse().unwrap();
        assert_eq!(uri.user, None);
        assert_eq!(uri.port, None);
        assert_eq!(uri.port_or_default(), 5060);
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "sip:alice@10.0.0.1",
            "sip:alice@10.0.0.1:5062",
            "sip:proxy.example.com",
            "sip:bob@h.com;transport=udp",
            "sip:bob@h.com:5060;lr",
        ] {
            let uri: SipUri = s.parse().unwrap();
            assert_eq!(uri.to_string(), s);
        }
    }

    #[test]
    fn host_ip_literal() {
        let uri: SipUri = "sip:a@10.0.0.9".parse().unwrap();
        assert_eq!(uri.host_ip(), Some(Ipv4Addr::new(10, 0, 0, 9)));
        let uri: SipUri = "sip:a@example.com".parse().unwrap();
        assert_eq!(uri.host_ip(), None);
    }

    #[test]
    fn aor_ignores_port() {
        let uri: SipUri = "sip:alice@example.com:5099".parse().unwrap();
        assert_eq!(uri.aor(), "alice@example.com");
        let uri: SipUri = "sip:example.com".parse().unwrap();
        assert_eq!(uri.aor(), "example.com");
    }

    #[test]
    fn errors() {
        assert_eq!("http://x".parse::<SipUri>(), Err(ParseUriError::BadScheme));
        assert_eq!("sip:".parse::<SipUri>(), Err(ParseUriError::EmptyHost));
        assert_eq!("sip:a@".parse::<SipUri>(), Err(ParseUriError::EmptyHost));
        assert!(matches!(
            "sip:a@h:99999".parse::<SipUri>(),
            Err(ParseUriError::BadPort(_))
        ));
    }

    #[test]
    fn builder_helpers() {
        let uri = SipUri::new("alice", "10.0.0.1")
            .with_port(5060)
            .with_param("transport", "udp");
        assert_eq!(uri.to_string(), "sip:alice@10.0.0.1:5060;transport=udp");
        assert_eq!(SipUri::host_only("h.com").to_string(), "sip:h.com");
    }

    #[test]
    fn empty_user_is_none() {
        let uri: SipUri = "sip:@h.com".parse().unwrap();
        assert_eq!(uri.user, None);
    }

    /// `from_str` (production) and `parse_reference` (retained
    /// allocating parser) must agree — result or error — on every input.
    #[test]
    fn reference_parser_matches_from_str() {
        for s in [
            "sip:bob@example.com:5070;transport=udp;lr",
            "sip:example.com",
            "sip:alice@10.0.0.1",
            "sip:@h.com",
            "sip:a@h:99999",
            "sip:",
            "sip:a@",
            "http://x",
            "sip:h;=;a=;=b;;x",
            "sip:u@h:5060;p",
            "sip:a@h:+5",
            "sip:a@h:",
            "sips:a@h",
            "sip:h;lr",
            "sip:bob@10.0.0.3:5060;transport=udp",
            "",
        ] {
            assert_eq!(
                s.parse::<SipUri>(),
                SipUri::parse_reference(s),
                "diverged on `{s}`"
            );
            assert_eq!(
                SipUri::aor_of(s),
                s.parse::<SipUri>().ok().map(|u| u.aor()).as_deref(),
                "aor diverged on `{s}`"
            );
        }
    }
}
