//! Minimal SDP (RFC 4566 subset) — just enough for a VoIP call:
//! origin, connection address, and audio media lines.
//!
//! The IDS cares about SDP because cross-protocol correlation starts
//! here: the `c=`/`m=` lines of an INVITE/200-OK exchange announce where
//! the RTP flow will live, which is how a SIP trail gets linked to an RTP
//! trail (paper §3.2) and how a forged re-INVITE redirects media (§4.2.3).

use crate::scan;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// One `m=` media description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaDesc {
    /// Media type, e.g. `audio`.
    pub media: String,
    /// Transport port for the media (RTP port; RTCP is port+1).
    pub port: u16,
    /// Transport profile, e.g. `RTP/AVP`.
    pub proto: String,
    /// Payload type numbers offered (0 = PCMU/G.711 µ-law).
    pub formats: Vec<u8>,
}

impl MediaDesc {
    /// A standard G.711 µ-law audio stream on `port`.
    pub fn audio_pcmu(port: u16) -> MediaDesc {
        MediaDesc {
            media: "audio".to_string(),
            port,
            proto: "RTP/AVP".to_string(),
            formats: vec![0],
        }
    }
}

/// A session description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionDescription {
    /// Originator username (`o=` first field).
    pub origin_user: String,
    /// Session id (`o=` second field).
    pub session_id: u64,
    /// Session version (`o=` third field); bumped on re-INVITE.
    pub session_version: u64,
    /// Connection address (`c=IN IP4 <addr>`), where media should be sent.
    pub connection: Ipv4Addr,
    /// Media descriptions.
    pub media: Vec<MediaDesc>,
}

impl SessionDescription {
    /// Builds a one-stream audio offer.
    ///
    /// # Examples
    ///
    /// ```
    /// use scidive_sip::sdp::SessionDescription;
    /// use std::net::Ipv4Addr;
    ///
    /// let sdp = SessionDescription::audio_offer("alice", Ipv4Addr::new(10, 0, 0, 1), 8000);
    /// assert_eq!(sdp.rtp_target(), Some((Ipv4Addr::new(10, 0, 0, 1), 8000)));
    /// let text = sdp.to_string();
    /// assert_eq!(text.parse::<SessionDescription>()?, sdp);
    /// # Ok::<(), scidive_sip::sdp::ParseSdpError>(())
    /// ```
    pub fn audio_offer(user: impl Into<String>, addr: Ipv4Addr, rtp_port: u16) -> SessionDescription {
        SessionDescription {
            origin_user: user.into(),
            session_id: 1,
            session_version: 1,
            connection: addr,
            media: vec![MediaDesc::audio_pcmu(rtp_port)],
        }
    }

    /// The `(address, port)` where the offerer expects RTP, if an audio
    /// stream is present.
    pub fn rtp_target(&self) -> Option<(Ipv4Addr, u16)> {
        self.media
            .iter()
            .find(|m| m.media == "audio")
            .map(|m| (self.connection, m.port))
    }

    /// The RTP target of the SDP text `s`, decided without allocating:
    /// equal to `s.parse::<SessionDescription>().ok()` followed by
    /// [`SessionDescription::rtp_target`].
    ///
    /// This is the Unicode-aware scan. The wire parse
    /// ([`crate::msg::SipView::parse`]) scans an ASCII body
    /// byte by byte and falls back to this function otherwise.
    pub fn rtp_target_of(s: &str) -> Option<(Ipv4Addr, u16)> {
        rtp_target_in(
            s.lines().map(|l| l.trim_end_matches('\r')),
            str::split_whitespace,
        )
    }

    /// Returns a copy re-targeted at a new address/port with the session
    /// version bumped — what a (genuine or forged) re-INVITE carries.
    pub fn retargeted(&self, addr: Ipv4Addr, rtp_port: u16) -> SessionDescription {
        let mut next = self.clone();
        next.session_version += 1;
        next.connection = addr;
        for m in &mut next.media {
            if m.media == "audio" {
                m.port = rtp_port;
            }
        }
        next
    }
}

/// [`SessionDescription::rtp_target_of`] over a message body's bytes.
/// An ASCII body is scanned byte by byte: lines are found with
/// [`scan::memchr`] and fields split on the six ASCII whitespace bytes.
/// Any other body takes the `str` path, so both decide alike.
pub(crate) fn rtp_target_of_body(body: &[u8]) -> Option<(Ipv4Addr, u16)> {
    let text = std::str::from_utf8(body).ok()?;
    if !text.is_ascii() {
        return SessionDescription::rtp_target_of(text);
    }
    // A line keeps its trailing CRs here; they are whitespace to the
    // field split, so no decision sees them.
    rtp_target_in(scan::lf_lines(text), scan::ascii_fields)
}

/// The decisions of `from_str` followed by `rtp_target`, over `lines`
/// and a field splitter: every line that would fail the parse returns
/// `None`; the last `v=`/`c=` wins and the first audio `m=` is the
/// target. Only a line that starts `v=`, `o=`, `c=` or `m=` decides
/// anything (its kind is the text before the first `=`).
fn rtp_target_in<'a, F: Iterator<Item = &'a str>>(
    lines: impl Iterator<Item = &'a str>,
    fields: impl Fn(&'a str) -> F,
) -> Option<(Ipv4Addr, u16)> {
    let mut version_seen = false;
    let mut origin_seen = false;
    let mut connection = None;
    let mut audio_port = None;
    for line in lines {
        let (kind, value) = match line.as_bytes() {
            [kind @ (b'v' | b'o' | b'c' | b'm'), b'=', ..] => (*kind, &line[2..]),
            _ => continue,
        };
        let mut parts = fields(value);
        match kind {
            // `value.trim() == "0"`: the only field is `0`.
            b'v' => version_seen = parts.next() == Some("0") && parts.next().is_none(),
            b'o' => {
                let (_user, id, version) = (parts.next()?, parts.next()?, parts.next()?);
                id.parse::<u64>().ok()?;
                version.parse::<u64>().ok()?;
                origin_seen = true;
            }
            b'c' => {
                let (net, family, addr) = (parts.next()?, parts.next()?, parts.next()?);
                if parts.next().is_some() || net != "IN" || family != "IP4" {
                    return None;
                }
                connection = Some(addr.parse::<Ipv4Addr>().ok()?);
            }
            _ => {
                let (media, port, _proto) = (parts.next()?, parts.next()?, parts.next()?);
                let port = port.parse::<u16>().ok()?;
                if media == "audio" && audio_port.is_none() {
                    audio_port = Some(port);
                }
            }
        }
    }
    if !(version_seen && origin_seen) {
        return None;
    }
    Some((connection?, audio_port?))
}

impl fmt::Display for SessionDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "v=0\r")?;
        writeln!(
            f,
            "o={} {} {} IN IP4 {}\r",
            self.origin_user, self.session_id, self.session_version, self.connection
        )?;
        writeln!(f, "s=-\r")?;
        writeln!(f, "c=IN IP4 {}\r", self.connection)?;
        writeln!(f, "t=0 0\r")?;
        for m in &self.media {
            let formats: Vec<String> = m.formats.iter().map(|p| p.to_string()).collect();
            writeln!(
                f,
                "m={} {} {} {}\r",
                m.media,
                m.port,
                m.proto,
                formats.join(" ")
            )?;
        }
        Ok(())
    }
}

/// Error parsing an SDP body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSdpError {
    /// Missing `v=0` version line.
    MissingVersion,
    /// `o=` line absent or malformed.
    BadOrigin,
    /// `c=` line absent or not `IN IP4`.
    BadConnection,
    /// An `m=` line was malformed.
    BadMedia(String),
}

impl fmt::Display for ParseSdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSdpError::MissingVersion => write!(f, "sdp missing v=0"),
            ParseSdpError::BadOrigin => write!(f, "sdp o= line missing or malformed"),
            ParseSdpError::BadConnection => write!(f, "sdp c= line missing or not IN IP4"),
            ParseSdpError::BadMedia(l) => write!(f, "sdp m= line malformed: `{l}`"),
        }
    }
}

impl std::error::Error for ParseSdpError {}

impl FromStr for SessionDescription {
    type Err = ParseSdpError;

    fn from_str(s: &str) -> Result<SessionDescription, ParseSdpError> {
        let mut version_seen = false;
        let mut origin: Option<(String, u64, u64)> = None;
        let mut connection: Option<Ipv4Addr> = None;
        let mut media = Vec::new();
        for line in s.lines().map(|l| l.trim_end_matches('\r')) {
            if line.is_empty() {
                continue;
            }
            let Some((kind, value)) = line.split_once('=') else {
                continue;
            };
            match kind {
                "v" => version_seen = value.trim() == "0",
                "o" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() < 3 {
                        return Err(ParseSdpError::BadOrigin);
                    }
                    let id = parts[1].parse().map_err(|_| ParseSdpError::BadOrigin)?;
                    let ver = parts[2].parse().map_err(|_| ParseSdpError::BadOrigin)?;
                    origin = Some((parts[0].to_string(), id, ver));
                }
                "c" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 3 || parts[0] != "IN" || parts[1] != "IP4" {
                        return Err(ParseSdpError::BadConnection);
                    }
                    connection =
                        Some(parts[2].parse().map_err(|_| ParseSdpError::BadConnection)?);
                }
                "m" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() < 3 {
                        return Err(ParseSdpError::BadMedia(line.to_string()));
                    }
                    let port = parts[1]
                        .parse()
                        .map_err(|_| ParseSdpError::BadMedia(line.to_string()))?;
                    let formats = parts[3..]
                        .iter()
                        .filter_map(|p| p.parse().ok())
                        .collect();
                    media.push(MediaDesc {
                        media: parts[0].to_string(),
                        port,
                        proto: parts[2].to_string(),
                        formats,
                    });
                }
                _ => {} // s=, t=, a=, b=, ... ignored
            }
        }
        if !version_seen {
            return Err(ParseSdpError::MissingVersion);
        }
        let (origin_user, session_id, session_version) =
            origin.ok_or(ParseSdpError::BadOrigin)?;
        let connection = connection.ok_or(ParseSdpError::BadConnection)?;
        Ok(SessionDescription {
            origin_user,
            session_id,
            session_version,
            connection,
            media,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 5)
    }

    #[test]
    fn roundtrip() {
        let sdp = SessionDescription::audio_offer("alice", addr(), 8000);
        let text = sdp.to_string();
        assert!(text.starts_with("v=0\r\n"));
        assert!(text.contains("c=IN IP4 10.0.0.5\r\n"));
        assert!(text.contains("m=audio 8000 RTP/AVP 0\r\n"));
        assert_eq!(text.parse::<SessionDescription>().unwrap(), sdp);
    }

    #[test]
    fn rtp_target() {
        let sdp = SessionDescription::audio_offer("a", addr(), 9000);
        assert_eq!(sdp.rtp_target(), Some((addr(), 9000)));
        let mut no_audio = sdp;
        no_audio.media.clear();
        assert_eq!(no_audio.rtp_target(), None);
    }

    #[test]
    fn retarget_bumps_version() {
        let sdp = SessionDescription::audio_offer("a", addr(), 9000);
        let new_addr = Ipv4Addr::new(10, 0, 0, 66);
        let moved = sdp.retargeted(new_addr, 7000);
        assert_eq!(moved.rtp_target(), Some((new_addr, 7000)));
        assert_eq!(moved.session_version, sdp.session_version + 1);
        assert_eq!(moved.session_id, sdp.session_id);
    }

    #[test]
    fn parse_ignores_unknown_lines() {
        let text = "v=0\r\no=bob 3 4 IN IP4 10.0.0.7\r\ns=call\r\nc=IN IP4 10.0.0.7\r\nt=0 0\r\na=sendrecv\r\nm=audio 12000 RTP/AVP 0 8\r\n";
        let sdp: SessionDescription = text.parse().unwrap();
        assert_eq!(sdp.origin_user, "bob");
        assert_eq!(sdp.session_version, 4);
        assert_eq!(sdp.media[0].formats, vec![0, 8]);
    }

    #[test]
    fn scanner_matches_the_parser() {
        let good = SessionDescription::audio_offer("a", addr(), 9000).to_string();
        for text in [
            good.as_str(),
            "v=0\r\no=bob 3 4 IN IP4 10.0.0.7\r\nc=IN IP4 10.0.0.7\r\nm=video 1 RTP/AVP\r\nm=audio 12000 RTP/AVP 0 8\r\nm=audio 2 RTP/AVP\r\n",
            "v=0\no=a 1 1\nc=IN IP4 10.0.0.1\nc=IN IP4 10.0.0.2\nm=audio 5 x y\n",
            "v=1\r\nv=0\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\nv=1\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\no=a 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\no=a 1 x\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\no=a 1 1\r\nc=IN IP4 10.0.0.1 extra\r\nm=audio 5 x\r\n",
            "v=0\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 70000 x\r\n",
            "v=0\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5\r\n",
            "v=0\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\n",
            "v=0\r\no=a 1 1\r\nm=audio 5 x\r\n",
            "",
            // Separators a byte scanner can get wrong: VT, which
            // `is_ascii_whitespace` leaves out, and Unicode whitespace.
            "v=0\x0B\r\no=a\x0B1 1\r\nc=IN\x0BIP4 10.0.0.1\r\nm=audio\x0B5 x\r\n",
            "v=0\r\no=a 1 1\r\nc=IN IP4\u{A0}10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\u{2003}\r\no=a 1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\no=a\u{85}1 1\r\nc=IN IP4 10.0.0.1\r\nm=audio 5 x\r\n",
            "v=0\r\r\no=a 1 1\rc=IN IP4 10.0.0.1\r\nm=audio 5 x",
        ] {
            let oracle = text.parse::<SessionDescription>().ok().and_then(|d| d.rtp_target());
            assert_eq!(SessionDescription::rtp_target_of(text), oracle, "diverged on {text:?}");
            assert_eq!(rtp_target_of_body(text.as_bytes()), oracle, "scan diverged on {text:?}");
        }
        for cut in 0..good.len() {
            let text = &good[..cut];
            let oracle = text
                .parse::<SessionDescription>()
                .ok()
                .and_then(|d| d.rtp_target());
            assert_eq!(rtp_target_of_body(text.as_bytes()), oracle, "cut at {cut}");
        }
        assert_eq!(rtp_target_of_body(b"v=0\r\n\xff"), None);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "o=a 1 1 IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.1\r\n".parse::<SessionDescription>(),
            Err(ParseSdpError::MissingVersion)
        );
        assert_eq!(
            "v=0\r\nc=IN IP4 10.0.0.1\r\n".parse::<SessionDescription>(),
            Err(ParseSdpError::BadOrigin)
        );
        assert_eq!(
            "v=0\r\no=a 1 1 IN IP4 10.0.0.1\r\n".parse::<SessionDescription>(),
            Err(ParseSdpError::BadConnection)
        );
        assert_eq!(
            "v=0\r\no=a 1 1 IN IP4 x\r\nc=IN IP6 ::1\r\n".parse::<SessionDescription>(),
            Err(ParseSdpError::BadConnection)
        );
        assert!(matches!(
            "v=0\r\no=a 1 1 IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.1\r\nm=audio xyz RTP/AVP 0\r\n"
                .parse::<SessionDescription>(),
            Err(ParseSdpError::BadMedia(_))
        ));
    }
}
