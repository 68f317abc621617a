//! Footprints: protocol-dependent information units (paper §3.1).
//!
//! "The Distiller ... translates packets into protocol dependent
//! information units called Footprints. A Footprint is a protocol
//! dependent information unit, which, for example, could be composed of
//! a SIP message or an RTP packet."
//!
//! Built-in protocols get their own [`FootprintBody`] variants; protocol
//! modules registered from outside the core crate carry their decoded
//! payload through [`FootprintBody::Ext`] / [`ExtBody`], which erases
//! the module's concrete type behind [`ExtData`].

use bytes::Bytes;
use scidive_netsim::packet::PacketError;
use scidive_netsim::time::SimTime;
use scidive_rtp::packet::RtpHeader;
use scidive_rtp::rtcp::RtcpPacket;
use scidive_sip::header::CSeq;
use scidive_sip::method::Method;
use scidive_sip::msg::{SipMessage, SipView, Span};
use scidive_sip::parse::SipParseError;
use scidive_sip::status::StatusCode;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::num::NonZeroU16;
use std::str::FromStr;
use std::sync::Arc;

/// Where and when a packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketMeta {
    /// Observation time at the tap.
    pub time: SimTime,
    /// IP source.
    pub src: Ipv4Addr,
    /// UDP source port (0 if the transport header was unreadable).
    pub src_port: u16,
    /// IP destination.
    pub dst: Ipv4Addr,
    /// UDP destination port (0 if the transport header was unreadable).
    pub dst_port: u16,
}

/// An accounting transaction decoded by the IDS.
///
/// The IDS carries its own decoder for the accounting wire line rather
/// than importing the billing system's types: an IDS must parse what is
/// on the wire, not share code with the system it watches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcctFootprint {
    /// `true` for START, `false` for STOP.
    pub start: bool,
    /// Billed party (AOR).
    pub caller: String,
    /// Called party (AOR).
    pub callee: String,
    /// The Call-ID the billing system attached.
    pub call_id: String,
}

impl FromStr for AcctFootprint {
    type Err = ();

    /// Parses the five-token accounting line with a single iterator
    /// walk — no intermediate `Vec<&str>` — so the acct decode path
    /// stays allocation-free until a line actually matches.
    fn from_str(s: &str) -> Result<AcctFootprint, ()> {
        let mut parts = s.split_whitespace();
        if parts.next() != Some("ACCT") {
            return Err(());
        }
        let start = match parts.next() {
            Some("START") => true,
            Some("STOP") => false,
            _ => return Err(()),
        };
        let caller = parts.next().ok_or(())?;
        let callee = parts.next().ok_or(())?;
        let call_id = parts.next().ok_or(())?;
        if parts.next().is_some() {
            return Err(());
        }
        Ok(AcctFootprint {
            start,
            caller: caller.to_string(),
            callee: callee.to_string(),
            call_id: call_id.to_string(),
        })
    }
}

/// Why a UDP datagram failed to decode, as a copyable tag instead of a
/// formatted `String`: a corrupt-packet flood must not pressure the
/// allocator (one footprint per frame, zero heap per reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptReason {
    /// The packet is an unreassembled IP fragment.
    Fragmented,
    /// The transport protocol is not the one the decoder expected.
    WrongProtocol,
    /// The payload is shorter than its headers claim.
    Truncated,
    /// The UDP length field disagrees with the payload size.
    BadLength,
    /// The UDP checksum does not verify.
    BadChecksum,
}

impl CorruptReason {
    /// The reason as a static display string.
    pub fn as_str(self) -> &'static str {
        match self {
            CorruptReason::Fragmented => "unreassembled fragment",
            CorruptReason::WrongProtocol => "wrong transport protocol",
            CorruptReason::Truncated => "truncated datagram",
            CorruptReason::BadLength => "udp length mismatch",
            CorruptReason::BadChecksum => "udp checksum mismatch",
        }
    }
}

impl From<&PacketError> for CorruptReason {
    fn from(e: &PacketError) -> CorruptReason {
        match e {
            PacketError::Fragmented => CorruptReason::Fragmented,
            PacketError::NotUdp(_) | PacketError::NotIcmp(_) => CorruptReason::WrongProtocol,
            PacketError::Truncated { .. } => CorruptReason::Truncated,
            PacketError::BadLength { .. } => CorruptReason::BadLength,
            PacketError::BadChecksum { .. } => CorruptReason::BadChecksum,
        }
    }
}

impl fmt::Display for CorruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The decoded payload a protocol module attaches to an extension
/// footprint. Implemented by the module's own PDU type; the pipeline
/// treats it as an opaque, comparable, printable blob.
pub trait ExtData: fmt::Debug + Send + Sync + 'static {
    /// Downcast hook so the owning module can recover its concrete type
    /// in `attribute`/`generate`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Equality against another extension payload (used by
    /// `FootprintBody: PartialEq`). Implementations should downcast and
    /// compare, returning `false` on a type mismatch.
    fn eq_ext(&self, other: &dyn ExtData) -> bool;

    /// A short display label, e.g. `"MGCP DLCX call-7"`.
    fn label(&self) -> String;
}

/// An extension protocol's footprint payload: the registering module's
/// static name plus its type-erased decoded PDU. Cloning bumps an `Arc`
/// refcount — extension footprints stay cheap on the trail path.
#[derive(Debug, Clone)]
pub struct ExtBody {
    /// The owning protocol module's `name()`.
    pub proto: &'static str,
    /// The module's decoded payload.
    pub data: Arc<dyn ExtData>,
}

impl PartialEq for ExtBody {
    fn eq(&self, other: &ExtBody) -> bool {
        self.proto == other.proto && self.data.eq_ext(other.data.as_ref())
    }
}

/// A byte range of a [`SipFootprint`]'s text in 16 bits, its end stored
/// plus one so that `Option<Span16>` is no larger. `decode_udp` rejects
/// a datagram whose 16-bit UDP length disagrees with its size, so every
/// wire span fits; a built message whose headers reach past is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span16 {
    start: u16,
    end_plus_one: NonZeroU16,
}

impl Span16 {
    fn new(span: Option<Span>) -> Result<Option<Span16>, SipTextError> {
        span.map(|s| {
            let end_plus_one = u16::try_from(s.end + 1).ok().and_then(NonZeroU16::new);
            match (u16::try_from(s.start), end_plus_one) {
                (Ok(start), Some(end_plus_one)) => Ok(Span16 {
                    start,
                    end_plus_one,
                }),
                _ => Err(SipTextError::TooLong(s.end)),
            }
        })
        .transpose()
    }
}

/// Why bytes did not become a [`SipFootprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SipTextError {
    /// The text does not parse as SIP.
    Parse(SipParseError),
    /// A header the IDS reads ends at this offset, past 65,534.
    TooLong(usize),
}

impl fmt::Display for SipTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SipTextError::Parse(e) => fmt::Display::fmt(e, f),
            SipTextError::TooLong(end) => write!(f, "sip header ends past byte 65534 ({end})"),
        }
    }
}

impl std::error::Error for SipTextError {}

/// A SIP footprint: the message's text, shared with the packet, and the
/// fields the IDS reads, decided in the parse's line scan
/// ([`SipView::parse`]). The Call-ID, the From and To AORs and the
/// Authorization value are spans of the text, which the accessors
/// slice. No header list is built, so nothing allocated per frame
/// crosses the shard queue with it.
#[derive(Clone, PartialEq)]
pub struct SipFootprint {
    /// The wire text, or its unfolded rendering ([`SipView::parse`]).
    text: Bytes,
    method: Option<Method>,
    status: Option<StatusCode>,
    clean: bool,
    cseq: Option<CSeq>,
    rtp_target: Option<(Ipv4Addr, u16)>,
    call_id: Option<Span16>,
    from_aor: Option<Span16>,
    to_aor: Option<Span16>,
    authorization: Option<Span16>,
}

impl SipFootprint {
    /// Reads a footprint off wire bytes; a built message enters as
    /// [`SipMessage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails as [`SipMessage::parse_bytes`] does, or when a header the
    /// IDS reads ends past byte 65,534.
    pub fn parse(payload: Bytes) -> Result<SipFootprint, SipTextError> {
        let (text, view) = SipView::parse(payload).map_err(SipTextError::Parse)?;
        Ok(SipFootprint {
            method: view.method,
            status: view.status,
            clean: view.clean,
            cseq: view.cseq,
            rtp_target: view.rtp_target,
            call_id: Span16::new(view.call_id)?,
            from_aor: Span16::new(view.from_aor)?,
            to_aor: Span16::new(view.to_aor)?,
            authorization: Span16::new(view.authorization)?,
            text,
        })
    }

    fn slice(&self, span: Option<Span16>) -> Option<&str> {
        let span = span?;
        let range = usize::from(span.start)..usize::from(span.end_plus_one.get()) - 1;
        std::str::from_utf8(self.text.get(range)?).ok()
    }

    /// The first Call-ID value.
    pub fn call_id(&self) -> Option<&str> {
        self.slice(self.call_id)
    }

    /// The From header's address-of-record, if the header parses.
    pub fn from_aor(&self) -> Option<&str> {
        self.slice(self.from_aor)
    }

    /// The To header's address-of-record, if the header parses.
    pub fn to_aor(&self) -> Option<&str> {
        self.slice(self.to_aor)
    }

    /// The first Authorization value.
    pub fn authorization(&self) -> Option<&str> {
        self.slice(self.authorization)
    }

    /// The request method, if a request.
    pub fn method(&self) -> Option<Method> {
        self.method
    }

    /// The status code, if a response.
    pub fn status(&self) -> Option<StatusCode> {
        self.status
    }

    /// Whether this is a request.
    pub fn is_request(&self) -> bool {
        self.method.is_some()
    }

    /// Whether `format_violations()` is empty.
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// The CSeq, if present and well-formed.
    pub fn cseq(&self) -> Option<CSeq> {
        self.cseq
    }

    /// Where the SDP body asks for RTP, if the message carries one.
    pub fn rtp_target(&self) -> Option<(Ipv4Addr, u16)> {
        self.rtp_target
    }

    /// `message().format_violations()`, read off the text without
    /// building the message. Text that does not parse again (the view
    /// and the parser disagree on it) is one violation naming the
    /// parse error, never a panic in the worker reading it.
    pub fn format_violations(&self) -> Vec<String> {
        SipView::format_violations(&self.text)
            .unwrap_or_else(|e| vec![format!("sip text does not parse again: {e}")])
    }

    /// The message, parsed again from the text: for tests.
    ///
    /// # Panics
    ///
    /// Panics if the text does not parse again.
    pub fn message(&self) -> SipMessage {
        SipMessage::parse_bytes(self.text.clone()).expect("the text parsed before")
    }

    /// The message's one-line summary, or the text's first line if the
    /// text does not parse again.
    fn summary(&self) -> String {
        match SipMessage::parse_bytes(self.text.clone()) {
            Ok(message) => message.summary(),
            Err(_) => self.first_line(),
        }
    }

    /// The text up to its first line break.
    fn first_line(&self) -> String {
        let end = self
            .text
            .iter()
            .position(|&b| b == b'\r' || b == b'\n')
            .unwrap_or(self.text.len());
        String::from_utf8_lossy(&self.text[..end]).into_owned()
    }
}

impl fmt::Debug for SipFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match SipMessage::parse_bytes(self.text.clone()) {
            Ok(message) => fmt::Debug::fmt(&message, f),
            Err(_) => f.debug_tuple("SipFootprint").field(&self.first_line()).finish(),
        }
    }
}

/// The protocol-dependent payload of a footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum FootprintBody {
    /// A SIP message.
    Sip(SipFootprint),
    /// Traffic on a SIP port that failed to parse as SIP.
    SipMalformed {
        /// Why parsing failed.
        reason: String,
        /// The first bytes, for forensics.
        prefix: Vec<u8>,
    },
    /// An RTP packet (header only; the IDS does not retain media).
    Rtp {
        /// The decoded header.
        header: RtpHeader,
        /// Payload bytes (not retained).
        payload_len: usize,
    },
    /// An RTCP packet.
    Rtcp(RtcpPacket),
    /// An accounting transaction.
    Acct(AcctFootprint),
    /// An ICMP message (type/code only).
    Icmp {
        /// ICMP type byte.
        icmp_type: u8,
    },
    /// UDP that matched no protocol decoder.
    UdpOther {
        /// Payload size.
        payload_len: usize,
    },
    /// A UDP datagram with a broken header or checksum.
    UdpCorrupt {
        /// The decode error class.
        reason: CorruptReason,
    },
    /// A registered extension protocol's decoded payload.
    Ext(ExtBody),
}

/// A protocol-dependent information unit produced by the Distiller.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Packet metadata.
    pub meta: PacketMeta,
    /// Decoded content.
    pub body: FootprintBody,
}

impl Footprint {
    /// A short label for display and debugging.
    pub fn label(&self) -> String {
        match &self.body {
            FootprintBody::Sip(sip) => format!("SIP {}", sip.summary()),
            FootprintBody::SipMalformed { reason, .. } => format!("SIP? ({reason})"),
            FootprintBody::Rtp { header, .. } => {
                format!("RTP seq={} ssrc={:#x}", header.seq, header.ssrc)
            }
            FootprintBody::Rtcp(_) => "RTCP".to_string(),
            FootprintBody::Acct(a) => format!(
                "ACCT {} {}→{}",
                if a.start { "START" } else { "STOP" },
                a.caller,
                a.callee
            ),
            FootprintBody::Icmp { icmp_type } => format!("ICMP type={icmp_type}"),
            FootprintBody::UdpOther { payload_len } => format!("UDP {payload_len}B"),
            FootprintBody::UdpCorrupt { reason } => format!("UDP corrupt ({reason})"),
            FootprintBody::Ext(e) => e.data.label(),
        }
    }

    /// The protocol this footprint belongs to, for trail grouping.
    pub fn proto(&self) -> TrailProto {
        match &self.body {
            FootprintBody::Sip(_) | FootprintBody::SipMalformed { .. } => TrailProto::Sip,
            FootprintBody::Rtp { .. } => TrailProto::Rtp,
            FootprintBody::Rtcp(_) => TrailProto::Rtcp,
            FootprintBody::Acct(_) => TrailProto::Acct,
            FootprintBody::Icmp { .. } | FootprintBody::UdpOther { .. }
            | FootprintBody::UdpCorrupt { .. } => TrailProto::Other,
            FootprintBody::Ext(e) => TrailProto::Ext(e.proto),
        }
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{} -> {}:{} {}",
            self.meta.time,
            self.meta.src,
            self.meta.src_port,
            self.meta.dst,
            self.meta.dst_port,
            self.label()
        )
    }
}

/// The protocol a trail groups (paper: "multiple trails for each
/// session, one for each protocol").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrailProto {
    /// Call management protocol (SIP).
    Sip,
    /// Media delivery protocol (RTP).
    Rtp,
    /// Media control (RTCP).
    Rtcp,
    /// Accounting transactions.
    Acct,
    /// Anything else (ICMP, unknown UDP).
    Other,
    /// A registered extension protocol, tagged by its module name.
    Ext(&'static str),
}

impl Serialize for TrailProto {
    fn to_value(&self) -> serde::Value {
        let name = match self {
            TrailProto::Sip => "Sip",
            TrailProto::Rtp => "Rtp",
            TrailProto::Rtcp => "Rtcp",
            TrailProto::Acct => "Acct",
            TrailProto::Other => "Other",
            TrailProto::Ext(name) => name,
        };
        serde::Value::Str(name.to_string())
    }
}

impl Deserialize for TrailProto {
    fn from_value(v: &serde::Value) -> Result<TrailProto, serde::DeError> {
        match v {
            serde::Value::Str(s) => match s.as_str() {
                "Sip" => Ok(TrailProto::Sip),
                "Rtp" => Ok(TrailProto::Rtp),
                "Rtcp" => Ok(TrailProto::Rtcp),
                "Acct" => Ok(TrailProto::Acct),
                "Other" => Ok(TrailProto::Other),
                // Extension protocols carry `&'static str` names owned
                // by their module; they cannot be reconstituted from a
                // serialized stream.
                other => Err(serde::DeError::msg(format!(
                    "unknown trail protocol {other:?}"
                ))),
            },
            other => Err(serde::DeError::expected("string", other)),
        }
    }
}

impl fmt::Display for TrailProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrailProto::Sip => "SIP",
            TrailProto::Rtp => "RTP",
            TrailProto::Rtcp => "RTCP",
            TrailProto::Acct => "ACCT",
            TrailProto::Other => "OTHER",
            TrailProto::Ext(name) => name,
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acct_line_parses() {
        let fp: AcctFootprint = "ACCT START alice@lab bob@lab c1".parse().unwrap();
        assert!(fp.start);
        assert_eq!(fp.caller, "alice@lab");
        assert_eq!(fp.call_id, "c1");
        let stop: AcctFootprint = "ACCT STOP a b c".parse().unwrap();
        assert!(!stop.start);
        assert!("ACCT PAUSE a b c".parse::<AcctFootprint>().is_err());
        assert!("ACCT START a b".parse::<AcctFootprint>().is_err());
        assert!("ACCT START a b c extra".parse::<AcctFootprint>().is_err());
        assert!("nonsense".parse::<AcctFootprint>().is_err());
    }

    #[test]
    fn proto_classification() {
        let meta = PacketMeta {
            time: SimTime::ZERO,
            src: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 1,
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 2,
        };
        let fp = Footprint {
            meta,
            body: FootprintBody::UdpOther { payload_len: 3 },
        };
        assert_eq!(fp.proto(), TrailProto::Other);
        assert!(fp.label().contains("3B"));
        assert!(fp.to_string().contains("10.0.0.1:1"));
    }

    #[test]
    fn trail_proto_display() {
        assert_eq!(TrailProto::Sip.to_string(), "SIP");
        assert_eq!(TrailProto::Acct.to_string(), "ACCT");
        assert_eq!(TrailProto::Ext("mgcp").to_string(), "mgcp");
    }

    #[test]
    fn trail_proto_serde_roundtrip() {
        for proto in [
            TrailProto::Sip,
            TrailProto::Rtp,
            TrailProto::Rtcp,
            TrailProto::Acct,
            TrailProto::Other,
        ] {
            let v = proto.to_value();
            assert_eq!(TrailProto::from_value(&v).unwrap(), proto);
        }
        // Extension names serialize but cannot round-trip to a
        // `&'static str`; deserialization reports them as unknown.
        let v = TrailProto::Ext("mgcp").to_value();
        assert!(TrailProto::from_value(&v).is_err());
    }

    /// A SIP footprint's spans are 16-bit, so the body stays 80 bytes,
    /// which every RTP footprint pays for as it moves through the
    /// pipeline and the shard queues.
    #[test]
    fn footprint_body_stays_eighty_bytes() {
        assert_eq!(std::mem::size_of::<FootprintBody>(), 80);
    }

    /// A header the IDS reads that ends past 16 bits is refused, never
    /// truncated; the same message with a short pad is read.
    #[test]
    fn a_span_past_sixteen_bits_is_refused() {
        let text = |pad: usize| {
            let pad = "p".repeat(pad);
            Bytes::from(format!(
                "OPTIONS sip:b@h SIP/2.0\r\nX-Pad: {pad}\r\nCall-ID: x\r\n\r\n"
            ))
        };
        assert_eq!(
            SipFootprint::parse(text(1_000)).unwrap().call_id(),
            Some("x")
        );
        assert!(matches!(
            SipFootprint::parse(text(70_000)),
            Err(SipTextError::TooLong(end)) if end > 70_000
        ));
    }

    /// Text the parser refuses, in a footprint built around it (as a
    /// divergence between the view and the parser would leave one),
    /// renders as a violation, a label and a `Debug` line instead of
    /// panicking.
    #[test]
    fn text_that_does_not_parse_again_renders_without_panicking() {
        let text = Bytes::from_static(b"NOT A SIP LINE\r\nCall-ID: x\r\n\r\n");
        assert!(SipMessage::parse_bytes(text.clone()).is_err());
        let sip = SipFootprint {
            text,
            method: Some(Method::Options),
            status: None,
            clean: false,
            cseq: None,
            rtp_target: None,
            call_id: None,
            from_aor: None,
            to_aor: None,
            authorization: None,
        };
        let violations = sip.format_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("sip text does not parse again: "),
            "{violations:?}"
        );
        assert_eq!(format!("{sip:?}"), "SipFootprint(\"NOT A SIP LINE\")");
        let fp = Footprint {
            meta: PacketMeta {
                time: SimTime::ZERO,
                src: Ipv4Addr::new(10, 0, 0, 1),
                src_port: 5060,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dst_port: 5060,
            },
            body: FootprintBody::Sip(sip),
        };
        assert_eq!(fp.label(), "SIP NOT A SIP LINE");
    }

    #[test]
    fn corrupt_reason_is_static_and_displays() {
        let r = CorruptReason::from(&PacketError::BadChecksum {
            expected: 1,
            actual: 2,
        });
        assert_eq!(r, CorruptReason::BadChecksum);
        assert_eq!(r.to_string(), "udp checksum mismatch");
    }
}
