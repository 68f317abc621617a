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
use scidive_sip::msg::{SipMessage, SipView};
use scidive_sip::parse::SipParseError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
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

/// Bound on idle recycled SIP message boxes kept per thread. Sized like
/// the header-vector pool in the sip crate: enough for every in-flight
/// footprint of a distill batch, small enough to be irrelevant memory.
const SIP_POOL_CAP: usize = 32;

/// A parsed message and its view: the contents of a [`PooledSip`] box.
struct ViewedSip {
    msg: SipMessage,
    view: SipView,
}

thread_local! {
    // The Box IS the pooled resource — its heap slot is what gets
    // recycled — so clippy's `Vec<ViewedSip>` suggestion would defeat
    // the pool (every pop would need a fresh `Box::new`).
    #[allow(clippy::vec_box)]
    static SIP_BOX_POOL: std::cell::RefCell<Vec<Box<ViewedSip>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A boxed [`SipMessage`] and its [`SipView`], in a heap slot recycled
/// through a thread-local pool: dropping a SIP footprint returns the box
/// for the next parsed message to reuse, so the steady-state distill
/// path stops paying one `Box` allocation per signalling frame.
///
/// The view is computed once, when the footprint is built — in the wire
/// parse's line scan ([`PooledSip::parse`]), or from the headers of a
/// built message ([`PooledSip::new`]) — and every consumer — the event
/// generator, the identity plane, media learning in the trail store and
/// the shard router, trail-reading rules — reads it instead of parsing
/// headers again. The wrapper is immutable after construction, so the
/// view crosses the shard ring with the message.
///
/// Dereferences to [`SipMessage`]; equality, `Debug`, and `Clone` all
/// follow the message, so the wrapper is invisible to rule code. Before
/// a box enters the pool its contents are replaced with an empty
/// placeholder, so pooling never pins packet buffers alive.
pub struct PooledSip {
    /// `Some` until drop.
    slot: Option<Box<ViewedSip>>,
}

impl PooledSip {
    /// Parses wire bytes, with the view built in the parse's line scan
    /// ([`SipMessage::parse_viewed`]), and wraps both in a recycled box
    /// (or a fresh one when the pool is empty). The distiller's entry.
    ///
    /// # Errors
    ///
    /// Fails as [`SipMessage::parse_bytes`] does.
    pub(crate) fn parse(payload: Bytes) -> Result<PooledSip, SipParseError> {
        let (msg, view) = SipMessage::parse_viewed(payload)?;
        Ok(PooledSip::boxed(ViewedSip { msg, view }))
    }

    /// Computes a built message's view from its headers and wraps both
    /// in a recycled box.
    pub fn new(msg: SipMessage) -> PooledSip {
        let view = msg.view();
        PooledSip::boxed(ViewedSip { msg, view })
    }

    fn boxed(contents: ViewedSip) -> PooledSip {
        let boxed = match SIP_BOX_POOL.with_borrow_mut(|pool| pool.pop()) {
            Some(mut b) => {
                *b = contents;
                b
            }
            None => Box::new(contents),
        };
        PooledSip { slot: Some(boxed) }
    }

    fn get(&self) -> &ViewedSip {
        self.slot.as_ref().expect("present until drop")
    }

    /// The message's view, computed when the footprint was built.
    pub fn view(&self) -> &SipView {
        &self.get().view
    }

    /// The From header's address-of-record, if the header parses.
    pub fn from_aor(&self) -> Option<&str> {
        let ViewedSip { msg, view } = self.get();
        view.from_aor(msg)
    }

    /// The To header's address-of-record, if the header parses.
    pub fn to_aor(&self) -> Option<&str> {
        let ViewedSip { msg, view } = self.get();
        view.to_aor(msg)
    }
}

impl std::ops::Deref for PooledSip {
    type Target = SipMessage;
    fn deref(&self) -> &SipMessage {
        &self.get().msg
    }
}

impl Drop for PooledSip {
    fn drop(&mut self) {
        let Some(mut boxed) = self.slot.take() else {
            return;
        };
        // `try_with`: during thread teardown the pool may already be
        // gone, in which case the box just frees normally.
        let _ = SIP_BOX_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < SIP_POOL_CAP {
                // Drop the message contents now; only the heap slot is
                // retained. The placeholder is allocation-free and its
                // empty header vector is below the header pool's
                // recycling threshold.
                boxed.msg = SipMessage {
                    start: scidive_sip::msg::StartLine::Response {
                        code: scidive_sip::status::StatusCode::OK,
                        reason: scidive_sip::bstr::ByteStr::EMPTY,
                    },
                    headers: scidive_sip::header::Headers::new(),
                    body: Bytes::new(),
                };
                pool.push(boxed);
            }
        });
    }
}

impl Clone for PooledSip {
    fn clone(&self) -> PooledSip {
        let ViewedSip { msg, view } = self.get();
        PooledSip::boxed(ViewedSip {
            msg: msg.clone(),
            view: *view,
        })
    }
}

impl PartialEq for PooledSip {
    fn eq(&self, other: &PooledSip) -> bool {
        **self == **other
    }
}

impl fmt::Debug for PooledSip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<SipMessage> for PooledSip {
    fn from(msg: SipMessage) -> PooledSip {
        PooledSip::new(msg)
    }
}

/// The protocol-dependent payload of a footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum FootprintBody {
    /// A parsed SIP message.
    Sip(PooledSip),
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
            FootprintBody::Sip(msg) => format!("SIP {}", msg.summary()),
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

    /// The view rides in the pooled box, not in the enum: a footprint
    /// stays 80 bytes, which every RTP footprint pays for as it moves
    /// through the pipeline and the shard rings.
    #[test]
    fn footprint_body_stays_eighty_bytes() {
        assert_eq!(std::mem::size_of::<FootprintBody>(), 80);
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
