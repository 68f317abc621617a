//! Packet model: IPv4 datagrams carrying UDP or ICMP.
//!
//! The simulator moves [`IpPacket`]s between nodes. The IP layer is a
//! structured model (no byte-level IP header), but the transport payload is
//! real bytes: UDP datagrams are encoded with an 8-byte RFC 768 header and
//! an internet checksum so that the IDS Distiller performs honest parsing
//! and can detect corrupted datagrams.

use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol number carried by an [`IpPacket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpProto {
    /// UDP (17). All SIP/RTP/RTCP/accounting traffic uses UDP.
    Udp,
    /// ICMP (1).
    Icmp,
    /// Any other protocol number.
    Other(u8),
}

impl IpProto {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Udp => 17,
            IpProto::Icmp => 1,
            IpProto::Other(n) => n,
        }
    }
}

impl From<u8> for IpProto {
    fn from(n: u8) -> IpProto {
        match n {
            17 => IpProto::Udp,
            1 => IpProto::Icmp,
            other => IpProto::Other(other),
        }
    }
}

/// Fragmentation state of an [`IpPacket`].
///
/// `offset` is in bytes and must be a multiple of 8 for non-final
/// fragments, as in real IPv4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FragInfo {
    /// Byte offset of this fragment's payload within the original datagram.
    pub offset: u16,
    /// More-fragments flag.
    pub more: bool,
}

impl FragInfo {
    /// Fragment state of an unfragmented packet.
    pub const UNFRAGMENTED: FragInfo = FragInfo {
        offset: 0,
        more: false,
    };

    /// Whether the packet is a fragment (offset non-zero or more set).
    pub fn is_fragment(self) -> bool {
        self.offset != 0 || self.more
    }
}

/// A simulated IPv4 packet.
///
/// # Examples
///
/// ```
/// use scidive_netsim::packet::{IpPacket, UdpDatagram};
/// use std::net::Ipv4Addr;
///
/// let pkt = IpPacket::udp(
///     Ipv4Addr::new(10, 0, 0, 1), 5060,
///     Ipv4Addr::new(10, 0, 0, 2), 5060,
///     b"OPTIONS sip:b@10.0.0.2 SIP/2.0\r\n\r\n".as_ref(),
/// );
/// let udp = pkt.decode_udp().unwrap();
/// assert_eq!(udp.dst_port, 5060);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpPacket {
    /// Source address (spoofable: the simulator, like Ethernet, does not
    /// validate it — this is what enables the paper's forged-BYE attack).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP identification, used to group fragments.
    pub id: u16,
    /// Time-to-live.
    pub ttl: u8,
    /// Transport protocol.
    pub proto: IpProto,
    /// Fragmentation state.
    pub frag: FragInfo,
    /// Transport-layer bytes (a full UDP datagram when unfragmented).
    pub payload: Bytes,
}

impl IpPacket {
    /// Default TTL for locally generated packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Builds an unfragmented UDP packet with a correct checksum.
    pub fn udp(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: impl Into<Bytes>,
    ) -> IpPacket {
        let udp = UdpDatagram {
            src_port,
            dst_port,
            payload: payload.into(),
        };
        IpPacket {
            src,
            dst,
            id: 0,
            ttl: Self::DEFAULT_TTL,
            proto: IpProto::Udp,
            frag: FragInfo::UNFRAGMENTED,
            payload: udp.encode(src, dst),
        }
    }

    /// Builds an ICMP packet.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, msg: &IcmpMessage) -> IpPacket {
        IpPacket {
            src,
            dst,
            id: 0,
            ttl: Self::DEFAULT_TTL,
            proto: IpProto::Icmp,
            frag: FragInfo::UNFRAGMENTED,
            payload: msg.encode(),
        }
    }

    /// Sets the IP identification (builder-style).
    pub fn with_id(mut self, id: u16) -> IpPacket {
        self.id = id;
        self
    }

    /// Total size accounted for in byte counts: modelled 20-byte IP header
    /// plus payload.
    pub fn wire_len(&self) -> usize {
        20 + self.payload.len()
    }

    /// Decodes the payload as a UDP datagram.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet is a fragment, is not UDP, is too
    /// short, has an inconsistent length field, or fails its checksum.
    pub fn decode_udp(&self) -> Result<UdpDatagram, PacketError> {
        if self.frag.is_fragment() {
            return Err(PacketError::Fragmented);
        }
        if self.proto != IpProto::Udp {
            return Err(PacketError::NotUdp(self.proto));
        }
        UdpDatagram::decode_shared(self.src, self.dst, &self.payload)
    }

    /// Decodes the payload as an ICMP message.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet is not ICMP or is truncated.
    pub fn decode_icmp(&self) -> Result<IcmpMessage, PacketError> {
        if self.proto != IpProto::Icmp {
            return Err(PacketError::NotIcmp(self.proto));
        }
        IcmpMessage::decode(&self.payload)
    }
}

impl fmt::Display for IpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} proto={:?} len={}",
            self.src,
            self.dst,
            self.proto,
            self.payload.len()
        )
    }
}

/// Errors from packet decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Packet is an IP fragment and must be reassembled first.
    Fragmented,
    /// Packet transport protocol is not UDP.
    NotUdp(IpProto),
    /// Packet transport protocol is not ICMP.
    NotIcmp(IpProto),
    /// Transport payload too short for its header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// UDP length field disagrees with the actual payload size.
    BadLength {
        /// The length field from the header.
        declared: u16,
        /// The actual payload size in bytes.
        actual: usize,
    },
    /// UDP checksum verification failed.
    BadChecksum {
        /// Checksum recomputed over the datagram.
        expected: u16,
        /// Checksum found in the header.
        actual: u16,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Fragmented => write!(f, "packet is an unreassembled IP fragment"),
            PacketError::NotUdp(p) => write!(f, "transport protocol is {p:?}, not UDP"),
            PacketError::NotIcmp(p) => write!(f, "transport protocol is {p:?}, not ICMP"),
            PacketError::Truncated { need, have } => {
                write!(f, "payload truncated: need {need} bytes, have {have}")
            }
            PacketError::BadLength { declared, actual } => {
                write!(f, "udp length field {declared} disagrees with payload size {actual}")
            }
            PacketError::BadChecksum { expected, actual } => {
                write!(f, "udp checksum mismatch: expected {expected:#06x}, got {actual:#06x}")
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// A decoded UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Header length of an encoded datagram.
    pub const HEADER_LEN: usize = 8;

    /// Encodes to wire format (RFC 768 header + payload) with a checksum
    /// over the IPv4 pseudo-header.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = (Self::HEADER_LEN + self.payload.len()) as u16;
        let mut buf = BytesMut::with_capacity(len as usize);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.payload);
        let sum = udp_checksum(src, dst, &buf);
        buf[6] = (sum >> 8) as u8;
        buf[7] = (sum & 0xff) as u8;
        buf.freeze()
    }

    /// Decodes from wire format, verifying length and checksum.
    ///
    /// # Errors
    ///
    /// See [`PacketError`].
    pub fn decode(src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8]) -> Result<UdpDatagram, PacketError> {
        let (src_port, dst_port) = Self::validate(src, dst, bytes)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: Bytes::copy_from_slice(&bytes[Self::HEADER_LEN..]),
        })
    }

    /// Like [`UdpDatagram::decode`], but the payload is a zero-copy
    /// slice of the shared buffer instead of a fresh allocation. This is
    /// the IDS hot path: every captured frame is decoded once per
    /// engine, and the payload's lifetime (footprints, trails) can far
    /// outlive the frame.
    ///
    /// # Errors
    ///
    /// See [`PacketError`].
    pub fn decode_shared(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
    ) -> Result<UdpDatagram, PacketError> {
        let (src_port, dst_port) = Self::validate(src, dst, bytes)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: bytes.slice(Self::HEADER_LEN..),
        })
    }

    /// Header validation shared by both decode paths: length fields and
    /// checksum, without touching the payload.
    fn validate(src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8]) -> Result<(u16, u16), PacketError> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(PacketError::Truncated {
                need: Self::HEADER_LEN,
                have: bytes.len(),
            });
        }
        let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
        let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
        let declared = u16::from_be_bytes([bytes[4], bytes[5]]);
        if declared as usize != bytes.len() {
            return Err(PacketError::BadLength {
                declared,
                actual: bytes.len(),
            });
        }
        let got = u16::from_be_bytes([bytes[6], bytes[7]]);
        if got != 0 {
            let expected = udp_checksum(src, dst, bytes);
            if expected != got {
                return Err(PacketError::BadChecksum {
                    expected,
                    actual: got,
                });
            }
        }
        Ok((src_port, dst_port))
    }
}

/// Internet checksum over the IPv4 pseudo-header plus UDP datagram, the
/// production implementation: four bytes per step into a 64-bit
/// accumulator (the compiler vectorizes the straight-line loop), with
/// the checksum field's word subtracted once at the end instead of a
/// branch per word. Byte-exact with [`udp_checksum_reference`] — the
/// one's-complement sum is commutative, a folded non-zero sum has a
/// unique representative in `1..=0xffff`, and the pseudo-header term
/// (protocol 17) keeps the total non-zero.
fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    debug_assert!(datagram.len() >= UdpDatagram::HEADER_LEN);
    let mut sum: u64 = 0;
    let s = src.octets();
    let d = dst.octets();
    sum += u64::from(u32::from_be_bytes(s));
    sum += u64::from(u32::from_be_bytes(d));
    sum += 17; // zero byte + protocol
    sum += u64::from(datagram.len() as u16);
    let mut chunks = datagram.chunks_exact(4);
    for chunk in &mut chunks {
        sum += u64::from(u32::from_be_bytes(chunk.try_into().expect("4-byte chunk")));
    }
    let rem = chunks.remainder();
    if rem.len() >= 2 {
        sum += u64::from(u16::from_be_bytes([rem[0], rem[1]]));
    }
    if rem.len() % 2 == 1 {
        sum += u64::from(u16::from_be_bytes([rem[rem.len() - 1], 0]));
    }
    // Remove the checksum field (bytes 6..8, the low half of the second
    // chunk) — summed above, skipped by the reference.
    sum -= u64::from(u16::from_be_bytes([datagram[6], datagram[7]]));
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    let folded = !(sum as u16);
    // Per RFC 768, a computed checksum of zero is transmitted as all-ones.
    if folded == 0 {
        0xffff
    } else {
        folded
    }
}

/// The retained per-16-bit-word checksum (a branch per word to skip the
/// checksum field): the behavioral specification [`udp_checksum`] is
/// tested against.
pub fn udp_checksum_reference(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let s = src.octets();
    let d = dst.octets();
    for chunk in [
        [s[0], s[1]],
        [s[2], s[3]],
        [d[0], d[1]],
        [d[2], d[3]],
        [0, 17],
        (datagram.len() as u16).to_be_bytes(),
    ] {
        sum += u32::from(u16::from_be_bytes(chunk));
    }
    let mut iter = datagram.chunks_exact(2);
    for (word, chunk) in (&mut iter).enumerate() {
        if word == 3 {
            continue; // the checksum field
        }
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = iter.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    let folded = !(sum as u16);
    // Per RFC 768, a computed checksum of zero is transmitted as all-ones.
    if folded == 0 {
        0xffff
    } else {
        folded
    }
}

/// A minimal ICMP message (echo and destination-unreachable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcmpMessage {
    /// Echo request with identifier and sequence number.
    EchoRequest {
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// Echo reply with identifier and sequence number.
    EchoReply {
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// Destination port unreachable (code 3).
    PortUnreachable,
}

impl IcmpMessage {
    /// Encodes to a 8-byte type/code/id/seq representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8);
        match *self {
            IcmpMessage::EchoRequest { id, seq } => {
                buf.put_u8(8);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(id);
                buf.put_u16(seq);
            }
            IcmpMessage::EchoReply { id, seq } => {
                buf.put_u8(0);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(id);
                buf.put_u16(seq);
            }
            IcmpMessage::PortUnreachable => {
                buf.put_u8(3);
                buf.put_u8(3);
                buf.put_u16(0);
                buf.put_u32(0);
            }
        }
        buf.freeze()
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if shorter than 8 bytes.
    pub fn decode(bytes: &[u8]) -> Result<IcmpMessage, PacketError> {
        if bytes.len() < 8 {
            return Err(PacketError::Truncated {
                need: 8,
                have: bytes.len(),
            });
        }
        let id = u16::from_be_bytes([bytes[4], bytes[5]]);
        let seq = u16::from_be_bytes([bytes[6], bytes[7]]);
        Ok(match (bytes[0], bytes[1]) {
            (8, _) => IcmpMessage::EchoRequest { id, seq },
            (0, _) => IcmpMessage::EchoReply { id, seq },
            _ => IcmpMessage::PortUnreachable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn b() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    #[test]
    fn udp_roundtrip() {
        let pkt = IpPacket::udp(a(), 1234, b(), 5060, b"hello sip".as_ref());
        let udp = pkt.decode_udp().unwrap();
        assert_eq!(udp.src_port, 1234);
        assert_eq!(udp.dst_port, 5060);
        assert_eq!(&udp.payload[..], b"hello sip");
    }

    /// The SWAR checksum must agree with the retained scalar reference
    /// on every length (covering all chunk remainders), pseudo-random
    /// content, and adversarial all-ones/all-zeros payloads.
    #[test]
    fn fast_checksum_matches_reference() {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        };
        for len in UdpDatagram::HEADER_LEN..80 {
            for variant in 0..4 {
                let datagram: Vec<u8> = match variant {
                    0 => (0..len).map(|_| next()).collect(),
                    1 => vec![0x00; len],
                    2 => vec![0xff; len],
                    _ => (0..len).map(|i| (i % 251) as u8).collect(),
                };
                let (src, dst) = (a(), Ipv4Addr::new(next(), next(), next(), next()));
                assert_eq!(
                    udp_checksum(src, dst, &datagram),
                    udp_checksum_reference(src, dst, &datagram),
                    "diverged at len {len} variant {variant}"
                );
            }
        }
    }

    #[test]
    fn udp_checksum_detects_corruption() {
        let pkt = IpPacket::udp(a(), 1, b(), 2, b"payload".as_ref());
        let mut raw = pkt.payload.to_vec();
        raw[9] ^= 0xff; // flip a payload byte
        let corrupted = IpPacket {
            payload: Bytes::from(raw),
            ..pkt
        };
        assert!(matches!(
            corrupted.decode_udp(),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn udp_checksum_covers_addresses() {
        // Same datagram bytes but delivered claiming a different source IP
        // must fail the pseudo-header checksum.
        let pkt = IpPacket::udp(a(), 1, b(), 2, b"payload".as_ref());
        let moved = IpPacket {
            src: Ipv4Addr::new(10, 0, 0, 99),
            ..pkt
        };
        assert!(matches!(
            moved.decode_udp(),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn udp_bad_length_detected() {
        let pkt = IpPacket::udp(a(), 1, b(), 2, b"xyz".as_ref());
        let truncated = IpPacket {
            payload: pkt.payload.slice(..pkt.payload.len() - 1),
            ..pkt
        };
        assert!(matches!(
            truncated.decode_udp(),
            Err(PacketError::BadLength { .. })
        ));
    }

    #[test]
    fn udp_truncated_header() {
        let pkt = IpPacket {
            src: a(),
            dst: b(),
            id: 0,
            ttl: 64,
            proto: IpProto::Udp,
            frag: FragInfo::UNFRAGMENTED,
            payload: Bytes::from_static(&[1, 2, 3]),
        };
        assert!(matches!(
            pkt.decode_udp(),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn fragment_refuses_udp_decode() {
        let mut pkt = IpPacket::udp(a(), 1, b(), 2, b"data".as_ref());
        pkt.frag = FragInfo {
            offset: 0,
            more: true,
        };
        assert_eq!(pkt.decode_udp(), Err(PacketError::Fragmented));
    }

    #[test]
    fn proto_mismatch_errors() {
        let pkt = IpPacket::icmp(a(), b(), &IcmpMessage::PortUnreachable);
        assert!(matches!(pkt.decode_udp(), Err(PacketError::NotUdp(_))));
        let upkt = IpPacket::udp(a(), 1, b(), 2, b"x".as_ref());
        assert!(matches!(upkt.decode_icmp(), Err(PacketError::NotIcmp(_))));
    }

    #[test]
    fn icmp_roundtrip() {
        for msg in [
            IcmpMessage::EchoRequest { id: 7, seq: 9 },
            IcmpMessage::EchoReply { id: 7, seq: 9 },
            IcmpMessage::PortUnreachable,
        ] {
            let pkt = IpPacket::icmp(a(), b(), &msg);
            assert_eq!(pkt.decode_icmp().unwrap(), msg);
        }
    }

    #[test]
    fn empty_payload_udp() {
        let pkt = IpPacket::udp(a(), 5, b(), 6, Bytes::new());
        let udp = pkt.decode_udp().unwrap();
        assert!(udp.payload.is_empty());
    }

    #[test]
    fn wire_len_includes_ip_header() {
        let pkt = IpPacket::udp(a(), 5, b(), 6, b"12345".as_ref());
        assert_eq!(pkt.wire_len(), 20 + 8 + 5);
    }

    #[test]
    fn proto_number_roundtrip() {
        assert_eq!(IpProto::from(17u8), IpProto::Udp);
        assert_eq!(IpProto::from(1u8), IpProto::Icmp);
        assert_eq!(IpProto::from(6u8), IpProto::Other(6));
        assert_eq!(IpProto::Other(6).number(), 6);
        assert_eq!(IpProto::Udp.number(), 17);
    }

    #[test]
    fn frag_info_is_fragment() {
        assert!(!FragInfo::UNFRAGMENTED.is_fragment());
        assert!(FragInfo { offset: 8, more: false }.is_fragment());
        assert!(FragInfo { offset: 0, more: true }.is_fragment());
    }
}
