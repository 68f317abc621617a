//! The Distiller (paper §3.1): raw frames → footprints.
//!
//! "Incoming network flows first pass through the Distiller, which
//! translates packets into protocol dependent information units called
//! Footprints. The Distiller is responsible for doing IP fragmentation,
//! reassembly, decoding protocols, and finally generating the
//! corresponding Footprints."
//!
//! The Distiller itself only handles transport: fragment reassembly,
//! ICMP/non-UDP bodies, and UDP header validation. Application-payload
//! classification is delegated to the [`crate::proto::ProtocolSet`] it
//! was built with, so registering a new protocol module never touches
//! this file.

use crate::footprint::{CorruptReason, Footprint, FootprintBody, PacketMeta};
use crate::proto::ProtocolSet;
use scidive_netsim::frag::Reassembler;
use scidive_netsim::packet::{IpPacket, IpProto};
use scidive_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Distiller configuration.
#[derive(Debug, Clone)]
pub struct DistillerConfig {
    /// Ports treated as SIP signalling.
    pub sip_ports: Vec<u16>,
    /// Port carrying accounting transactions.
    pub acct_port: u16,
    /// How long to hold incomplete IP fragments.
    pub reassembly_timeout: SimDuration,
}

impl Default for DistillerConfig {
    fn default() -> DistillerConfig {
        DistillerConfig {
            sip_ports: vec![5060],
            acct_port: 2427,
            reassembly_timeout: SimDuration::from_secs(30),
        }
    }
}

/// Counters kept by the Distiller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistillStats {
    /// Frames offered.
    pub frames: u64,
    /// Footprints produced.
    pub footprints: u64,
    /// Fragments buffered awaiting reassembly.
    pub fragments_buffered: u64,
    /// Datagrams reassembled from fragments.
    pub reassembled: u64,
    /// UDP datagrams with bad headers/checksums.
    pub corrupt_udp: u64,
    /// SIP-port payloads that failed to parse.
    pub malformed_sip: u64,
}

/// The Distiller: stateful packet decoding front-end of the IDS.
///
/// # Examples
///
/// ```
/// use scidive_core::distill::{Distiller, DistillerConfig};
/// use scidive_core::footprint::FootprintBody;
/// use scidive_netsim::packet::IpPacket;
/// use scidive_netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut d = Distiller::new(DistillerConfig::default());
/// let pkt = IpPacket::udp(
///     Ipv4Addr::new(10, 0, 0, 1), 5060,
///     Ipv4Addr::new(10, 0, 0, 2), 5060,
///     b"OPTIONS sip:b@10.0.0.2 SIP/2.0\r\nCall-ID: x\r\n\r\n".as_ref(),
/// );
/// let fp = d.distill(SimTime::ZERO, &pkt).expect("complete datagram");
/// assert!(matches!(fp.body, FootprintBody::Sip(_)));
/// ```
#[derive(Debug)]
pub struct Distiller {
    config: DistillerConfig,
    reassembler: Reassembler,
    protocols: ProtocolSet,
    stats: DistillStats,
}

impl Distiller {
    /// Creates a distiller classifying through the default protocol
    /// registry.
    pub fn new(config: DistillerConfig) -> Distiller {
        Distiller::with_protocols(config, ProtocolSet::default())
    }

    /// Creates a distiller classifying through the given protocol
    /// registry.
    pub fn with_protocols(config: DistillerConfig, protocols: ProtocolSet) -> Distiller {
        let reassembler = Reassembler::new(config.reassembly_timeout);
        Distiller {
            config,
            reassembler,
            protocols,
            stats: DistillStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> DistillStats {
        self.stats
    }

    /// Offers one frame as seen at the tap; returns the footprint for a
    /// complete datagram, or `None` while fragments accumulate.
    ///
    /// A frame yields at most one footprint, so the result is an
    /// `Option` — not a `Vec` — and the steady-state path performs no
    /// container allocation.
    pub fn distill(&mut self, time: SimTime, pkt: &IpPacket) -> Option<Footprint> {
        self.stats.frames += 1;
        // Whole datagrams — the overwhelming common case — skip the
        // reassembler's clone-and-return round trip; only the timeout
        // sweep it would have run still runs, so partial-drop timing is
        // unchanged.
        if !pkt.frag.is_fragment() {
            self.reassembler.expire(time);
            let fp = self.decode(time, pkt);
            self.stats.footprints += 1;
            return Some(fp);
        }
        let Some(whole) = self.reassembler.offer(time, pkt.clone()) else {
            self.stats.fragments_buffered += 1;
            return None;
        };
        self.stats.reassembled += 1;
        let fp = self.decode(time, &whole);
        self.stats.footprints += 1;
        Some(fp)
    }

    fn decode(&mut self, time: SimTime, pkt: &IpPacket) -> Footprint {
        let mut meta = PacketMeta {
            time,
            src: pkt.src,
            src_port: 0,
            dst: pkt.dst,
            dst_port: 0,
        };
        match pkt.proto {
            IpProto::Icmp => {
                let icmp_type = pkt.payload.first().copied().unwrap_or(0);
                return Footprint {
                    meta,
                    body: FootprintBody::Icmp { icmp_type },
                };
            }
            IpProto::Other(_) => {
                return Footprint {
                    meta,
                    body: FootprintBody::UdpOther { payload_len: pkt.payload.len() },
                };
            }
            IpProto::Udp => {}
        }
        let udp = match pkt.decode_udp() {
            Ok(udp) => udp,
            Err(e) => {
                self.stats.corrupt_udp += 1;
                return Footprint {
                    meta,
                    body: FootprintBody::UdpCorrupt {
                        reason: CorruptReason::from(&e),
                    },
                };
            }
        };
        meta.src_port = udp.src_port;
        meta.dst_port = udp.dst_port;
        let body = self.classify(&udp.payload, meta);
        Footprint { meta, body }
    }

    /// Application-payload classification, dispatched to the protocol
    /// registry: each module is asked in priority order, first answer
    /// wins. `payload` is the shared datagram buffer, so modules can
    /// slice it zero-copy.
    fn classify(&mut self, payload: &bytes::Bytes, meta: PacketMeta) -> FootprintBody {
        let body = self.protocols.classify(payload, &meta, &self.config);
        if matches!(body, FootprintBody::SipMalformed { .. }) {
            self.stats.malformed_sip += 1;
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scidive_netsim::frag::fragment;
    use scidive_rtp::rtcp::RtcpPacket;
    use scidive_rtp::source::MediaSource;
    use std::net::Ipv4Addr;

    fn d() -> Distiller {
        Distiller::new(DistillerConfig::default())
    }

    fn a() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn b() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    #[test]
    fn classifies_sip_request() {
        let mut dist = d();
        let pkt = IpPacket::udp(a(), 5060, b(), 5060, b"BYE sip:x@h SIP/2.0\r\nCall-ID: c\r\n\r\n".as_ref());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(&fp.body, FootprintBody::Sip(m) if m.is_request()));
        assert_eq!(fp.meta.dst_port, 5060);
    }

    #[test]
    fn classifies_malformed_sip_on_sip_port() {
        let mut dist = d();
        let pkt = IpPacket::udp(a(), 5060, b(), 5060, b"NOTSIP garbage here\r\n\r\n".as_ref());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(&fp.body, FootprintBody::SipMalformed { .. }));
        assert_eq!(dist.stats().malformed_sip, 1);
    }

    #[test]
    fn classifies_rtp() {
        let mut dist = d();
        let mut src = MediaSource::new(7, 100, 0);
        let pkt = IpPacket::udp(a(), 8000, b(), 9000, src.next_packet().encode());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(
            &fp.body,
            FootprintBody::Rtp { header, payload_len: 160 } if header.seq == 100
        ));
    }

    #[test]
    fn classifies_rtcp() {
        let mut dist = d();
        let bye = RtcpPacket::Bye { ssrcs: vec![9] };
        let pkt = IpPacket::udp(a(), 8001, b(), 9001, bye.encode());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(&fp.body, FootprintBody::Rtcp(RtcpPacket::Bye { .. })));
    }

    #[test]
    fn classifies_acct() {
        let mut dist = d();
        let pkt = IpPacket::udp(a(), 2427, b(), 2427, "ACCT START a@l b@l c9".as_bytes());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(&fp.body, FootprintBody::Acct(acct) if acct.call_id == "c9"));
    }

    #[test]
    fn classifies_icmp_and_garbage() {
        let mut dist = d();
        let icmp = IpPacket::icmp(a(), b(), &scidive_netsim::packet::IcmpMessage::PortUnreachable);
        let fp = dist.distill(SimTime::ZERO, &icmp).unwrap();
        assert!(matches!(&fp.body, FootprintBody::Icmp { icmp_type: 3 }));

        let garbage = IpPacket::udp(a(), 4444, b(), 8000, vec![0x00u8; 40]);
        let fp = dist.distill(SimTime::ZERO, &garbage).unwrap();
        assert!(matches!(&fp.body, FootprintBody::UdpOther { payload_len: 40 }));
    }

    #[test]
    fn corrupt_udp_detected() {
        let mut dist = d();
        let good = IpPacket::udp(a(), 1, b(), 2, b"payload".as_ref());
        let mut raw = good.payload.to_vec();
        raw[10] ^= 0xff;
        let bad = IpPacket { payload: Bytes::from(raw), ..good };
        let fp = dist.distill(SimTime::ZERO, &bad).unwrap();
        assert!(matches!(&fp.body, FootprintBody::UdpCorrupt { .. }));
        assert_eq!(dist.stats().corrupt_udp, 1);
    }

    #[test]
    fn reassembles_fragmented_sip() {
        // A SIP message whose attack-relevant header sits beyond the
        // first fragment: a per-packet matcher would miss it.
        let mut big_body = String::from("v=0\r\n");
        big_body.push_str(&"a=padding:xxxxxxxxxxxxxxxx\r\n".repeat(40));
        let raw = format!(
            "INVITE sip:b@h SIP/2.0\r\nCall-ID: frag-test\r\nContent-Length: {}\r\n\r\n{}",
            big_body.len(),
            big_body
        );
        let pkt = IpPacket::udp(a(), 5060, b(), 5060, raw.into_bytes()).with_id(77);
        let frags = fragment(&pkt, 256);
        assert!(frags.len() > 2);
        let mut dist = d();
        let mut out = Vec::new();
        for f in &frags {
            out.extend(dist.distill(SimTime::ZERO, f));
        }
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0].body,
            FootprintBody::Sip(m) if m.call_id().unwrap() == "frag-test"
        ));
        assert_eq!(dist.stats().reassembled, 1);
        assert_eq!(dist.stats().fragments_buffered as usize, frags.len() - 1);
    }

    #[test]
    fn off_port_sip_still_recognized() {
        let mut dist = d();
        let pkt = IpPacket::udp(a(), 7777, b(), 7777, b"BYE sip:x@h SIP/2.0\r\nCall-ID: c\r\n\r\n".as_ref());
        let fp = dist.distill(SimTime::ZERO, &pkt).unwrap();
        assert!(matches!(&fp.body, FootprintBody::Sip(_)));
    }

    #[test]
    fn stats_count_frames_and_footprints() {
        let mut dist = d();
        for i in 0..5u16 {
            let pkt = IpPacket::udp(a(), 1000 + i, b(), 9000, vec![0u8; 8]);
            dist.distill(SimTime::ZERO, &pkt);
        }
        assert_eq!(dist.stats().frames, 5);
        assert_eq!(dist.stats().footprints, 5);
    }
}
