//! A minimal MGCP-style gateway-control protocol module — the fifth
//! protocol, added purely through the [`crate::proto`] registry with
//! zero edits to the distiller, router, or generator dispatch. It
//! exists to prove the extension seam and to mirror the paper's
//! forged-BYE scenario at the gateway-control layer: a DLCX tears a
//! connection down, so RTP continuing afterwards is teardown evasion,
//! which the builtin `mgcp-teardown` rule alerts on.
//!
//! The wire format is a toy cut of RFC 3435: a command line
//! `VERB txid endpoint MGCP 1.0` (CRCX / DLCX / NTFY), a `C:` call-id
//! parameter line, and — instead of a full SDP body — an `RTP:
//! addr:port` line announcing the connection's media sink.
//!
//! Not registered by default: tests and examples opt in with
//! [`crate::proto::ProtocolSetBuilder::register`].

use crate::distill::DistillerConfig;
use crate::event::{EventClass, EventKind, FlowKey};
use crate::footprint::{ExtBody, ExtData, Footprint, FootprintBody, PacketMeta};
use crate::proto::{AttributeCtx, GenCtx, ProtocolModule};
use crate::trail::{SessionKey, TrailKey};
use bytes::Bytes;
use scidive_netsim::time::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The gateway-control port the module claims. Disjoint from the SIP
/// (5060) and accounting (2427) defaults, so registering the module
/// cannot re-classify legacy captures.
pub const MGCP_PORT: u16 = 2727;

/// An MGCP command verb (the subset the module decodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgcpVerb {
    /// CreateConnection: allocates a connection and announces its
    /// media sink.
    Crcx,
    /// DeleteConnection: tears the connection down.
    Dlcx,
    /// Notify: a gateway event report (decoded but inert).
    Ntfy,
}

impl fmt::Display for MgcpVerb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MgcpVerb::Crcx => "CRCX",
            MgcpVerb::Dlcx => "DLCX",
            MgcpVerb::Ntfy => "NTFY",
        })
    }
}

/// A decoded gateway-control command — the MGCP module's footprint
/// payload, carried in [`FootprintBody::Ext`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgcpPdu {
    /// The command verb.
    pub verb: MgcpVerb,
    /// Transaction id from the command line.
    pub txid: u32,
    /// The gateway endpoint the command addresses.
    pub endpoint: String,
    /// The call the connection belongs to (the session join key).
    pub call_id: String,
    /// The connection's media sink, when announced (`RTP:` line).
    pub rtp_target: Option<(Ipv4Addr, u16)>,
}

impl MgcpPdu {
    /// Parses the toy wire format; `None` for anything malformed.
    pub fn parse(text: &str) -> Option<MgcpPdu> {
        let mut lines = text.lines();
        let mut parts = lines.next()?.split_whitespace();
        let verb = match parts.next()? {
            "CRCX" => MgcpVerb::Crcx,
            "DLCX" => MgcpVerb::Dlcx,
            "NTFY" => MgcpVerb::Ntfy,
            _ => return None,
        };
        let txid: u32 = parts.next()?.parse().ok()?;
        let endpoint = parts.next()?.to_string();
        if parts.next() != Some("MGCP") {
            return None;
        }
        let mut call_id = None;
        let mut rtp_target = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("C:") {
                call_id = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("RTP:") {
                let (addr, port) = rest.trim().rsplit_once(':')?;
                rtp_target = Some((addr.parse().ok()?, port.parse().ok()?));
            }
        }
        Some(MgcpPdu {
            verb,
            txid,
            endpoint,
            call_id: call_id?,
            rtp_target,
        })
    }

    /// Renders the PDU back to the wire format (scenario generators).
    pub fn encode(&self) -> String {
        let mut s = format!("{} {} {} MGCP 1.0\nC: {}\n", self.verb, self.txid, self.endpoint, self.call_id);
        if let Some((addr, port)) = self.rtp_target {
            s.push_str(&format!("RTP: {addr}:{port}\n"));
        }
        s
    }
}

impl ExtData for MgcpPdu {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn eq_ext(&self, other: &dyn ExtData) -> bool {
        other
            .as_any()
            .downcast_ref::<MgcpPdu>()
            .is_some_and(|o| o == self)
    }

    fn label(&self) -> String {
        format!("MGCP {} {}", self.verb, self.call_id)
    }
}

/// The protocol tag MGCP footprints carry in [`FootprintBody::Ext`].
pub const MGCP_PROTO: &str = "mgcp";

/// The MGCP gateway-control module. Classifies port-2727 commands,
/// attributes them by call-id, learns the CRCX media sink into the
/// cross-protocol index, and watches for RTP continuing after a DLCX
/// tore the connection down (the paper's forged-BYE pattern one layer
/// down the stack).
#[derive(Debug, Default)]
pub struct MgcpModule {
    /// session → (DLCX time, orphan already alarmed). Per-engine state:
    /// [`ProtocolModule::fresh`] hands every generator its own copy.
    teardowns: HashMap<SessionKey, (SimTime, bool)>,
}

impl MgcpModule {
    /// Creates the module.
    pub fn new() -> MgcpModule {
        MgcpModule::default()
    }
}

impl ProtocolModule for MgcpModule {
    fn name(&self) -> &'static str {
        MGCP_PROTO
    }

    fn classify_priority(&self) -> u16 {
        // Between acct (10) and sip (20): a dedicated port either way.
        15
    }

    fn fresh(&self) -> Box<dyn ProtocolModule> {
        Box::new(MgcpModule::default())
    }

    fn owns(&self, body: &FootprintBody) -> bool {
        matches!(body, FootprintBody::Ext(e) if e.proto == MGCP_PROTO)
    }

    fn classify(
        &self,
        payload: &Bytes,
        meta: &PacketMeta,
        _cfg: &DistillerConfig,
    ) -> Option<FootprintBody> {
        if meta.dst_port != MGCP_PORT {
            return None;
        }
        let Some(pdu) = std::str::from_utf8(payload).ok().and_then(MgcpPdu::parse) else {
            // The gateway-control port consumes what it cannot parse.
            return Some(FootprintBody::UdpOther {
                payload_len: payload.len(),
            });
        };
        Some(FootprintBody::Ext(ExtBody {
            proto: MGCP_PROTO,
            data: Arc::new(pdu),
        }))
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        match pdu_of(fp) {
            Some(pdu) => ctx.intern(&pdu.call_id),
            None => ctx.synthetic("other", fp.meta.dst, None),
        }
    }

    fn learn(
        &self,
        fp: &Footprint,
        session: &SessionKey,
        ctx: &mut AttributeCtx<'_>,
    ) -> bool {
        let Some(pdu) = pdu_of(fp) else {
            return false;
        };
        if pdu.verb != MgcpVerb::Crcx {
            return false;
        }
        let Some((addr, port)) = pdu.rtp_target else {
            return false;
        };
        ctx.learn_target(addr, port, session);
        true
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        match &fp.body {
            FootprintBody::Ext(e) if e.proto == MGCP_PROTO => {
                let Some(pdu) = e.data.as_any().downcast_ref::<MgcpPdu>() else {
                    return;
                };
                if pdu.verb == MgcpVerb::Dlcx {
                    self.teardowns
                        .insert(key.session.clone(), (fp.meta.time, false));
                    ctx.emit(
                        fp.meta.time,
                        Some(key.session.clone()),
                        EventKind::Protocol {
                            class: EventClass::Ext0,
                            signal: DLCX_SIGNAL,
                            detail: format!("{} {}", pdu.endpoint, pdu.call_id),
                        },
                    );
                }
            }
            FootprintBody::Rtp { .. } => {
                // Cross-protocol watch: media continuing after the
                // gateway deleted the connection.
                if !ctx.config().cross_protocol {
                    return;
                }
                let Some(&(at, emitted)) = self.teardowns.get(&key.session) else {
                    return;
                };
                if emitted {
                    return;
                }
                let gap = fp.meta.time.saturating_since(at);
                if gap > ctx.config().monitor_window {
                    return;
                }
                self.teardowns
                    .insert(key.session.clone(), (at, true));
                let flow = FlowKey {
                    src: fp.meta.src,
                    dst: fp.meta.dst,
                    dst_port: fp.meta.dst_port,
                };
                ctx.emit(
                    fp.meta.time,
                    Some(key.session.clone()),
                    EventKind::Protocol {
                        class: EventClass::Ext1,
                        signal: ORPHAN_SIGNAL,
                        detail: format!("{flow} {}us after DLCX", gap.as_micros()),
                    },
                );
            }
            _ => {}
        }
    }
}

fn pdu_of(fp: &Footprint) -> Option<&MgcpPdu> {
    let FootprintBody::Ext(e) = &fp.body else {
        return None;
    };
    if e.proto != MGCP_PROTO {
        return None;
    }
    e.data.as_any().downcast_ref::<MgcpPdu>()
}

/// Signal name of the DLCX-observed event (class `Ext0`).
pub const DLCX_SIGNAL: &str = "mgcp-conn-deleted";
/// Signal name of the RTP-after-DLCX event (class `Ext1`), which the
/// builtin `mgcp-teardown` rule of `rules/builtin.scid` matches.
pub const ORPHAN_SIGNAL: &str = "mgcp-rtp-after-dlcx";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdu_roundtrips() {
        let pdu = MgcpPdu {
            verb: MgcpVerb::Crcx,
            txid: 1234,
            endpoint: "gw1/e0".to_string(),
            call_id: "conn-7".to_string(),
            rtp_target: Some((Ipv4Addr::new(10, 0, 0, 3), 9000)),
        };
        let parsed = MgcpPdu::parse(&pdu.encode()).expect("parses");
        assert_eq!(parsed, pdu);
        // Without an RTP line the target is simply absent.
        let dlcx = MgcpPdu {
            verb: MgcpVerb::Dlcx,
            txid: 1235,
            endpoint: "gw1/e0".to_string(),
            call_id: "conn-7".to_string(),
            rtp_target: None,
        };
        assert_eq!(MgcpPdu::parse(&dlcx.encode()), Some(dlcx));
    }

    #[test]
    fn malformed_pdus_rejected() {
        assert_eq!(MgcpPdu::parse("AUEP 1 gw1 MGCP 1.0\nC: x\n"), None);
        assert_eq!(MgcpPdu::parse("CRCX notanum gw1 MGCP 1.0\nC: x\n"), None);
        assert_eq!(MgcpPdu::parse("CRCX 1 gw1 MGCP 1.0\n"), None, "no call-id");
        assert_eq!(MgcpPdu::parse(""), None);
    }

    #[test]
    fn ext_body_equality_goes_through_downcast() {
        let mk = |txid| FootprintBody::Ext(ExtBody {
            proto: MGCP_PROTO,
            data: Arc::new(MgcpPdu {
                verb: MgcpVerb::Ntfy,
                txid,
                endpoint: "gw1/e0".to_string(),
                call_id: "c".to_string(),
                rtp_target: None,
            }),
        });
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
