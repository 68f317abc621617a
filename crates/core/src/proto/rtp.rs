//! The RTP protocol module: media classification, sink-based session
//! attribution, and the per-flow media checks (§4.2) — sequence
//! discipline, unknown sources, and the orphan-media watches armed by
//! SIP teardowns/redirects and RTCP goodbyes.

use crate::distill::DistillerConfig;
use crate::event::{Event, EventKind, FlowKey};
use crate::footprint::{Footprint, FootprintBody, PacketMeta};
use crate::proto::{AttributeCtx, GenCtx, ProtocolModule};
use crate::trail::{SessionKey, TrailKey};
use bytes::Bytes;
use scidive_rtp::packet::{looks_like_rtp, RtpPacket};
use scidive_rtp::seq::seq_delta;
use std::collections::HashMap;

/// The RTP module. Owns [`FootprintBody::Rtp`]; attribution resolves
/// the destination sink through the media index (the SDP-derived
/// cross-protocol correlation), falling back to a synthetic per-flow
/// session.
#[derive(Debug, Default)]
pub struct RtpModule;

impl RtpModule {
    /// Creates the module.
    pub fn new() -> RtpModule {
        RtpModule
    }
}

impl ProtocolModule for RtpModule {
    fn name(&self) -> &'static str {
        "rtp"
    }

    fn classify_priority(&self) -> u16 {
        // After RTCP: RTCP packet types collide with RTP's
        // marker+payload-type byte, so the stricter signature runs first.
        40
    }

    fn fresh(&self) -> Box<dyn ProtocolModule> {
        Box::new(RtpModule)
    }

    fn owns(&self, body: &FootprintBody) -> bool {
        matches!(body, FootprintBody::Rtp { .. })
    }

    fn classify(
        &self,
        payload: &Bytes,
        _meta: &PacketMeta,
        _cfg: &DistillerConfig,
    ) -> Option<FootprintBody> {
        if looks_like_rtp(payload) {
            if let Ok(rtp) = RtpPacket::decode_shared(payload) {
                return Some(FootprintBody::Rtp {
                    header: rtp.header,
                    payload_len: rtp.payload.len(),
                });
            }
        }
        None
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        match ctx.resolve_media(fp.meta.dst, fp.meta.dst_port) {
            Some(session) => session,
            None => ctx.synthetic("flow", fp.meta.dst, Some(fp.meta.dst_port)),
        }
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        if let FootprintBody::Rtp { header, .. } = &fp.body {
            on_rtp(fp, key, header.ssrc, header.seq, ctx);
        }
    }
}

fn on_rtp(fp: &Footprint, key: &TrailKey, ssrc: u32, seq: u16, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let flow = FlowKey {
        src: fp.meta.src,
        dst: fp.meta.dst,
        dst_port: fp.meta.dst_port,
    };
    // Sequence discipline (§4.2.4): per flow+SSRC.
    let flow_history = ctx.plane.flows.get_or_insert_with(flow, time, HashMap::new);
    if let Some(last) = flow_history.insert(ssrc, seq) {
        let delta = seq_delta(last, seq);
        if delta.abs() > ctx.config.seq_jump_threshold {
            ctx.emit(
                time,
                Some(key.session.clone()),
                EventKind::RtpSeqViolation { flow, delta },
            );
        }
    }

    if !ctx.config.cross_protocol {
        return;
    }
    let monitor_window = ctx.config.monitor_window;
    let grace = ctx.config.rtcp_bye_grace;
    let GenCtx { plane, out, .. } = ctx;
    let Some(state) = plane.sessions.get_mut(&key.session, time) else {
        return;
    };
    // First sighting of this flow in the session.
    if state.active_flows.insert(flow) {
        out.push(Event {
            time,
            session: Some(key.session.clone()),
            kind: EventKind::RtpFlowActive { flow },
        });
    }
    // Source legitimacy: media for this session should come from the
    // negotiated endpoints. One pass over the (tiny) endpoint lists —
    // no collected Vec, this runs for every media frame.
    let mut any_legit = false;
    let mut src_legit = false;
    for ip in state
        .caller_media
        .iter()
        .chain(state.callee_media.iter())
        .map(|(ip, _)| *ip)
        .chain(state.redirected.iter().map(|r| r.old_target.0))
    {
        any_legit = true;
        if ip == flow.src {
            src_legit = true;
            break;
        }
    }
    if any_legit && !src_legit && state.unknown_src_flows.insert(flow) {
        out.push(Event {
            time,
            session: Some(key.session.clone()),
            kind: EventKind::RtpUnknownSource { flow },
        });
    }
    // Orphan after BYE (§4.2.1): the claimed terminator keeps
    // transmitting.
    let bye_orphan = match &state.torn_down {
        Some(t) if !state.orphan_bye_emitted && t.by_media_ip == Some(flow.src) => {
            let gap = time.saturating_since(t.at);
            (gap <= monitor_window).then(|| (gap, t.bye.clone()))
        }
        _ => None,
    };
    if let Some((gap, bye)) = bye_orphan {
        state.orphan_bye_emitted = true;
        out.push(Event {
            time,
            session: Some(key.session.clone()),
            kind: EventKind::OrphanRtpAfterBye { flow, gap, bye },
        });
    }
    // Orphan after redirect (§4.2.3): the endpoint that claimed to
    // move keeps transmitting with its old SSRCs.
    let redirect_orphan = match &state.redirected {
        Some(r) if !state.orphan_redirect_emitted => {
            let gap = time.saturating_since(r.at);
            let from_old_endpoint = r.old_target.0 == flow.src;
            let to_victim = r
                .victim_sink
                .map(|(ip, port)| ip == flow.dst && port == flow.dst_port)
                .unwrap_or(true);
            let old_stream = r.old_ssrcs.is_empty() || r.old_ssrcs.contains(&ssrc);
            (from_old_endpoint && to_victim && old_stream && gap <= monitor_window)
                .then_some(gap)
        }
        _ => None,
    };
    if let Some(gap) = redirect_orphan {
        state.orphan_redirect_emitted = true;
        out.push(Event {
            time,
            session: Some(key.session.clone()),
            kind: EventKind::OrphanRtpAfterRedirect { flow, gap },
        });
    }
    // Media continuing after its own RTCP goodbye (forged RTCP BYE,
    // or a confused sender): §3.1's SIP→RTP→RTCP event chain.
    let rtcp_orphan = match state.rtcp_byes.get(&ssrc) {
        Some(&(at, false)) => {
            let gap = time.saturating_since(at);
            (gap > grace && gap <= monitor_window).then_some(gap)
        }
        _ => None,
    };
    if let Some(gap) = rtcp_orphan {
        state.rtcp_byes.insert(ssrc, (time, true));
        out.push(Event {
            time,
            session: Some(key.session.clone()),
            kind: EventKind::RtpAfterRtcpBye { flow, ssrc, gap },
        });
    }
}
